"""End-to-end flow tests (small scale)."""

import pytest

from repro.flow import FlowConfig, run_flow, table2_row
from repro.tech import CellArchitecture


@pytest.fixture(scope="module")
def result():
    return run_flow(
        FlowConfig(
            profile="aes",
            arch=CellArchitecture.CLOSED_M1,
            scale=0.012,
            seed=1,
            window_um=1.0,
            lx=3,
            ly=1,
            time_limit=3.0,
        )
    )


def test_flow_produces_all_stages(result):
    assert result.init_route.routed_wirelength > 0
    assert result.final_route is not None
    assert result.opt is not None
    assert result.init_timing.critical_path_ps > 0
    assert result.final_timing is not None
    assert result.init_power.total_mw > 0
    assert result.final_power is not None
    assert result.design.check_legal() == []


def test_flow_improves_the_paper_metrics(result):
    init, final = result.init_route, result.final_route
    assert final.num_dm1 > init.num_dm1
    assert final.routed_wirelength < init.routed_wirelength
    assert final.num_via12 <= init.num_via12


def test_timing_not_degraded(result):
    # Same clock period for both: WNS must not get worse (paper: "no
    # adverse timing impact").
    assert result.final_timing.clock_period_ps == (
        result.init_timing.clock_period_ps
    )
    assert result.final_timing.wns_ns >= (
        result.init_timing.wns_ns - 0.005
    )


def test_table2_row_contents(result):
    row = table2_row(result)
    assert row["design"] == "aes"
    assert row["arch"] == "closedm1"
    assert row["#inst"] == len(result.design.instances)
    assert row["RWL %"] < 0
    assert row["#dM1 final"] > row["#dM1 init"]
    assert row["runtime (s)"] > 0
    assert 0 < row["runtime parallel-model (s)"] <= row["runtime (s)"]


def test_route_only_flow():
    r = run_flow(
        FlowConfig(
            profile="m0",
            arch=CellArchitecture.CONV_12T,
            scale=0.01,
            optimize=False,
        )
    )
    assert r.final_route is None
    assert r.opt is None
    with pytest.raises(ValueError):
        table2_row(r)


def test_explicit_params_override():
    from repro.core import OptParams, ParamSet

    params = OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        alpha=0.0,
        sequence=(ParamSet.square(1.0, 2, 0),),
        time_limit=2.0,
        theta=0.5,
    )
    r = run_flow(
        FlowConfig(
            profile="aes", scale=0.01, params=params, seed=2
        )
    )
    # alpha=0: still a valid flow; dM1 may or may not change.
    assert r.final_route is not None
    assert r.design.check_legal() == []


@pytest.mark.parametrize("shards", [1, 2])
def test_opt_accounting_survives_sharding(shards):
    """Build, presolve and clean-skip figures reach ``FlowResult.opt``
    whether or not the run shards (the shard layer used to drop them,
    reporting 0)."""
    from repro.core import OptParams, ParamSet

    params = OptParams.for_arch(
        CellArchitecture.CLOSED_M1,
        sequence=(ParamSet.square(1.0, 3, 0),),
        time_limit=2.0,
        theta=1e-6,
    )
    r = run_flow(
        FlowConfig(
            profile="m0", scale=0.03, params=params, seed=2,
            shards=shards,
        )
    )
    assert (r.shard is not None) == (shards > 1)
    assert r.opt.build_seconds > 0
    assert r.opt.presolve_seconds > 0
    assert r.opt.windows_skipped_clean > 0

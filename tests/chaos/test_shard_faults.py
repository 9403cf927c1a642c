"""Shard-layer chaos: mid-shard death + resume, stale plan refusal."""

import pytest

from repro.chaos import (
    ChaosController,
    ChaosFault,
    FaultPlan,
    FaultRule,
    chaos_scope,
)
from repro.core import OptParams
from repro.core.checkpoint import VM1Checkpoint
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.shard.runner import ShardCheckpointStore, run_sharded
from repro.tech import CellArchitecture, make_tech

TECH = make_tech(CellArchitecture.CLOSED_M1)
LIB = build_library(TECH)
PARAMS = OptParams.for_arch(
    CellArchitecture.CLOSED_M1, time_limit=1.0
)


def fresh_design():
    design = generate_design("m0", TECH, LIB, scale=0.02, seed=2)
    place_design(design, seed=1)
    return design


@pytest.fixture(scope="module")
def reference_snapshot():
    design = fresh_design()
    run_sharded(design, PARAMS, shards=2, halo_rows=2)
    return design.placement_snapshot()


def shard_rule(**kw):
    kw.setdefault("site", "barrier")
    kw.setdefault("action", "raise")
    return FaultRule(**kw)


def test_mid_shard_death_then_resume_byte_identical(
    tmp_path, reference_snapshot
):
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(shard_rule(nth=1, match="shard:0:done"),),
        )
    )
    interrupted = fresh_design()
    with chaos_scope(chaos):
        with pytest.raises(ChaosFault, match="shard:0:done"):
            run_sharded(
                interrupted,
                PARAMS,
                shards=2,
                halo_rows=2,
                checkpoint_dir=tmp_path,
            )
    store = ShardCheckpointStore(tmp_path)
    assert store.load_done(0) is None  # died before the done record

    # The fault condition is gone after the "crash"; a plain resume
    # must finish byte-identical to the uninterrupted run.
    resumed = fresh_design()
    result = run_sharded(
        resumed,
        PARAMS,
        shards=2,
        halo_rows=2,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    assert result.resumed_shards >= 1
    assert resumed.placement_snapshot() == reference_snapshot


def test_shard_start_death_is_recoverable(
    tmp_path, reference_snapshot
):
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(shard_rule(nth=1, match="shard:1:start"),),
        )
    )
    interrupted = fresh_design()
    with chaos_scope(chaos):
        with pytest.raises(ChaosFault, match="shard:1:start"):
            run_sharded(
                interrupted,
                PARAMS,
                shards=2,
                halo_rows=2,
                checkpoint_dir=tmp_path,
            )
    resumed = fresh_design()
    run_sharded(
        resumed,
        PARAMS,
        shards=2,
        halo_rows=2,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    assert resumed.placement_snapshot() == reference_snapshot


def test_stale_plan_fingerprint_refused_on_resume(tmp_path):
    design = fresh_design()
    run_sharded(
        design, PARAMS, shards=2, halo_rows=2,
        checkpoint_dir=tmp_path,
    )
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(site="shard.plan", action="stale", nth=1),
            ),
        )
    )
    again = fresh_design()
    with chaos_scope(chaos):
        with pytest.raises(ValueError, match="different run"):
            run_sharded(
                again, PARAMS, shards=2, halo_rows=2,
                checkpoint_dir=tmp_path, resume=True,
            )
    assert chaos.total_fires() == 1


def test_stale_plan_without_resume_is_cleared(
    tmp_path, reference_snapshot
):
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(site="shard.plan", action="stale", nth=1),
            ),
        )
    )
    design = fresh_design()
    with chaos_scope(chaos):
        # resume=False: the mismatched leftover state is discarded
        # and the run starts fresh — and still converges exactly.
        run_sharded(
            design, PARAMS, shards=2, halo_rows=2,
            checkpoint_dir=tmp_path,
        )
    assert chaos.total_fires() == 1
    assert design.placement_snapshot() == reference_snapshot


def test_fsync_failure_in_shard_checkpoint_keeps_previous(
    tmp_path, reference_snapshot
):
    """An injected ``fs.fsync`` failure on a shard's second per-pass
    checkpoint write fails the run loudly, leaves the first pass's
    checkpoint readable and intact, and leaves no temp debris; a
    resume then converges to the uninterrupted placement."""
    chaos = ChaosController(
        plan=FaultPlan(
            seed=0,
            faults=(
                FaultRule(
                    site="fs.fsync", action="fail", nth=2,
                    match="shard_000.ckpt.json",
                ),
            ),
        )
    )
    interrupted = fresh_design()
    with chaos_scope(chaos):
        with pytest.raises(OSError, match="chaos: fsync failed"):
            run_sharded(
                interrupted, PARAMS, shards=2, halo_rows=2,
                checkpoint_dir=tmp_path / "faulted",
            )
    store = ShardCheckpointStore(tmp_path / "faulted")
    assert not [
        p for p in store.root.iterdir() if p.name.endswith(".tmp")
    ]
    checkpoint = VM1Checkpoint.from_dict(store.load_resume_doc(0))
    # The surviving document is the first pass's: a move pass of the
    # first iteration.
    assert (checkpoint.u_index, checkpoint.iteration) == (0, 0)
    assert checkpoint.phase == "move"
    assert store.load_done(0) is None

    resumed = fresh_design()
    run_sharded(
        resumed, PARAMS, shards=2, halo_rows=2,
        checkpoint_dir=tmp_path / "faulted", resume=True,
    )
    assert resumed.placement_snapshot() == reference_snapshot

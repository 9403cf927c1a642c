"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import covered_seconds, layer_metrics, tail_percentile  # noqa: E402
from run import END_TO_END_UNITS, layer_unit  # noqa: E402
from workloads import SynthTail, check  # noqa: E402

from repro.flow import FlowConfig, run_flow  # noqa: E402
from repro.milp.highs_backend import HighsBackend  # noqa: E402
from repro.obs.trace import Tracer, tracer_scope  # noqa: E402
from repro.tech import CellArchitecture  # noqa: E402


def _span(name, span_id, parent, start, wall, **attrs):
    return {
        "name": name,
        "trace_id": "t",
        "span_id": span_id,
        "parent_id": parent,
        "started_at": start,
        "wall_seconds": wall,
        "attrs": attrs,
    }


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([]) == (0.0, 0.0)
    assert tail_percentile([float(i) for i in range(10)])[0] == 50.0
    assert tail_percentile([float(i) for i in range(220)]) == (95.0, 208.0)
    assert tail_percentile([float(i) for i in range(1450)]) == (
        99.0, 1435.0
    )


def test_covered_seconds_merges_and_clips():
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(
        0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-5.0, -1.0)]
    ) == 5.0


def test_engine_self_subtracts_overlapping_windows_once():
    spans = [
        _span(
            "distopt", "d", None, 0.0, 10.0, windows=4, windows_built=2,
            windows_applied=1, windows_skipped_clean=1, windows_cached=0,
        ),
        _span("window", "w1", "d", 1.0, 4.0, outcome="applied"),
        _span("window", "w2", "d", 2.0, 4.0, outcome="timed_out"),
        _span("window", "w3", "d", 8.0, 0.5, outcome="empty"),
        _span("build", "b1", "w1", 1.0, 0.5),
        _span("solve", "s1", "w1", 1.5, 3.5),
        _span("solve", "s2", "w2", 2.0, 4.0),
    ]
    layers = layer_metrics(spans, time_limit=4.0, jobs=2)
    assert layers["core.engine_self_s"] == 4.5
    assert layers["core.engine_self_ms_per_window"] == 1125.0
    assert layers["milp.solves"] == 2
    assert layers["milp.solve_s"] == 7.5
    assert layers["milp.tl_hits"] == 1
    assert layers["core.build_s"] == 0.5
    assert layers["core.passes"] == 1
    assert layers["core.windows_built"] == 2
    assert layers["core.windows_applied"] == 1
    assert layers["core.windows_skipped_clean"] == 1
    assert layers["core.windows_failed"] == 1
    assert layers["runtime.worker_busy_pct"] == 0.0


class DelayedHighs:
    """HiGHS plus a fixed delay per solve: a deliberately slowed
    solver layer.  It wraps rather than subclasses ``HighsBackend``,
    which the window tasks would rebuild from its parameters alone."""

    name = "delayed_highs"

    def __init__(self, delay: float, **kwargs) -> None:
        self.inner = HighsBackend(**kwargs)
        self.time_limit = self.inner.time_limit
        self.delay = delay

    def solve(self, model):
        time.sleep(self.delay)
        return self.inner.solve(model)


def _traced_synth_tail(delay: float | None = None) -> dict:
    workload = SynthTail(num_instances=300)
    tracer = Tracer()
    with tracer_scope(tracer):
        state = workload.setup()
        params = state[1]
        solver = None
        if delay is not None:
            solver = DelayedHighs(
                delay,
                time_limit=params.time_limit,
                mip_rel_gap=params.mip_gap,
            )
        outcome = workload.call(state, Path("."), solver=solver)
    assert check(outcome) == []
    return layer_metrics(tracer.export(), time_limit=5.0, jobs=1)


def test_slowed_solver_shows_in_solve_time_not_engine_self():
    delay = 0.02
    base = _traced_synth_tail()
    slowed = _traced_synth_tail(delay)
    assert slowed["milp.solves"] == base["milp.solves"] > 20
    added = delay * base["milp.solves"]
    moved = slowed["milp.solve_s"] - base["milp.solve_s"]
    assert 0.9 * added <= moved <= 1.5 * added
    engine = slowed["core.engine_self_s"] - base["core.engine_self_s"]
    assert abs(engine) < 0.2 * added


def test_sharded_run_layers_come_from_the_trace():
    tracer = Tracer()
    with tracer_scope(tracer):
        result = run_flow(
            FlowConfig(
                profile="aes",
                arch=CellArchitecture.OPEN_M1,
                scale=0.015,
                seed=1,
                time_limit=1.0,
                jobs=2,
                shards=2,
            )
        )
    assert result.shard is not None
    layers = layer_metrics(tracer.export(), time_limit=1.0, jobs=2)
    # FlowResult drops these on sharded runs; the trace keeps them.
    assert layers["core.build_s"] > 0
    assert layers["milp.presolve_s"] > 0
    assert layers["milp.solves"] > 0
    assert layers["shard.phase_s"] > 0
    assert layers["shard.imbalance"] >= 1.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload",
            "synth_tail", "--seed", "1", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_runs_print():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {
        m["name"]: m["unit"] for m in doc["end_to_end"]
    } == END_TO_END_UNITS
    printed = set(layer_metrics([], time_limit=5.0, jobs=1)) | {
        "shard.checkpoint_bytes",
        "milp.native_stdout_lines",
        "obs.trace_overhead_pct",
        "check.placements_distinct",
    }
    assert {m["name"] for m in doc["per_layer"]} == printed
    for metric in doc["per_layer"]:
        assert layer_unit(metric["name"]) == metric["unit"]

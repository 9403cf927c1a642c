"""One workload call in a fresh interpreter (launched by ``run.py``).

Usage::

    python3 perfbench/worker.py WORKLOAD MODE LAUNCHED_AT OUT_JSON WORKDIR

``MODE`` is ``timed`` (set up, then time the call with tracing off) or
``traced`` (the same call under an in-memory tracer; adds the
per-layer metrics).
``LAUNCHED_AT`` is the parent's ``time.time()`` just before launch, so
``setup_s`` covers interpreter start-up, imports and the workload's
own set-up.  The result is written as JSON to ``OUT_JSON``; standard
output is left to the program (the parent counts what lands there).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    TIME_LIMIT,
    WORKLOADS,
    check,
    placement_digest,
    quality,
)

from repro.obs.trace import Tracer, span, tracer_scope  # noqa: E402


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def run(workload, mode: str, launched_at: float, workdir: Path) -> dict:
    tracer = Tracer() if mode == "traced" else None
    with tracer_scope(tracer):
        state = workload.setup()
        setup_s = time.time() - launched_at
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        with span("bench.call", workload=workload.name):
            outcome = workload.call(state, workdir)
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_seconds() - cpu0
        with span("bench.check"):
            workload.complete(state, outcome)
            errors = check(outcome)
            digest = placement_digest(outcome.design)
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        **quality(outcome),
        "errors": errors,
        "digest": digest,
    }
    if tracer is not None:
        doc["layers"] = layer_metrics(
            tracer.export(), time_limit=TIME_LIMIT, jobs=workload.jobs
        )
        doc["layers"]["shard.checkpoint_bytes"] = outcome.checkpoint_bytes
    return doc


def main(argv: list[str]) -> int:
    name, mode, launched_at, out, workdir = argv
    doc = run(WORKLOADS[name], mode, float(launched_at), Path(workdir))
    Path(out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

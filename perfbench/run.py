"""Layered flow benchmark: one command, two workloads.

Usage (from the root of a repro checkout)::

    python3 perfbench/run.py --workload openm1_shards --seed 1 \\
        --seconds 60 --trace 0

Every call runs in a fresh interpreter (``worker.py``), so ``setup_s``
includes start-up and imports and the program's native standard output
never mixes with ours.  With ``--trace 0`` the workload is called at
least :data:`MIN_CALLS` times, and again while another call fits in
``--seconds``; the end-to-end metrics, ``setup_s`` included, are
medians over those calls.  With ``--trace 1`` one untraced and one
traced call give the per-layer metrics and the tracing overhead.

Each call's output is checked (oracle legality, oracle objective equal
to the reported one, placement digest); a call that fails a check
counts as failed.  The workloads' inputs are pinned (see
``workloads.py``), so ``--seed`` selects nothing: every run does the
same work and only the host varies.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Run-local scratch (per-call work dirs and logs), inside the checkout.
STATE = ROOT / ".perfbench_state"

WORKLOADS = ("openm1_shards", "synth_tail")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "objective_delta_pct": "%",
    "dm1_added": "count",
    "rwl_delta_pct": "%",
    "via12_delta_pct": "%",
}

#: Fewest timed calls per untraced run, unless the next one could end
#: past :data:`RUN_BUDGET`.
MIN_CALLS = 2
#: No call may outlive this (seconds); the whole run must end in 180.
CALL_TIMEOUT = 150.0
#: Start no further timed call that could end past this (seconds).
RUN_BUDGET = 110.0


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_window"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct") or name.endswith("_pctile"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_share") or name.endswith("imbalance"):
        return "ratio"
    return "count"


def kill_group(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """SIGKILL a worker's whole process group (its pool processes
    too) and wait, up to ``grace`` seconds, until none is left."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


class Runner:
    """Launches worker calls for one workload and tallies outcomes."""

    def __init__(self, workload: str, scratch: Path) -> None:
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self._n = 0

    def call(self, mode: str) -> dict | None:
        """One worker call; ``None`` when it crashed or timed out.

        The returned doc gains ``stdout_lines``: lines the program
        wrote to its standard output during the call.
        """
        self._n += 1
        tag = f"{self._n:02d}-{mode}"
        out = self.scratch / f"{tag}.json"
        workdir = self.scratch / tag
        workdir.mkdir()
        stdout_path = self.scratch / f"{tag}.stdout"
        stderr_path = self.scratch / f"{tag}.stderr"
        self.attempted += 1
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            launched = time.time()
            proc = subprocess.Popen(
                [
                    sys.executable, str(WORKER), self.workload, mode,
                    repr(launched), str(out), str(workdir),
                ],
                cwd=ROOT,
                stdout=so,
                stderr=se,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=CALL_TIMEOUT)
            except subprocess.TimeoutExpired:
                kill_group(proc)
                code = "timeout"
        if code != 0 or not out.exists():
            tail = stderr_path.read_text(errors="replace")[-2000:]
            print(
                f"perfbench: {self.workload} {mode} call failed "
                f"({code}):\n{tail}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        doc = json.loads(out.read_text())
        with open(stdout_path, "rb") as so:
            doc["stdout_lines"] = sum(1 for _ in so)
        self.digests.append(doc["digest"])
        if doc["errors"]:
            print(
                f"perfbench: {self.workload} {mode} call failed "
                f"its checks: {doc['errors'][:3]}",
                file=sys.stderr,
            )
            self.failed += 1
        return doc


def untraced(runner: Runner, seconds: float) -> dict:
    docs: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        doc = runner.call("timed")
        longest = max(longest, time.perf_counter() - t0)
        if doc is not None:
            docs.append(doc)
        elapsed = time.perf_counter() - started
        if elapsed + longest > RUN_BUDGET:
            break
        if runner.attempted >= MIN_CALLS and elapsed + longest > seconds:
            break
    if not docs:
        return {}
    print(
        f"perfbench: calls={len(docs)} "
        f"wall_s={[round(d['wall_s'], 3) for d in docs]} "
        f"setup_s={[round(d['setup_s'], 3) for d in docs]}"
    )
    return {
        name: {
            "value": statistics.median(d[name] for d in docs),
            "unit": unit,
        }
        for name, unit in END_TO_END_UNITS.items()
    }


def traced(runner: Runner) -> dict:
    base = runner.call("timed")
    doc = runner.call("traced")
    if base is None or doc is None:
        return {}
    layers = dict(doc["layers"])
    layers["milp.native_stdout_lines"] = doc["stdout_lines"]
    layers["obs.trace_overhead_pct"] = (
        100.0 * (doc["wall_s"] - base["wall_s"]) / base["wall_s"]
    )
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in sorted(layers.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run "
            f"from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2

    STATE.mkdir(exist_ok=True)
    scratch = STATE / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    runner = Runner(args.workload, scratch)
    try:
        if args.trace:
            metrics = traced(runner)
        else:
            metrics = untraced(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not metrics:
        print("perfbench: no call completed", file=sys.stderr)
        return 1
    distinct = sorted(set(runner.digests))
    if args.trace:
        metrics["check.placements_distinct"] = {
            "value": len(distinct),
            "unit": "count",
        }
    print(
        f"perfbench: {args.workload} seed={args.seed} "
        f"placements={distinct}"
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

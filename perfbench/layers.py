"""Per-layer metrics derived from one traced call's span dicts.

The window and pass numbers (solve times, build and presolve time,
pass and window counts, failed outcomes) come from
:meth:`repro.runtime.telemetry.RunTelemetry.from_spans`, the program's
own reading of its span schema.  This module adds only what telemetry
lacks: the engine's self time, the shard spans (``shard_plan`` /
``shard`` / ``seam`` / ``stitch_verify``), the worker busy share, the
flow stages, and the benchmark's own ``generate``/``place`` spans
around the ``synth_tail`` set-up.  A layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import math

from repro.runtime.telemetry import RunTelemetry

#: Window outcomes that count as a failed window.
FAILED_OUTCOMES = ("failed", "no_solution", "timed_out")

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` at the highest percentile of
    :data:`TAIL_PERCENTILES` with at least ten samples beyond it
    (nearest rank); the median when there are fewer than 20 samples,
    and ``(0, 0)`` for none."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    rank = max(1, math.ceil(n / 2))
    return 50.0, ordered[rank - 1]


def covered_seconds(
    start: float, end: float, intervals: list[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to it)."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _end(doc: dict) -> float:
    return doc["started_at"] + doc["wall_seconds"]


def layer_metrics(
    spans: list[dict], *, time_limit: float, jobs: int
) -> dict[str, float]:
    """Every per-layer metric of one traced call (name -> value)."""
    telemetry = RunTelemetry.from_spans(spans).summary()
    # Windows that reached the solver ("empty" ones had nothing to
    # model, so no solve span).
    solves = [
        w["solve_seconds"]
        for w in telemetry["windows_detail"]
        if w["status"] != "empty"
    ]
    solve_s = math.fsum(solves)
    top10 = math.fsum(sorted(solves, reverse=True)[:10])
    tail_pct, tail_s = tail_percentile(solves)
    passes = telemetry["passes"]

    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for doc in spans:
        by_name.setdefault(doc["name"], []).append(doc)
        if doc.get("parent_id") is not None:
            children.setdefault(doc["parent_id"], []).append(doc)

    def walls(name: str) -> list[float]:
        return [d["wall_seconds"] for d in by_name.get(name, [])]

    def total(*names: str) -> float:
        return math.fsum(w for name in names for w in walls(name))

    # Self time: each pass's span minus the part its window children
    # cover (slice, cache probe, dirty check, guarded apply, objective).
    engine_self = 0.0
    windows_visited = 0
    for doc in by_name.get("distopt", []):
        inner = [
            (c["started_at"], _end(c))
            for c in children.get(doc["span_id"], [])
            if c["name"] == "window"
        ]
        engine_self += doc["wall_seconds"] - covered_seconds(
            doc["started_at"], _end(doc), inner
        )
        windows_visited += int(doc.get("attrs", {}).get("windows", 0))

    shards = by_name.get("shard", [])
    shard_walls = walls("shard")
    phase = (
        max(map(_end, shards)) - min(d["started_at"] for d in shards)
        if shards
        else 0.0
    )
    imbalance = (
        max(shard_walls) / (sum(shard_walls) / len(shard_walls))
        if shard_walls
        else 0.0
    )

    opt_wall = total("opt") or total("vm1_opt")
    busy = total("window")
    busy_pct = 100.0 * busy / (jobs * opt_wall) if opt_wall else 0.0

    return {
        "milp.solve_s": solve_s,
        "milp.solves": len(solves),
        "milp.solve_tail_ms": 1000.0 * tail_s,
        "milp.solve_tail_pctile": tail_pct,
        "milp.solve_max_s": max(solves, default=0.0),
        "milp.top10_share": top10 / solve_s if solve_s else 0.0,
        "milp.tl_hits": sum(1 for s in solves if s >= time_limit),
        "milp.presolve_s": telemetry["seconds"]["presolve"],
        "core.build_s": telemetry["seconds"]["build"],
        "core.engine_self_s": engine_self,
        "core.engine_self_ms_per_window": (
            1000.0 * engine_self / windows_visited
            if windows_visited
            else 0.0
        ),
        "core.passes": len(passes),
        "core.windows_built": sum(p["windows"] for p in passes),
        "core.windows_skipped_clean": sum(
            p["windows_skipped_clean"] for p in passes
        ),
        "core.windows_cached": sum(p["cache_hits"] for p in passes),
        "core.windows_applied": sum(p["applied"] for p in passes),
        "core.windows_failed": sum(
            telemetry["windows"][status] for status in FAILED_OUTCOMES
        ),
        "shard.plan_s": total("shard_plan"),
        "shard.phase_s": phase,
        "shard.imbalance": imbalance,
        "shard.seam_s": total("seam"),
        "shard.stitch_verify_s": total("stitch_verify"),
        "runtime.worker_busy_pct": busy_pct,
        "netlist.generate_s": total("generate"),
        "placement.place_s": total("place"),
        "routing.route_s": total("route_init", "route_final"),
    }

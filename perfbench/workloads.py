"""The benchmark's two workloads: set-up, the timed call, the checks.

Each workload calls a public entry point of ``repro`` on a pinned
input, so every run does the same work and the counts and quality
metrics can repeat exactly; only the host varies.

- ``openm1_shards``: the OpenM1 flow at scale 0.06 (741 cells) as four
  process-parallel shards plus a seam pass, with durable shard
  checkpoints.  Its slowest window ends near the 5 s solve limit.
- ``synth_tail``: ``vm1_opt`` alone on a 1000-cell Rent's-rule design
  with a single-row parameter set and no grid shift: the incremental
  engine's converged tail.  The engine's self time is its largest
  layer.  Design generation and placement are set-up here, not part
  of the timed call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.check.oracle import check_legal, oracle_objective
from repro.core.distopt import DRIFT_TOLERANCE
from repro.core.params import OptParams, ParamSet
from repro.core.vm1opt import vm1_opt
from repro.flow import FlowConfig, run_flow
from repro.library import build_library
from repro.obs.trace import span
from repro.placement import place_design
from repro.routing import DetailedRouter, RouterConfig
from repro.shard.synth import generate_scaled_design
from repro.tech import CellArchitecture, make_tech

#: Per-window MILP wall-clock limit of every workload (seconds).
TIME_LIMIT = 5.0


@dataclass
class Outcome:
    """What one timed call produced, in the terms the checks need."""

    design: object
    params: OptParams
    initial_objective: float
    final_objective: float
    #: routing of the placement before and after the call.
    init_route: object = None
    final_route: object = None
    #: bytes of durable shard checkpoints the call wrote.
    checkpoint_bytes: int = 0


def _pct(init: float, final: float) -> float:
    return 100.0 * (final - init) / abs(init)


def quality(outcome: Outcome) -> dict[str, float]:
    """The quality metrics of one call (absolute dM1 count, no ratio
    over a count that can be near zero)."""
    init, final = outcome.init_route, outcome.final_route
    return {
        "objective_delta_pct": _pct(
            outcome.initial_objective, outcome.final_objective
        ),
        "dm1_added": final.num_dm1 - init.num_dm1,
        "rwl_delta_pct": _pct(
            init.routed_wirelength, final.routed_wirelength
        ),
        "via12_delta_pct": _pct(init.num_via12, final.num_via12),
    }


def _flow_outcome(result) -> Outcome:
    return Outcome(
        design=result.design,
        params=result.config.resolved_params(result.design.tech),
        initial_objective=result.opt.initial_objective,
        final_objective=result.opt.final_objective,
        init_route=result.init_route,
        final_route=result.final_route,
    )


class Workload:
    """Set-up (counted in ``setup_s``), the timed call, and untimed
    work after it."""

    name = ""
    #: worker budget of the call (the busy-share denominator).
    jobs = 1

    def setup(self):
        return None

    def call(self, state, workdir: Path) -> Outcome:
        raise NotImplementedError

    def complete(self, state, outcome: Outcome) -> None:
        """Fill what the call did not measure (default: nothing)."""


class OpenM1Shards(Workload):
    name = "openm1_shards"
    jobs = 2

    def call(self, state, workdir: Path) -> Outcome:
        ckpt = workdir / "shards"
        outcome = _flow_outcome(
            run_flow(
                FlowConfig(
                    profile="aes",
                    arch=CellArchitecture.OPEN_M1,
                    scale=0.06,
                    seed=1,
                    time_limit=TIME_LIMIT,
                    jobs=self.jobs,
                    shards=4,
                ),
                shard_checkpoint_dir=ckpt,
            )
        )
        outcome.checkpoint_bytes = sum(
            p.stat().st_size for p in ckpt.rglob("*") if p.is_file()
        )
        return outcome


class SynthTail(Workload):
    name = "synth_tail"

    def __init__(self, num_instances: int = 1000) -> None:
        self.num_instances = num_instances

    def setup(self):
        arch = CellArchitecture.CLOSED_M1
        with span("generate"):
            tech = make_tech(arch)
            design = generate_scaled_design(
                self.num_instances, tech, build_library(tech), seed=1
            )
        with span("place"):
            place_design(design, seed=1)
        params = OptParams.for_arch(
            arch,
            sequence=(ParamSet.square(1.0, 3, 0),),
            theta=1e-5,
            time_limit=TIME_LIMIT,
        )
        return design, params, design.placement_snapshot()

    def call(self, state, workdir: Path, solver=None) -> Outcome:
        design, params, _ = state
        result = vm1_opt(
            design, params, solver=solver, enable_shift=False
        )
        return Outcome(
            design=design,
            params=params,
            initial_objective=result.initial_objective,
            final_objective=result.final_objective,
        )

    def complete(self, state, outcome: Outcome) -> None:
        """Route the final and the initial placement (the flows route
        both themselves), leaving the final placement in place."""
        design, _, initial = state
        final = design.placement_snapshot()
        outcome.final_route = DetailedRouter(design, RouterConfig()).route()
        design.restore_placement(initial)
        outcome.init_route = DetailedRouter(design, RouterConfig()).route()
        design.restore_placement(final)


WORKLOADS = {
    w.name: w for w in (OpenM1Shards(), SynthTail())
}


def check(outcome: Outcome) -> list[str]:
    """Independent checks of one call's output; empty when it passed."""
    errors = [f"illegal: {e}" for e in check_legal(outcome.design)]
    oracle = oracle_objective(outcome.design, outcome.params)
    drift = abs(oracle - outcome.final_objective)
    if drift > DRIFT_TOLERANCE:
        errors.append(
            f"oracle objective {oracle!r} differs from reported "
            f"{outcome.final_objective!r} by {drift:.3e}"
        )
    return errors


def placement_digest(design) -> str:
    """Content hash of the final placement (names sorted)."""
    snapshot = design.placement_snapshot()
    text = "\n".join(
        f"{name} {x} {y} {orient.value}"
        for name, (x, y, orient) in sorted(snapshot.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]

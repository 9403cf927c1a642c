"""Tests for repro.core.placeindex — the row-bucketed neighborhood
index DistOpt queries once per window.

* Property: after random legal moves and reverts applied through the
  engine's own path (the guarded apply, then ``index.update`` of the
  window's movables when the apply stuck), a query equals a brute-force
  ``bbox.overlaps_open`` scan, in ``design.instances`` order.
* Equivalence: ``window_slice`` and the cache signature's movable set
  and net read-set equal the full-scan definitions they replaced, on
  all three architectures.
* Work count: the instances a query examines per window stay bounded
  as the design grows tenfold.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptParams
from repro.core.distopt import DistOptResult, _apply_guarded
from repro.core.formulation import (
    probe_rect,
    window_movables,
    window_slice,
)
from repro.core.placeindex import PlacementIndex
from repro.core.window import partition
from repro.core.windowcache import WindowSolveCache
from repro.geometry import Rect
from repro.library import build_library
from repro.netlist import generate_design
from repro.placement import place_design
from repro.runtime import WindowTaskResult
from repro.shard.synth import generate_scaled_design
from repro.tech import CellArchitecture, make_tech

ARCHS = (
    CellArchitecture.CONV_12T,
    CellArchitecture.CLOSED_M1,
    CellArchitecture.OPEN_M1,
)


def placed(arch, seed=2):
    tech = make_tech(arch)
    design = generate_design(
        "aes", tech, build_library(tech), scale=0.008, seed=seed
    )
    place_design(design, seed=1)
    return design


def brute_force(design, rect):
    return [
        name
        for name, inst in design.instances.items()
        if inst.bbox.overlaps_open(rect)
    ]


# ------------------------------------------------------------ property
DESIGN = placed(CellArchitecture.CLOSED_M1)
BASE = DESIGN.placement_snapshot()
PARAMS = OptParams.for_arch(CellArchitecture.CLOSED_M1)


def free_target(design, name, rng, taken):
    """A random legal (column, row, flipped) near ``name``'s current
    spot: on the grid, inside the die, overlapping no other cell and
    no target already chosen this step; None if none was found."""
    inst = design.instances[name]
    tech = design.tech
    width = inst.macro.width_sites
    col0, row0 = design.column_of(inst), design.row_of(inst)
    for _ in range(40):
        col = col0 + rng.randint(-6, 6)
        row = row0 + rng.randint(-1, 1)
        if not (
            0 <= col <= design.num_columns - width
            and 0 <= row < design.num_rows
        ):
            continue
        x = design.die.xlo + col * tech.site_width
        y = design.die.ylo + row * tech.row_height
        rect = Rect(x, y, x + inst.width, y + inst.height)
        if any(
            other != name and o.bbox.overlaps_open(rect)
            for other, o in design.instances.items()
        ) or any(rect.overlaps_open(t) for t in taken):
            continue
        taken.append(rect)
        return col, row, rng.random() < 0.5
    return None


def random_rect(design, rng):
    die = design.die
    span = die.expanded(design.tech.row_height)
    x0, x1 = sorted(rng.randint(span.xlo, span.xhi) for _ in range(2))
    y0, y1 = sorted(rng.randint(span.ylo, span.yhi) for _ in range(2))
    return Rect(x0, y0, x1, y1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 25))
def test_query_matches_brute_force_after_engine_updates(seed, steps):
    design = DESIGN
    design.restore_placement(BASE)
    index = PlacementIndex(design)
    rng = random.Random(seed)
    names = [n for n, inst in design.instances.items() if not inst.fixed]
    for _ in range(steps):
        movable = rng.sample(names, rng.randint(1, 4))
        taken: list[Rect] = []
        moves = []
        for name in movable:
            if rng.random() < 0.3:
                continue  # an identity member of the window
            target = free_target(design, name, rng, taken)
            if target is not None:
                moves.append((name, *target))
        outcome = WindowTaskResult(
            task_id=0,
            nets=tuple(
                net.name
                for net in design.nets_of_instances(set(movable))
            ),
            movable=tuple(movable),
            moves=tuple(moves),
        )
        status, *_ = _apply_guarded(
            design, PARAMS, outcome, DistOptResult(objective=0.0)
        )
        if status == "applied":
            index.update(outcome.movable)
        assert design.check_legal() == []
        for _ in range(4):
            rect = random_rect(design, rng)
            got = [inst.name for inst in index.query(rect)]
            assert got == brute_force(design, rect)
    design.restore_placement(BASE)


def test_update_refiles_a_moved_cell():
    design = placed(CellArchitecture.CLOSED_M1)
    index = PlacementIndex(design)
    name = next(n for n, i in design.instances.items() if not i.fixed)
    inst = design.instances[name]
    old = inst.bbox
    # Overlap with other cells is irrelevant to the index.
    design.place(name, 0, design.num_rows - 1 - design.row_of(inst))
    index.update([name, name])  # the second one finds it filed
    for rect in (old, inst.bbox, design.die):
        assert [i.name for i in index.query(rect)] == brute_force(
            design, rect
        )


# --------------------------------------------------------- equivalence
def scan_neighborhood(design, window):
    """The full-scan definitions the index replaced."""
    probe = probe_rect(design, window)
    near = [
        inst
        for inst in design.instances.values()
        if inst.bbox.overlaps_open(probe)
    ]
    movable = {
        inst.name
        for inst in near
        if not inst.fixed and window.rect.contains_rect(inst.bbox)
    }
    return near, movable


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
def test_slice_and_signature_match_full_scan(arch):
    design = placed(arch)
    tech = design.tech
    index = PlacementIndex(design)
    bw, bh = 20 * tech.site_width, 4 * tech.row_height
    windows = partition(design, 0, 0, bw, bh) + partition(
        design, bw // 2, bh // 2, bw, bh
    )
    checked = 0
    for window in windows:
        near, movable = scan_neighborhood(design, window)
        hits = index.query(probe_rect(design, window))
        assert hits == near
        assert window_movables(window, hits) == movable

        nets = tuple(n.name for n in design.nets_of_instances(movable))
        digest, sig_nets = WindowSolveCache.signature_and_nets(
            design, window, hits
        )
        assert sig_nets == nets
        # The throwaway-index path hashes the same content.
        assert WindowSolveCache.signature(design, window) == digest

        sliced = window_slice(design, window, hits)
        if not movable:
            assert sliced is None
            continue
        checked += 1
        instances = [inst.name for inst in near]
        for net in design.nets_of_instances(movable):
            for ref in net.pins:
                if ref.instance not in instances:
                    instances.append(ref.instance)
        assert list(sliced.instances) == instances
        assert tuple(sliced.nets) == nets
        assert list(window_slice(design, window).instances) == instances
    assert checked > 0


# ---------------------------------------------------------- work count
def packed(num_instances):
    """A synth design packed row by row at its own utilization: cells
    are spread evenly over every row, so the density is the same at
    every size (geometry is all the index reads)."""
    tech = make_tech(CellArchitecture.CLOSED_M1)
    design = generate_scaled_design(
        num_instances, tech, build_library(tech), seed=1
    )
    rows = design.num_rows
    per_row = -(-len(design.instances) // rows)
    insts = list(design.instances.values())
    for row in range(rows):
        chunk = insts[row * per_row:(row + 1) * per_row]
        used = sum(inst.macro.width_sites for inst in chunk)
        gap = (design.num_columns - used) // (len(chunk) + 1) if chunk else 0
        col = gap
        for inst in chunk:
            design.place(inst.name, col, row)
            col += inst.macro.width_sites + gap
    assert design.check_legal() == []
    return design


def max_visits_per_window(design):
    tech = design.tech
    index = PlacementIndex(design)
    worst = 0
    for window in partition(
        design, 0, 0, 20 * tech.site_width, 4 * tech.row_height
    ):
        before = index.visited
        hits = index.query(probe_rect(design, window))
        visits = index.visited - before
        assert visits >= len(hits)
        worst = max(worst, visits)
    return worst


def test_query_work_is_bounded_as_the_design_grows():
    small = max_visits_per_window(packed(2_000))
    large = max_visits_per_window(packed(20_000))
    # Ten times the cells, the same density: the per-window work is
    # set by the probe area, not by the design size.
    assert small > 0
    assert large <= 1.25 * small

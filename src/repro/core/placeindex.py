"""Row-bucketed placement index: O(window) neighborhood queries.

DistOpt reads, per window, every instance whose bbox overlaps the
window's probe rect (the cache signature, the movable set and the
worker slice all start from that set).  A scan over
``design.instances`` makes every window cost O(design); this index
makes it cost O(neighborhood).

Layout: each row (``(y - die.ylo) // row_height``) maps to its
instances as an x-sorted list of ``(x, order)`` keys, where ``order``
is the instance's position in ``design.instances``.  The largest cell
width and height are the query margins: a cell filed at ``(row, x)``
can only reach ``x + max_width`` and ``y + max_height``, so the
candidate rows and the bisected x range are bounded, and every
candidate is then tested exactly.  Hits come back in
``design.instances`` order, so a slice built from them is
input-identical to one built from a full scan.

Lifecycle in DistOpt: built once per pass, and after each applied
window :meth:`PlacementIndex.update` refiles that window's movable
cells (only the ones that actually moved are touched).  Reverted
windows restore their snapshot, so the filed positions stay right.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable

from repro.netlist.design import Design, Instance


class PlacementIndex:
    """Open-overlap rect queries over one design's placement."""

    def __init__(self, design: Design) -> None:
        self._ylo = design.die.ylo
        self._row_height = design.tech.row_height
        self._instances: list[Instance] = list(design.instances.values())
        self._order = {
            inst.name: order for order, inst in enumerate(self._instances)
        }
        self._max_width = max(
            (inst.width for inst in self._instances), default=0
        )
        self._max_height = max(
            (inst.height for inst in self._instances), default=0
        )
        #: row -> x-sorted ``(x, order)`` keys.
        self._rows: dict[int, list[tuple[int, int]]] = {}
        #: order -> the ``(row, x)`` the instance is filed under.
        self._filed: list[tuple[int, int]] = []
        for order, inst in enumerate(self._instances):
            row = self._row_of(inst.y)
            self._rows.setdefault(row, []).append((inst.x, order))
            self._filed.append((row, inst.x))
        for keys in self._rows.values():
            keys.sort()
        #: instances examined by :meth:`query` (a deterministic work
        #: count: hits plus the margin's near misses).
        self.visited = 0

    def _row_of(self, y: int) -> int:
        return (y - self._ylo) // self._row_height

    def query(self, rect) -> list[Instance]:
        """Instances whose bbox overlaps ``rect`` with positive area
        (``bbox.overlaps_open(rect)``), in ``design.instances`` order."""
        xlo, ylo, xhi, yhi = rect.xlo, rect.ylo, rect.xhi, rect.yhi
        instances = self._instances
        # A cell overlaps iff y > ylo - height and x > xlo - width;
        # the max extents bound both from below.
        first_row = self._row_of(ylo - self._max_height)
        last_row = self._row_of(yhi - 1)
        x_from = (xlo - self._max_width + 1,)
        x_to = (xhi,)
        hits: list[int] = []
        visited = 0
        rows = self._rows
        for row in range(first_row, last_row + 1):
            keys = rows.get(row)
            if not keys:
                continue
            start = bisect_left(keys, x_from)
            stop = bisect_left(keys, x_to, start)
            visited += stop - start
            for _, order in keys[start:stop]:
                inst = instances[order]
                if (
                    inst.x + inst.width > xlo
                    and inst.y < yhi
                    and inst.y + inst.height > ylo
                ):
                    hits.append(order)
        self.visited += visited
        hits.sort()
        return [instances[order] for order in hits]

    def update(self, names: Iterable[str]) -> None:
        """Refile the named instances whose placement changed since
        they were filed (unmoved ones cost one comparison)."""
        for name in names:
            order = self._order[name]
            inst = self._instances[order]
            row, x = self._filed[order]
            new_row = self._row_of(inst.y)
            if (new_row, inst.x) == (row, x):
                continue
            keys = self._rows[row]
            del keys[bisect_left(keys, (x, order))]
            insort(self._rows.setdefault(new_row, []), (inst.x, order))
            self._filed[order] = (new_row, inst.x)

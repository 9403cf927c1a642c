"""Cross-pass window-solve cache: skip windows whose content is
unchanged since their last *fixpoint* solve.

VM1Opt re-runs DistOpt over the same (or half-shifted) window grids
pass after pass; once a neighborhood settles, every later pass
rebuilds and re-solves a window only to conclude "no improving move"
again.  The cache remembers, per window key, a content hash of
everything the model build reads; when the hash matches, the build and
solve are skipped entirely.

Soundness — why skipping preserves the placement bit for bit:

* Only **fixpoint** outcomes are cached: windows whose solve ended
  ``OPTIMAL`` and whose guarded apply changed nothing (``no_move``) or
  was reverted (``reverted``).  The model build is a deterministic
  function of the hashed content, and a solve of the identical model
  with identical options is deterministic, so re-running such a window
  provably reproduces the same non-move.  Skipping it cannot change
  the placement — at *any* optimality gap.
* **Applied** windows are never cached: the next pass enumerates SCP
  candidates around the new positions and could move further.
* The content hash covers the probe neighborhood (every instance whose
  bbox can block sites in the window, with position/orientation/fixed
  state) plus the full pin ownership of every net touched by the
  window's movable cells — i.e. every input of
  :func:`~repro.core.formulation.build_window_model` that can vary
  between passes.  Window geometry and the (lx, ly, allow_flip)
  freedom are part of the key itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.formulation import probe_neighbors, window_movables
from repro.core.window import Window
from repro.netlist.design import Design, Instance

#: (window rect, lx, ly, allow_flip) — the per-window identity.
CacheKey = tuple[int, int, int, int, int, int, bool]


@dataclass(frozen=True)
class CacheToken:
    """A probe result: the key plus the content hash it saw.

    ``nets`` carries the touched-net names the signature scan derived
    (the nets of the window's movable cells) so a cache hit can mark
    the window clean in the dirty tracker with its exact read set —
    the hash itself does not preserve that structure.
    """

    key: CacheKey
    content: bytes
    nets: tuple[str, ...] = ()


#: Default LRU capacity.  Sized for full-chip shard runs: a shard's
#: working set is (windows per pass) x (distinct grid phases), a few
#: thousand at 100k cells; entries are ~60 bytes, so the cap bounds
#: the cache at a few MB instead of letting a long run grow without
#: limit.
DEFAULT_MAX_ENTRIES = 65_536


class WindowSolveCache:
    """Fixpoint cache over window solves (one instance per VM1Opt run).

    Protocol: call :meth:`probe` before building a window — a ``hit``
    means the window may be skipped outright.  After a solve whose
    outcome is a fixpoint (``no_move``/``reverted`` with an ``OPTIMAL``
    status), call :meth:`store` with the probe's token.

    Memory is bounded by a max-entry LRU policy (``max_entries``;
    probes refresh recency, stores evict the stalest entry at
    capacity).  Eviction is *safe* by the same argument that makes the
    cache sound: an evicted fixpoint merely re-solves to the identical
    non-move, so capacity changes performance, never placements.
    """

    def __init__(
        self, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        #: insertion/refresh order == LRU order (dicts are ordered).
        self._entries: dict[CacheKey, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def probe(
        self,
        design: Design,
        window: Window,
        *,
        lx: int,
        ly: int,
        allow_flip: bool,
        near: list[Instance] | None = None,
    ) -> tuple[bool, CacheToken]:
        """Hash the window's content (``near`` as in
        :meth:`signature_and_nets`); returns ``(hit, token)``."""
        key: CacheKey = (
            window.rect.xlo,
            window.rect.ylo,
            window.rect.xhi,
            window.rect.yhi,
            lx,
            ly,
            allow_flip,
        )
        content, nets = self.signature_and_nets(design, window, near)
        token = CacheToken(key=key, content=content, nets=nets)
        hit = self._entries.get(key) == content
        if hit:
            self.hits += 1
            # Refresh recency: re-insert at the most-recent end.
            self._entries[key] = self._entries.pop(key)
        return hit, token

    def note_miss(self) -> None:
        """Count a window that had to be built and solved."""
        self.misses += 1

    def store(self, token: CacheToken) -> None:
        """Remember a fixpoint outcome for the token's content."""
        if token.key in self._entries:
            self._entries.pop(token.key)
        elif len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[token.key] = token.content
        self.stores += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------ checkpoint state
    def export_state(self) -> list:
        """JSON-serializable snapshot of the cache entries.

        Counters (hits/misses/stores) are *not* exported — they are
        per-run observability, not solver state.
        """
        return [
            [list(key), content.hex()]
            for key, content in sorted(self._entries.items())
        ]

    def import_state(self, state: list) -> None:
        """Replace the entries with a snapshot from
        :meth:`export_state` (e.g. out of a resumed checkpoint)."""
        entries: dict[CacheKey, bytes] = {}
        for raw_key, content_hex in state:
            key: CacheKey = (
                int(raw_key[0]),
                int(raw_key[1]),
                int(raw_key[2]),
                int(raw_key[3]),
                int(raw_key[4]),
                int(raw_key[5]),
                bool(raw_key[6]),
            )
            entries[key] = bytes.fromhex(content_hex)
        if len(entries) > self.max_entries:
            # Snapshots are key-sorted (recency is not serialized);
            # keep the cap by dropping arbitrary-but-deterministic
            # overflow.  Dropped fixpoints just re-solve to non-moves.
            overflow = len(entries) - self.max_entries
            self.evictions += overflow
            for key in list(entries)[:overflow]:
                entries.pop(key)
        self._entries = entries

    @staticmethod
    def signature(design: Design, window: Window) -> bytes:
        """Content hash of everything the window build reads."""
        return WindowSolveCache.signature_and_nets(design, window)[0]

    @staticmethod
    def signature_and_nets(
        design: Design,
        window: Window,
        near: list[Instance] | None = None,
    ) -> tuple[bytes, tuple[str, ...]]:
        """The content hash plus the touched-net names it covered
        (the nets of the window's movable cells — the exact read set
        a dirty-tracker mark needs).

        ``near`` is the probe neighborhood (see
        :func:`~repro.core.formulation.window_slice`); without it a
        throwaway index answers the query.  The hashed text is one
        ``repr`` of the neighborhood's placement tuples (sorted by
        name) and the touched nets' pin placements.
        """
        if near is None:
            near = probe_neighbors(design, window)
        placed = sorted(
            (inst.name, inst.x, inst.y, inst.orientation.value,
             inst.fixed)
            for inst in near
        )
        nets = design.nets_of_instances(window_movables(window, near))
        pins = []
        for net in nets:
            for ref in net.pins:
                inst = design.instances[ref.instance]
                pins.append((
                    net.name, ref.instance, ref.pin, inst.x, inst.y,
                    inst.orientation.value,
                ))
        digest = hashlib.blake2b(
            repr((placed, pins)).encode(), digest_size=16
        )
        return digest.digest(), tuple(net.name for net in nets)

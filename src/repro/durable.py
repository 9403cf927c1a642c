"""Durable file replacement: the one write path for journals and
checkpoints (job store and shard store alike)."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: Path, text: str, *, chaos=None) -> None:
    """Replace ``path`` with ``text`` crash-safely.

    Write a same-directory temp file, fsync it, rename it over
    ``path``, then fsync the directory so the rename itself survives a
    power loss.  A reader (or a restarted process) sees the previous
    document or the new one, never a torn one.

    ``chaos`` is an optional fault controller: the ``fs.fsync`` site
    models the durability syscall failing mid-write.  The temp file is
    removed on any failure, so a faulted write leaves no debris and
    leaves the *previous* document intact (the rename never happens).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if (
                chaos is not None
                and chaos.check("fs.fsync", path.name) is not None
            ):
                raise OSError(f"chaos: fsync failed for {path.name}")
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)

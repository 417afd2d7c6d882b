"""Crash-safe file replacement for every file a command writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a text file for writing that replaces ``path`` only as a whole.

    The block writes to a temporary file in the same directory; when it
    finishes, the file is flushed to disk and moved over ``path`` with
    ``os.replace``, so a reader sees either the old file or the complete new
    one. If the block raises, the temporary file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

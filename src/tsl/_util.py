"""Small shared helpers: atomic output and float formatting."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip stable)."""
    return f"{x:.17g}"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

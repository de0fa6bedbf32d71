"""Atomic output files: the text goes to a temp file renamed over the target."""

import contextlib
import os
from pathlib import Path

from .errors import LexnetError


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8; on failure remove the temp file and name path."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")  # beside it: one file system
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temp.unlink()
        # the OSError names the temp file; report the requested path instead
        raise LexnetError(f"cannot write {path}: {exc.strerror or exc}") from exc

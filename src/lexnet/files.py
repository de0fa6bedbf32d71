"""Input and output files: the byte-order mark and TSV line rules, and atomic writes.

Inputs are read as UTF-8 without a leading byte-order mark; the registry,
edge list and node sidecar share one TSV line reader, which rejects a
mark anywhere else and the characters XML cannot carry. An output goes
to a temp file renamed over the target.
"""

import contextlib
import os
import re
from pathlib import Path
from typing import Iterator

from .errors import LexnetError, MalformedLineError

# The characters XML 1.0 cannot carry, not even as character references: a
# slug holding one would make a GraphML export that does not parse. A
# class reaching past U+00FF compiles to a table over the whole BMP
# (about 0.7 ms on CPython 3.11), so the first reader compiles the pattern
# and re caches it; a command that reads no TSV does not pay for it.
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]"


def read_text(path: str) -> str:
    """The UTF-8 text of path, without the byte-order mark some editors put first."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LexnetError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise LexnetError(f"cannot read {path}: {exc}") from exc


def tsv_records(content: str, width: int, where: str = "line") -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each record line of a TSV text.

    Lines end at LF, CR LF or CR, the ends that universal-newline reading
    turns into LF (``str.splitlines`` would also end one at U+000B, U+000C,
    U+001C-U+001E, U+0085, U+2028 and U+2029). Blank lines and lines
    starting with ``#`` are skipped. A record line must hold exactly
    ``width`` tab-separated fields and no U+FEFF: a mark inside a file is
    invisible, and in a slug it would name another node.
    Nor may it hold a character XML cannot carry (``_NOT_XML``). Each
    MalformedLineError names the line as ``{where} N``.
    """
    not_xml = re.compile(_NOT_XML)
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", content), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\ufeff" in raw:
            raise MalformedLineError(lineno, "byte-order mark (U+FEFF) inside the file", where)
        bad = not_xml.search(raw)
        if bad:
            raise MalformedLineError(lineno, f"character U+{ord(bad[0]):04X} not allowed", where)
        fields = raw.split("\t")
        if len(fields) != width:
            noun = "field" if width == 1 else "fields"
            raise MalformedLineError(
                lineno, f"expected {width} tab-separated {noun}, got {len(fields)}", where
            )
        yield lineno, [field.strip() for field in fields]


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

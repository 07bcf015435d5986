"""Small file-output helpers: atomic writes and fixed-precision floats."""

from __future__ import annotations

import os
import tempfile

# 17 significant digits round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"
# characters per write; 1 MiB slices write as fast as one whole-text write
WRITE_CHUNK = 1 << 20


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename over.

    The text goes out in ``WRITE_CHUNK`` slices.  The text layer encodes each
    write into a bytes copy, so a whole 4 MB Wigner grid file would otherwise
    be held twice.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            for start in range(0, len(text), WRITE_CHUNK):
                handle.write(text[start:start + WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

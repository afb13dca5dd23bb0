"""Files that appear whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None, binary: bool = False):
    """Open ``path`` for writing, UTF-8 text or (``binary``) bytes, through a
    temporary file beside it.

    The temporary file replaces ``path`` (``os.replace``) only when the block
    exits cleanly; if the block raises, it is removed and any earlier file at
    ``path`` is left as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline=newline)) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise

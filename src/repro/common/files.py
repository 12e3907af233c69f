"""Text files on disk: gzip-transparent opens and the one atomic write.

:func:`durable_write` is how every durable artifact reaches disk (store
entries, metrics and span snapshots, post-mortems, converted traces,
fuzz reports).  Other processes read those files back, so a reader must
see either the old file or the whole new one, never a torn write; lint
rule ATO001 holds every write-mode open in the fleet packages to this
(docs/linting.md).
"""

from __future__ import annotations

import contextlib
import gzip
import os
import tempfile
from typing import IO, Iterator


def open_text(path: str, mode: str = "r") -> IO[str]:
    """Open a text file, transparently gzipped when the path ends ``.gz``."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


@contextlib.contextmanager
def durable_write(path: str) -> Iterator[IO[str]]:
    """Yield a text handle whose contents replace ``path`` atomically.

    The handle writes a ``.tmp-*`` file in ``path``'s directory (created
    if missing) that keeps ``path``'s suffix, so a ``.gz`` target is
    gzipped.  On success the temp file is ``os.replace``-d onto
    ``path``; on any exception it is unlinked and ``path`` is untouched.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".tmp-", suffix=os.path.splitext(path)[1], dir=directory
    )
    os.close(fd)
    try:
        with open_text(tmp, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise

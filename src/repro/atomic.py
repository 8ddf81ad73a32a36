"""Atomic file replacement for state shared between processes.

Result-cache entries, telemetry-store manifests and benchmark emissions
are read while other threads or processes rewrite them.  Each write
goes to its own temporary file in the target's directory (``mkstemp``,
so concurrent writers never share one) and is renamed over the target
with ``os.replace``: a reader sees the old content or the new, never a
torn mix, and a writer killed mid-write leaves the old file intact.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Union


def write_atomic(path: Union[str, pathlib.Path], text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one atomic rename.

    It survives the death of the writing process, not a power loss:
    nothing is ``fsync``-ed, so after an OS crash or power cut ``path``
    may hold the old text, the new, or a partly written file.

    The temporary name starts with a dot and ends in ``.tmp`` so
    directory globs for the final suffix never see it.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise

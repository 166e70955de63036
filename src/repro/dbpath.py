"""Where the run database lives: the one owner of the ``--db`` /
``--no-db`` / ``REPRO_DB`` / ``REPRO_NO_DB`` precedence.

Kept apart from :mod:`repro.rundb` (which loads sqlite and the
recorders) so a command that may not record, such as ``repro serve
start --no-db``, can resolve the path without loading the database.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]


def default_db_path() -> Path:
    """``$XDG_DATA_HOME/repro/runs.sqlite`` (or the ``~/.local/share``
    equivalent) — the durable sibling of the result cache's
    ``~/.cache/repro``."""
    base = os.environ.get("XDG_DATA_HOME")
    root = Path(base) if base else Path.home() / ".local" / "share"
    return root / "repro" / "runs.sqlite"


def resolve_db_path(
    explicit: Optional[PathLike] = None,
    no_db: bool = False,
    default: bool = True,
) -> Optional[Path]:
    """Where recording should go, or ``None`` for "don't record".

    Precedence: ``no_db`` flag / ``REPRO_NO_DB`` env (off beats
    everything) > ``explicit`` (``--db``) > ``REPRO_DB`` env > the
    default path (only when ``default`` is true — library callers pass
    ``default=False`` so only deliberate configuration records).
    """
    if no_db or os.environ.get("REPRO_NO_DB"):
        return None
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("REPRO_DB")
    if env:
        return Path(env)
    return default_db_path() if default else None

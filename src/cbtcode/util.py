"""Small shared helpers."""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map fn over items in order: the per-session loop of the corpus stages."""
    return [fn(x) for x in items]


def corpus_fingerprint(session_ids: Sequence[str]) -> str:
    """Stable hex digest identifying the set of sessions a space was fit on."""
    joined = "\n".join(sorted(session_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

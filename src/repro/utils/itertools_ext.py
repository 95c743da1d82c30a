"""Tiny iterator helpers used across the package.

These mirror a few ``itertools`` recipes; they live here so the rest of the
code base can depend on a documented, tested behaviour (e.g. ``pairwise`` on
Python 3.9 where :func:`itertools.pairwise` does not exist yet).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar

__all__ = ["pairwise", "first", "argmax"]

T = TypeVar("T")


def pairwise(iterable: Iterable[T]) -> Iterator[Tuple[T, T]]:
    """Yield consecutive overlapping pairs ``(x0, x1), (x1, x2), ...``.

    >>> list(pairwise([1, 2, 3]))
    [(1, 2), (2, 3)]
    """
    iterator = iter(iterable)
    try:
        previous = next(iterator)
    except StopIteration:
        return
    for item in iterator:
        yield previous, item
        previous = item


def first(iterable: Iterable[T], default: Optional[T] = None) -> Optional[T]:
    """Return the first item of *iterable*, or *default* if it is empty."""
    for item in iterable:
        return item
    return default


def argmax(values: Sequence[T], key: Optional[Callable[[T], object]] = None) -> int:
    """Index of the maximum element (first one on ties)."""
    if len(values) == 0:
        raise ValueError("argmax of an empty sequence")
    keyfn = key if key is not None else (lambda x: x)
    best_index = 0
    best_key = keyfn(values[0])
    for index in range(1, len(values)):
        candidate = keyfn(values[index])
        if candidate > best_key:  # type: ignore[operator]
            best_key = candidate
            best_index = index
    return best_index


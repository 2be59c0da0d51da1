"""Partition arithmetic and enumeration.

A partition is a weakly decreasing tuple of nonnegative integers.  Every
polynomial family in this package is indexed by partitions of length <= r;
at module boundaries partitions are zero-padded to the ambient arity r.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterator, Sequence

Partition = tuple  # weakly decreasing tuple of nonnegative ints


def is_partition(parts: Sequence[int]) -> bool:
    return all(
        isinstance(p, int) and p >= 0 for p in parts
    ) and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate and return the canonical tuple form."""
    t = tuple(int(p) for p in parts)
    if not is_partition(t):
        raise ValueError(f"not a partition: {parts!r}")
    return t


def weight(m: Sequence[int]) -> int:
    return sum(m)


def pad(m: Sequence[int], r: int) -> Partition:
    """Zero-pad to length r (the canonical boundary representation)."""
    if len(m) > r:
        if any(p != 0 for p in m[r:]):
            raise ValueError(f"partition {m!r} longer than arity {r}")
        return tuple(m[:r])
    return tuple(m) + (0,) * (r - len(m))


def conjugate(m: Sequence[int]) -> Partition:
    """The conjugate partition: its part c is the length of column c + 1 of m."""
    return tuple(sum(1 for p in m if p > c) for c in range(m[0] if m else 0))


def trim(m: Sequence[int]) -> Partition:
    """Drop trailing zeros."""
    t = tuple(m)
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


def _parts_desc(n: int, max_part: int, slots: int) -> Iterator[tuple]:
    """Partitions of n with <= slots parts, parts <= max_part, descending lex."""
    if n == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        if first * slots < n:
            break
        for rest in _parts_desc(n - first, first, slots - 1):
            yield (first,) + rest


def enumerate_partitions(max_weight: int, r: int) -> list:
    """All partitions of weight <= max_weight and length <= r.

    Ordered by (weight, reverse-lexicographic) and padded to length r, so
    that derived reports are reproducible byte for byte.  The order within
    each weight class refines dominance from above.
    """
    if max_weight < 0 or r < 1:
        raise ValueError("need max_weight >= 0 and r >= 1")
    out = []
    for w in range(max_weight + 1):
        for p in _parts_desc(w, w, r):
            out.append(pad(p, r))
    return out


def count_partitions(max_weight: int, r: int, stop: int) -> int:
    """The number of partitions of weight <= max_weight and length <= r,
    counted lazily up to ``stop``: a larger count returns ``stop``."""
    parts = (p for w in range(max_weight + 1) for p in _parts_desc(w, w, r))
    return sum(1 for _ in islice(parts, stop))


def count_contained(m: Sequence[int]) -> int:
    """The number of partitions k contained in the partition m (k_j <= m_j),
    one part at a time: ways[v] counts the choices of k_1 .. k_j with k_j = v."""
    ways = [1] * (m[0] + 1) if m else [1]
    for mj in m[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][: mj + 1]
    return sum(ways)


def contains(m: Sequence[int], k: Sequence[int]) -> bool:
    """Componentwise containment k_j <= m_j after padding to a common length."""
    n = max(len(m), len(k))
    mm, kk = pad(m, n), pad(k, n)
    return all(kk[j] <= mm[j] for j in range(n))


def format_partition(m: Sequence[int]) -> str:
    """Serialize as comma-joined integers, e.g. "2,1,0"."""
    return ",".join(str(p) for p in m)


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition`; empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    return check_partition([int(tok) for tok in text.split(",")])

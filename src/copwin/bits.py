"""Bit-mask helpers for vertex sets.

Vertex sets are plain ``int`` masks internally (bit v set = vertex v in
the set) so game states hash and compare in a couple of machine words.
Public APIs convert to/from ``frozenset``.
"""
import itertools
from typing import Iterable, Iterator


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subsets_upto(n: int, k: int) -> list:
    """All subsets of {0..n-1} with at most k elements, as masks.

    Ordered by the lexicographic order of the ascending-element tuples
    (empty set first).  This is the canonical cop-move enumeration order
    used everywhere, so "first found" coincides with "lexicographically
    smallest cop set".
    """
    out = []

    def rec(start, mask, size):
        out.append(mask)
        if size == k:
            return
        for v in range(start, n):
            rec(v + 1, mask | (1 << v), size + 1)

    rec(0, 0, 0)
    return out


def subsets_of_size(n: int, k: int) -> list:
    """All subsets of {0..n-1} with exactly k elements, as masks, in the
    order ``subsets_upto`` lists them (lexicographic in the ascending tuples)."""
    return [mask_from(c) for c in itertools.combinations(range(n), k)]

"""Game-characterized directed width measures and a tree-width oracle.

The directed measures are reported as monotone-game cop numbers with an
explicit offset (the cited decompositions are defined through monotone
strategies); the plain cop number is exposed alongside via the solver.
``treewidth_exact`` is deliberately independent of all game code: it is
the other side of the bidirected cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .arena import INVISIBLE_FAST, INVISIBLE_LAZY, VISIBLE_FAST
from .certificates import Certificate
from .digraph import Digraph
from .errors import SizeLimitError
from .solver import DEFAULT_STATE_BUDGET, Outcome, cop_number

TREEWIDTH_MAX_N = 12


@dataclass(frozen=True)
class WidthReport:
    measure: str
    value: int
    variant: str
    monotone: bool
    offset: int
    cop_number: int
    outcome: Outcome

    @property
    def certificate(self) -> Optional[Certificate]:
        """The monotone cop win's certificate, built on first read."""
        return self.outcome.certificate

    def describe(self) -> str:
        off = f"{self.offset:+d}" if self.offset else "+0"
        return (
            f"{self.measure} = {self.value} "
            f"(monotone {self.variant} cop number {self.cop_number} {off})"
        )


def _game_width(d, measure, variant, offset, state_budget):
    res = cop_number(d, variant, monotone=True, state_budget=state_budget)
    return WidthReport(
        measure=measure,
        value=res.value + offset,
        variant=variant.name,
        monotone=True,
        offset=offset,
        cop_number=res.value,
        outcome=res.outcome,
    )


def dag_width(d: Digraph, state_budget: int = DEFAULT_STATE_BUDGET) -> WidthReport:
    """Monotone visible fast-robber cop number (offset 0)."""
    return _game_width(d, "dag-width", VISIBLE_FAST, 0, state_budget)


def kelly_width(d: Digraph, state_budget: int = DEFAULT_STATE_BUDGET) -> WidthReport:
    """Monotone invisible lazy-robber cop number (offset 0).

    This cop number is the minimum elimination width plus one, that is
    the Kelly-width (Hunter & Kreutzer, TCS 2008): the monotone search
    clears one vertex v per step with 1 + |B| cops, B the cleared
    vertices v reaches through the contamination, and its clearing
    order read backwards is an elimination ordering of width max |B|.
    """
    return _game_width(d, "kelly-width", INVISIBLE_LAZY, 0, state_budget)


def directed_path_width(d: Digraph, state_budget: int = DEFAULT_STATE_BUDGET) -> WidthReport:
    """Monotone invisible fast-robber cop number minus one.

    That is the directed vertex separation number (Barát 2006): the
    monotone search clears the vertices in a linear order, and the cops
    it needs are one more than the largest |{w in W : w has a
    predecessor outside W}| over the order's prefixes W.
    """
    return _game_width(d, "directed-path-width", INVISIBLE_FAST, -1, state_budget)


def width_by_name(name: str):
    try:
        return {
            "dagwidth": dag_width,
            "dag-width": dag_width,
            "kellywidth": kelly_width,
            "kelly-width": kelly_width,
            "dpw": directed_path_width,
            "directed-path-width": directed_path_width,
        }[name.lower()]
    except KeyError:
        raise ValueError(f"unknown width measure {name!r}") from None


# ---------------------------------------------------------------------------
# Independent undirected tree-width oracle
# ---------------------------------------------------------------------------

def treewidth_exact(n: int, edges: Iterable[Tuple[int, int]]) -> int:
    """Exact tree-width by dynamic programming over elimination orderings.

    States are subsets of already-eliminated vertices (2^n * n work), so
    n is capped at 12.  Shares no code with the game engine.  Convention:
    the empty graph has tree-width -1, a single vertex 0.
    """
    if n > TREEWIDTH_MAX_N:
        raise SizeLimitError(f"treewidth_exact handles n <= {TREEWIDTH_MAX_N}, got {n}")
    if n == 0:
        return -1
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop {{{u},{v}}} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {{{u},{v}}} out of range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    # deg_after(S, v): neighbours of v reachable through eliminated set S;
    # eliminating v after S costs |that set| and dp minimizes the max cost
    def cost(eliminated, v):
        seen = 1 << v
        frontier = adj[v]
        outside = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            if low & seen:
                continue
            seen |= low
            if low & eliminated:
                frontier |= adj[low.bit_length() - 1] & ~seen
            else:
                outside |= low
        return outside.bit_count()

    size = 1 << n
    dp = [0] * size
    for s in range(1, size):
        best = n
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            prev = dp[s ^ low]
            c = cost(s ^ low, v)
            w = prev if prev > c else c
            if w < best:
                best = w
        dp[s] = best
    return dp[size - 1]

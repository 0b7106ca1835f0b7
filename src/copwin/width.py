"""Game-characterized directed width measures and a tree-width oracle.

The directed measures are reported as monotone-game cop numbers with an
explicit offset (the cited decompositions are defined through monotone
strategies); the plain cop number is exposed alongside via the solver.
``treewidth_exact`` is deliberately independent of all game code: it is
the other side of the bidirected cross-check.

One strong component at a time.  Each measure's cop number is solved
on the strong components of at least 2 vertices, each by
``cop_number(D[S], monotone=True, min_k=2)`` (the cycle lemma in
``solver.gap``: such a component needs 2 cops), and is their maximum;
a graph without one gets 1, or 0 when it is empty.  The cited
decompositions give the same reduction (Berwanger et al., "The
DAG-width of directed graphs", JCTB 2012; Hunter & Kreutzer, "Digraph
measures", TCS 2008).  Write c(D) for the monotone cop number of one
of the three games.  A singleton component needs 1 cop, placed on
it, and the empty graph none, so it suffices to show that c(D) is the
maximum of c(D[S]) over all strong components S (D nonempty).

The fact used throughout: a path of D between two vertices of S lies
in S, since every vertex on it is reached from S and reaches S.

Lower bound, c(D[S]) <= c(D).  This fails for arbitrary induced
subgraphs (see ``test_vertex_deletion_never_raises_the_cop_number``)
but holds for a strong component.

* Visible: the cops on D[S] play C & S, C their monotone strategy on
  D against a robber on D who copies the one on D[S].  A run of the
  D[S] robber avoiding C & C' & S is a path in S, so it avoids C & C':
  every landing spot on D[S] is one on D, and the D strategy, which
  wins, wins on D[S].  By the fact, the D[S] territory at r (what r
  reaches in D[S] avoiding C & S) is the D territory at r intersected
  with S, so it never grows either.
* Invisible: ``engine`` shows that the monotone cop number is the least
  over clearing orders v_1..v_n of the largest step cost, where the
  step clearing v_i with W = {v_1..v_(i-1)} cleared costs 1 + |B|
  (inert; B the W-vertices with an arc from the vertices v_i reaches
  avoiding W) or 1 + |dR| (fast; dR the W-vertices with a predecessor
  outside W).  Restrict an order of V to S.  The step at v_i in D[S]
  has cleared set W & S; what v_i reaches avoiding it inside D[S] is
  a subset of what it reaches avoiding W in D, and a predecessor in
  S - W is one outside W, so its B or dR is a subset of the one in D.
  Restricting never raises a step's cost (for any induced subgraph,
  in fact).

Upper bound, c(D) <= max c(D[S]).

* Invisible: clear the components in topological order (a component
  before every component it reaches, ``digraph.scc`` reversed), each
  in its own best order.  At a step inside S every earlier component
  is cleared and every later one, all those S reaches included, is
  not.  Inert: an arc from a vertex x that v_i reaches to a cleared w
  puts x on a path from S to w; w is in S or in an earlier component,
  which S does not reach, so w, and by the fact x, is in S.  Fast: a
  cleared w has its predecessors in its own component or earlier
  ones, so one outside W is in S - W, and w is in S.  Either way the
  step's B or dR is that of the same step in D[S].
* Visible: when the robber is first at a vertex r of a component S,
  the cops start the D[S] strategy from (empty set, r).  Its first
  move lifts every cop they have, all in components that reach S and
  that S does not reach, so its guard is empty, as at a start, and
  the robber's territory (all he reaches) does not grow.  While he
  stays in S the cops stand in S, his runs inside S are those of
  D[S], and his territory is the D[S] one plus what it reaches
  outside S, where no cop stands and from where no arc leads back:
  its boundary cops are those of the D[S] territory.  A monotone move
  of D[S] keeps them (the boundary rule in ``engine``), so the robber
  stays in his territory on D too.  If he leaves S, he enters a
  component that S reaches, and the cops start again there.  The
  condensation is acyclic, so the play ends in a capture, with at
  most the largest c(D[S]) cops.

Each component is solved under its own ``state_budget``, so a graph
whose whole-graph solve exceeded the budget may now get its value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .arena import INVISIBLE_FAST, INVISIBLE_LAZY, VISIBLE_FAST
from .digraph import Digraph, induced_subgraph, scc
from .errors import SizeLimitError
from .solver import DEFAULT_STATE_BUDGET, cop_number

TREEWIDTH_MAX_N = 12


@dataclass(frozen=True)
class WidthReport:
    measure: str
    value: int
    variant: str
    monotone: bool
    offset: int
    cop_number: int


def _game_width(d, measure, variant, offset, state_budget):
    # the maximum over the strong components of at least 2 vertices (see
    # the module docstring); one of s vertices is worth at most s cops
    # (n cops always win), so it is solved only if it can raise the value
    value = 1 if d.n else 0
    for comp in scc(d):
        if len(comp) > value:
            sub = d if len(comp) == d.n else induced_subgraph(d, comp)[0]
            value = max(value, cop_number(sub, variant, True, state_budget, min_k=2).value)
    return WidthReport(
        measure=measure,
        value=value + offset,
        variant=variant.name,
        monotone=True,
        offset=offset,
        cop_number=value,
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


# The measures by their names on the command line, each to the name of
# its function here.  ``cli`` looks the function up when it runs, so a
# wrapper bound to that name later (perfbench's tracer) is the one called.
WIDTHS = {"dagwidth": "dag_width", "kellywidth": "kelly_width", "dpw": "directed_path_width"}


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

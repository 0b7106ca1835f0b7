"""Exact desk-scale solvers for classic hard digraph problems.

Every solver is exact with an explicit instance-size precondition; the
point of this module is oracle-grade ground truth next to instances
whose game-measured width is small.  Where two independent routes
exist (feedback-arc ordering DP vs ordering branch-and-bound plus
witness validator, subset-DP Hamiltonicity vs permutation brute force,
equivalent-subgraph search vs transitive reduction on DAGs) both are
exposed so they can be played against each other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .bits import iter_bits, mask_from
from .digraph import (
    Digraph,
    acyclic_mask,
    closure_masks,
    component_masks,
    induced_subgraph,
    is_acyclic,
    reach_mask,
    scc,
)
from .errors import SizeLimitError, StateBudgetExceededError
from .solver import DEFAULT_STATE_BUDGET
from .width import dag_width, kelly_width

HAMILTONIAN_MAX_N = 18
HAMILTONIAN_ORACLE_MAX_N = 8
FVS_MAX_N = 14
FAS_MAX_N = 9
FAS_MAX_M = 20
MES_MAX_N = 8


@dataclass(frozen=True)
class ProblemSolution:
    problem: str
    witness: Optional[tuple]
    value: int
    optimal: bool = True


# ---------------------------------------------------------------------------
# Hamiltonian cycle
# ---------------------------------------------------------------------------

def hamiltonian_cycle(d: Digraph) -> ProblemSolution:
    """Held-Karp subset DP over (visited set, endpoint), anchored at vertex 0.

    ``ends[s]``, for a vertex set s holding 0, is the set of v in s with
    a path from 0 through exactly the vertices of s that ends at v; v
    ends s iff one of its predecessors ends s - v.  The table is kept
    bit-sliced: one 2^(n-1)-bit integer per vertex, whose bit t says
    whether v ends the set 2t + 1 (vertex w >= 1 is bit w - 1 of t), so
    n * 2^(n-1) bits in all.  A round recomputes every vertex's integer
    from its predecessors' with big-integer ORs, one AND that keeps the
    sets without v, and a shift that adds v.  After round r every set of
    at most r + 1 vertices is final, so n - 1 rounds fill the table; a
    round that changes nothing has reached it early.

    Witness is the cycle as a vertex sequence starting at 0 (the closing
    arc back to 0 is implicit), read backwards from the table taking the
    smallest predecessor each time, or None: the search is exhaustive
    either way.  A digraph that is not strongly connected has no
    Hamiltonian cycle and is answered without the table.  n is capped
    at 18.
    """
    n = d.n
    if n > HAMILTONIAN_MAX_N:
        raise SizeLimitError(f"hamiltonian_cycle handles n <= {HAMILTONIAN_MAX_N}, got {n}")
    pred = d.pred_masks
    full = d.full_mask
    if n < 2 or reach_mask(d.succ_masks, 1, 0) != full or reach_mask(pred, 1, 0) != full:
        return ProblemSolution("hamiltonian_cycle", None, 0)
    ends = _path_ends(n, pred)

    def first_end(t, candidates):
        """The smallest vertex of ``candidates`` that ends the set 2t + 1."""
        for u in iter_bits(candidates):
            if ends[u] >> t & 1:
                return u
        return None

    t = (1 << (n - 1)) - 1
    v = first_end(t, pred[0] & ~1)
    if v is None:
        return ProblemSolution("hamiltonian_cycle", None, 0)
    path = [v]
    while len(path) < n:
        t ^= 1 << (v - 1)
        v = first_end(t, pred[v])
        path.append(v)
    path.reverse()
    return ProblemSolution("hamiltonian_cycle", tuple(path), n)


def _path_ends(n, pred):
    """The bit-sliced ``ends`` table of ``hamiltonian_cycle``, one integer per vertex."""
    width = 1 << (n - 1)
    ends = [1] + [0] * (n - 1)  # 0 ends only the set {0}
    rules = []
    for v in range(1, n):
        bit = 1 << (v - 1)
        # the sets t without v: bit v - 1 clear, the low half of each 2*bit block
        without = (1 << bit) - 1
        span = 2 * bit
        while span < width:
            without |= without << span
            span *= 2
        rules.append((v, bit, without, tuple(iter_bits(pred[v]))))
    for _ in range(n - 1):
        changed = False
        for v, bit, without, preds in rules:
            ended = 0  # the sets some predecessor of v ends
            for u in preds:
                ended |= ends[u]
            grown = (ended & without) << bit
            if grown != ends[v]:
                ends[v] = grown
                changed = True
        if not changed:
            break
    return ends


def hamiltonian_cycle_bruteforce(d: Digraph) -> bool:
    """Permutation oracle: try every rooted vertex order (n <= 8)."""
    n = d.n
    if n > HAMILTONIAN_ORACLE_MAX_N:
        raise SizeLimitError(
            f"permutation oracle handles n <= {HAMILTONIAN_ORACLE_MAX_N}, got {n}"
        )
    if n < 2:
        return False
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        if all(d.has_arc(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


def _is_vertex_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _distinct_arcs(witness):
    """The witness as a set of (u, v) tuples, or None unless it is a list or
    tuple of distinct (u, v) or [u, v] pairs of vertex ids."""
    if not isinstance(witness, (list, tuple)):
        return None
    arcs = set()
    for arc in witness:
        if not isinstance(arc, (list, tuple)) or len(arc) != 2 or not all(map(_is_vertex_id, arc)):
            return None
        arcs.add(tuple(arc))
    return arcs if len(arcs) == len(witness) else None


def validate_hamiltonian_witness(d: Digraph, witness) -> bool:
    """Whether ``witness``, a list or tuple of vertex ids, is a Hamiltonian cycle of D."""
    if not isinstance(witness, (list, tuple)) or not all(map(_is_vertex_id, witness)):
        return False
    if sorted(witness) != list(range(d.n)) or d.n < 2:
        return False
    return all(
        d.has_arc(witness[i], witness[(i + 1) % d.n]) for i in range(d.n)
    )


# ---------------------------------------------------------------------------
# Feedback vertex set
# ---------------------------------------------------------------------------

def min_feedback_vertex_set(d: Digraph) -> ProblemSolution:
    """Smallest S with D - S acyclic, by cardinality-increasing subset search."""
    n = d.n
    if n > FVS_MAX_N:
        raise SizeLimitError(f"min_feedback_vertex_set handles n <= {FVS_MAX_N}, got {n}")
    pred = d.pred_masks
    full = d.full_mask
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            drop = 0
            for v in combo:
                drop |= 1 << v
            if acyclic_mask(pred, full & ~drop):
                return ProblemSolution("feedback_vertex_set", tuple(combo), size)
    raise AssertionError("unreachable: deleting all vertices is acyclic")


# ---------------------------------------------------------------------------
# Feedback arc set
# ---------------------------------------------------------------------------

def min_feedback_arc_set(d: Digraph) -> ProblemSolution:
    """Smallest arc set whose deletion breaks every cycle.

    The value is the fewest backward arcs over vertex orderings, found
    by an ordering DP per cyclic strong component.  The witness is the
    first minimum set in ``itertools.combinations`` order over
    ``d.arcs``: scanning the arcs in order, an arc joins it iff the rest
    of the budget still suffices once it is deleted and every arc passed
    over so far must stay.  For sets of equal size that order is decided
    by the first arc in which they differ, so this greedy choice lands
    on the first combination that breaks every cycle.
    """
    if d.n > FAS_MAX_N and d.m > FAS_MAX_M:
        raise SizeLimitError(
            f"min_feedback_arc_set handles n <= {FAS_MAX_N} or m <= {FAS_MAX_M}; "
            f"got n={d.n}, m={d.m}"
        )
    succ = list(d.succ_masks)
    pred = list(d.pred_masks)
    kept = [0] * d.n  # per vertex, in-arcs that may not be deleted
    # every cycle runs through vertices with an in-arc and an out-arc:
    # at most m of them, however large n is
    core = mask_from(u for u, _ in d.arcs) & mask_from(v for _, v in d.arcs)
    value = budget = _backward_arc_number(succ, pred, kept, core, None)
    witness = []
    for u, v in d.arcs:
        if not budget:
            break
        succ[u] ^= 1 << v
        pred[v] ^= 1 << u
        if _backward_arc_number(succ, pred, kept, core, budget - 1) is not None:
            witness.append((u, v))
            budget -= 1
        else:
            succ[u] ^= 1 << v
            pred[v] ^= 1 << u
            kept[v] |= 1 << u
    return ProblemSolution("feedback_arc_set", tuple(witness), value)


def _backward_arc_number(succ, pred, kept, core, limit):
    """Fewest deletable backward arcs over orderings that keep every
    ``kept`` arc forward, or None if that exceeds ``limit`` (None: no limit).

    Every cycle lies inside ``core``: a vertex outside it lacks an in-arc
    or an out-arc, so no cycle, and no path between two other vertices,
    runs through it, and the strong components of D[core] include every
    one of D that holds an arc.  An arc between two
    strong components is forward in some optimal ordering, so each
    cyclic component is ordered on its own.  Without a limit, a
    component's bound is raised from 0 until its DP succeeds.
    """
    rows = {v: reach_mask(succ, 1 << v, ~core) for v in iter_bits(core)}
    total = 0
    for comp in component_masks(rows, core):
        if comp & (comp - 1) == 0:  # one vertex: no arc inside
            continue
        bound = 0 if limit is None else limit - total
        cost = _ordering_dp(comp, pred, kept, bound)
        while cost is None and limit is None:
            bound += 1
            cost = _ordering_dp(comp, pred, kept, bound)
        if cost is None:
            return None
        total += cost
    return total


def _ordering_dp(comp, pred, kept, bound):
    """Fewest backward arcs over orderings of ``comp``, or None above ``bound``.

    A state is the set S placed first, with the fewest arcs into S from
    vertices placed after it: those arcs are backward whatever follows,
    so states above ``bound`` are dropped.  Placing v next adds v's
    in-arcs from comp - S - v; a ``kept`` in-arc there forbids the move.
    """
    layer = {0: 0}
    for _ in range(comp.bit_count()):
        nxt = {}
        for placed, cost in layer.items():
            rest = comp ^ placed
            f = rest
            while f:
                low = f & -f
                f ^= low
                v = low.bit_length() - 1
                later = rest ^ low
                if kept[v] & later:
                    continue
                c = cost + (pred[v] & later).bit_count()
                if c <= bound:
                    t = placed | low
                    if c < nxt.get(t, c + 1):
                        nxt[t] = c
        if not nxt:
            return None
        layer = nxt
    return layer[comp]


def feedback_arc_number_by_orderings(d: Digraph) -> int:
    """Independent oracle: minimum backward arcs over all vertex orderings.

    Exhaustive recursion over orderings; branches whose partial backward
    count already matches the best known are cut, which never changes
    the minimum.  Equals the minimum feedback arc set size (deleting the
    backward arcs of an ordering is acyclic, and any acyclic remainder
    has a topological ordering).
    """
    n = d.n
    pred = d.pred_masks
    best = d.m

    def rec(unplaced, acc):
        nonlocal best
        if acc >= best:
            return
        if not unplaced:
            best = acc
            return
        f = unplaced
        while f:
            low = f & -f
            f ^= low
            rest = unplaced ^ low
            rec(rest, acc + (pred[low.bit_length() - 1] & rest).bit_count())

    rec(d.full_mask, 0)
    return best


def validate_feedback_witness(d: Digraph, solution: ProblemSolution) -> bool:
    """Whether the witness, distinct vertex ids of D (feedback vertex set) or
    distinct arcs of D as (u, v) or [u, v] pairs (feedback arc set), leaves D acyclic."""
    if solution.problem not in ("feedback_vertex_set", "feedback_arc_set"):
        raise ValueError(f"not a feedback solution: {solution.problem}")
    witness = solution.witness
    if not isinstance(witness, (list, tuple)):
        return False
    if solution.problem == "feedback_vertex_set":
        if not all(map(_is_vertex_id, witness)):
            return False
        dropped = set(witness)
        if len(dropped) != len(witness) or not dropped <= set(range(d.n)):
            return False
        sub, _ = induced_subgraph(d, [v for v in range(d.n) if v not in dropped])
        return is_acyclic(sub)
    dropped = _distinct_arcs(witness)
    if dropped is None or not dropped <= d.arc_set:
        return False
    return is_acyclic(Digraph(d.n, [a for a in d.arcs if a not in dropped]))


# ---------------------------------------------------------------------------
# Minimum equivalent subgraph
# ---------------------------------------------------------------------------

def min_equivalent_subgraph(d: Digraph) -> ProblemSolution:
    """Fewest arcs of D whose transitive closure equals D's.

    Arcs whose single deletion already changes the closure are in every
    equivalent subgraph (closure is monotone in the arc set), so the
    search runs over the remaining optional arcs only, by increasing
    kept-count.  It starts at the count that tops the mandatory arcs up
    to ``mes_lower_bound(d)``: no smaller subgraph is equivalent.  For
    each count c a depth-first search picks c optional arcs in index
    order, so its leaves come in ``itertools.combinations`` order, and
    each leaf is checked against D's closure.

    The search cuts a branch only when no leaf below it is equivalent.
    If u reaches another vertex in D, an equivalent H has an arc out of
    u (the first step of that path); if another vertex reaches v, H has
    an arc into v.  A branch is cut when more vertices still lack such
    an out-arc (or in-arc), given the mandatory and the picked arcs,
    than arcs are left to pick (an arc gives at most one of each), or
    when one of them has no out-arc (in-arc) among the optional arcs not
    yet passed.  Pruning skips only subtrees with no equivalent leaf, so
    the first equivalent leaf found in DFS order is the first equivalent
    set of the smallest size in ``combinations`` order.
    """
    if d.n > MES_MAX_N:
        raise SizeLimitError(f"min_equivalent_subgraph handles n <= {MES_MAX_N}, got {d.n}")
    target = closure_masks(d)
    succ = list(d.succ_masks)
    mandatory = []
    optional = []
    for arc in d.arcs:
        u, v = arc
        succ[u] ^= 1 << v
        (optional if _closure_equals(succ, target) else mandatory).append(arc)
        succ[u] ^= 1 << v
    need_out = need_in = 0
    for u, row in enumerate(target):
        others = row & ~(1 << u)
        if others:
            need_out |= 1 << u
            need_in |= others
    h_succ = [0] * d.n  # H's rows: the mandatory arcs, then the picked ones
    for u, v in mandatory:
        h_succ[u] |= 1 << v
        need_out &= ~(1 << u)
        need_in &= ~(1 << v)
    # tails[i] / heads[i]: the vertices with an arc out of / into them in optional[i:]
    m = len(optional)
    tails = [0] * (m + 1)
    heads = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        u, v = optional[i]
        tails[i] = tails[i + 1] | 1 << u
        heads[i] = heads[i + 1] | 1 << v
    kept = []

    def search(start, left, lack_out, lack_in):
        if (lack_out.bit_count() > left or lack_in.bit_count() > left
                or lack_out & ~tails[start] or lack_in & ~heads[start]):
            return False
        if not left:
            return _closure_equals(h_succ, target)
        for i in range(start, m - left + 1):
            u, v = arc = optional[i]
            h_succ[u] |= 1 << v
            kept.append(arc)
            if search(i + 1, left - 1, lack_out & ~(1 << u), lack_in & ~(1 << v)):
                return True
            h_succ[u] ^= 1 << v
            kept.pop()
        return False

    for keep_count in range(max(0, mes_lower_bound(d) - len(mandatory)), m + 1):
        if search(0, keep_count, need_out, need_in):
            witness = tuple(sorted(mandatory + kept))
            return ProblemSolution("minimum_equivalent_subgraph", witness, len(witness))
    raise AssertionError("unreachable: keeping every optional arc restores D")


def mes_lower_bound(d: Digraph) -> int:
    """A lower bound on the minimum equivalent subgraph's arc count.

    An equivalent subgraph H has D's closure, so D's strong components.
    A path between two vertices of one component stays inside it, so H
    keeps each component of s >= 2 vertices strongly connected, which
    takes at least s arcs, one into each vertex.  For an arc A -> B of
    the transitive reduction of the condensation, a path from A to B in
    H can pass through no third component (it would be an alternative
    route), so H has an arc from A to B; these arcs join distinct
    component pairs and lie outside every component.
    """
    comps = scc(d)
    comp_of = [0] * d.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    cross = {(comp_of[u], comp_of[v]) for u, v in d.arcs if comp_of[u] != comp_of[v]}
    condensation = Digraph(len(comps), cross)
    inside = sum(len(comp) for comp in comps if len(comp) > 1)
    return inside + len(transitive_reduction_dag(condensation))


def _closure_equals(succ, target):
    """Whether every vertex reaches exactly its ``target`` row along ``succ``."""
    for u, row in enumerate(target):
        if reach_mask(succ, 1 << u, 0) != row:
            return False
    return True


def transitive_reduction_dag(d: Digraph) -> Tuple[Tuple[int, int], ...]:
    """Unique minimum equivalent subgraph of an acyclic digraph.

    An arc (u,v) is redundant iff another out-neighbour of u already
    reaches v; on a DAG no such alternative route can revisit u, so
    dropping all redundant arcs at once is sound.
    """
    if not is_acyclic(d):
        raise ValueError("transitive reduction requires an acyclic digraph")
    closure = closure_masks(d)
    keep = []
    for u, v in d.arcs:
        others = d.succ_masks[u] & ~(1 << v)
        redundant = False
        f = others
        while f:
            low = f & -f
            f ^= low
            if closure[low.bit_length() - 1] >> v & 1:
                redundant = True
                break
        if not redundant:
            keep.append((u, v))
    return tuple(keep)


def validate_mes_witness(d: Digraph, solution: ProblemSolution) -> bool:
    """Whether the witness, distinct arcs of D as (u, v) or [u, v] pairs, keeps D's closure."""
    arcs = _distinct_arcs(solution.witness)
    if arcs is None or not arcs <= d.arc_set:
        return False
    return closure_masks(Digraph(d.n, arcs)) == closure_masks(d)


# ---------------------------------------------------------------------------
# Width-annotated instance report
# ---------------------------------------------------------------------------

REPORT_FIELDS = (
    "instance",
    "n",
    "m",
    "dagwidth",
    "kellywidth",
    "fvs",
    "fas",
    "ham",
    "mes",
    "status",
)


def width_annotated_report(
    instances: Iterable[Tuple[str, Digraph]],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> List[dict]:
    """One row per instance joining problem objectives with game widths.

    Size-limit and budget failures are recorded in the row's status and
    leave the affected cell empty; the report always completes.
    """
    rows = []
    for name, d in instances:
        row = {f: None for f in REPORT_FIELDS}
        row["instance"] = name
        row["n"] = d.n
        row["m"] = d.m
        notes = []

        def attempt(field, fn):
            try:
                row[field] = fn()
            except SizeLimitError:
                notes.append(f"{field}:size-limit")
            except StateBudgetExceededError:
                notes.append(f"{field}:budget-exceeded")

        attempt("dagwidth", lambda: dag_width(d, state_budget).value)
        attempt("kellywidth", lambda: kelly_width(d, state_budget).value)
        attempt("fvs", lambda: min_feedback_vertex_set(d).value)
        attempt("fas", lambda: min_feedback_arc_set(d).value)
        attempt("ham", lambda: 1 if hamiltonian_cycle(d).witness else 0)
        attempt("mes", lambda: min_equivalent_subgraph(d).value)
        row["status"] = "ok" if not notes else ";".join(notes)
        rows.append(row)
    return rows

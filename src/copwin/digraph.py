"""Directed-graph data model, edge-list I/O, and structure primitives.

All digraphs are finite and simple: no self-loops, no duplicate arcs.
Vertices are dense 0-based integers, so isolated vertices are allowed
and every vertex set can be carried as a bit mask.  Instances are
immutable and safe to share across threads; every operation here is a
pure function.
"""
from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, Tuple

from .bits import iter_bits
from .errors import EdgeListParseError


class Digraph:
    """Immutable simple digraph on vertices 0..n-1."""

    __slots__ = ("_n", "_arcs", "_arc_set", "_succ", "_pred", "_hash")

    def __init__(self, n: int, arcs: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # cheap checks first; on a fault, _check_arcs raises for the first
        # faulty arc in the given order (a repeat may come before this one)
        arc_list = []
        succ = [0] * n
        pred = [0] * n
        for u, v in arcs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                _check_arcs(n, arc_list + [(u, v)])
            arc_list.append((u, v))
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        arc_set = frozenset(arc_list)
        if len(arc_set) != len(arc_list):
            _check_arcs(n, arc_list)
        # the arcs in lexicographic order, read off the rows
        arc_list = []
        for u in range(n):
            f = succ[u]
            while f:
                low = f & -f
                arc_list.append((u, low.bit_length() - 1))
                f ^= low
        self._n = n
        self._arcs = tuple(arc_list)
        self._arc_set = arc_set
        self._succ = tuple(succ)
        self._pred = tuple(pred)
        self._hash = hash((n, self._arcs))

    @property
    def n(self) -> int:
        return self._n

    @property
    def arcs(self) -> Tuple[Tuple[int, int], ...]:
        """Arcs in ascending lexicographic order."""
        return self._arcs

    @property
    def arc_set(self) -> FrozenSet[Tuple[int, int]]:
        return self._arc_set

    @property
    def m(self) -> int:
        return len(self._arcs)

    @property
    def succ_masks(self) -> Tuple[int, ...]:
        """Out-neighbourhoods as bit masks, indexed by vertex."""
        return self._succ

    @property
    def pred_masks(self) -> Tuple[int, ...]:
        return self._pred

    @property
    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arc_set

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._arcs == other._arcs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Digraph(n={self._n}, m={len(self._arcs)})"


def _check_arcs(n, arcs):
    """Raise ValueError for the first arc, in the given order, that is out
    of range, a self-loop or a repeat."""
    seen = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) not allowed in a simple digraph")
        if (u, v) in seen:
            raise ValueError(f"duplicate arc ({u},{v})")
        seen.add((u, v))


# ---------------------------------------------------------------------------
# Edge-list v1 format
# ---------------------------------------------------------------------------

# Largest vertex count a file may declare or imply: a count is read before
# any arc, and a Digraph allocates per-vertex tables for it.
MAX_VERTICES = 1 << 20
# Digits of MAX_VERTICES: a count or id with more, leading zeros aside, is
# out of range, and int() refuses one of more than 4,300 digits outright.
_MAX_DIGITS = len(str(MAX_VERTICES))


def parse_edge_list(text: str) -> Digraph:
    r"""Parse the line-oriented edge-list v1 format.

    Lines end at ``\n`` only; other whitespace, a trailing ``\r`` say,
    separates fields.  Comment lines start with ``#``.  An
    optional first non-comment line ``n <count>`` declares the vertex
    count; otherwise it is inferred as 1 + the largest id seen (0 for an
    empty input).  Every other line is one arc ``u v``.  Counts and ids
    are ASCII decimal digits.  Self-loops, duplicate arcs, ids at or
    above a declared count, and counts or ids implying more than
    ``MAX_VERTICES`` vertices are hard errors.
    """
    declared_n = None
    limit = MAX_VERTICES  # ids must stay below it: the declared count, once read
    arcs = {}  # arc -> line number, in file order
    for line_no, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "n":
            if arcs or declared_n is not None:
                raise EdgeListParseError("header 'n <count>' must be the first data line", line_no)
            if len(parts) != 2:
                raise EdgeListParseError(f"malformed header {raw.strip()!r}", line_no)
            count = parts[1]
            if not _decimal(count):
                raise EdgeListParseError(
                    "vertex count must be non-negative" if _decimal(count.removeprefix("-"))
                    else f"malformed vertex count {count!r}", line_no)
            count = count.lstrip("0") or "0"
            if len(count) > _MAX_DIGITS or int(count) > MAX_VERTICES:
                raise EdgeListParseError(
                    f"vertex count {count} exceeds the limit of {MAX_VERTICES}", line_no
                )
            declared_n = limit = int(count)
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"malformed arc line {raw.strip()!r}", line_no)
        a, b = parts
        # int() also takes '+1', '1_0' and non-ASCII digits: ids are [0-9]+
        # (on an ASCII line isdigit alone is exact)
        if not (raw.isascii() and a.isdigit() and b.isdigit()) and not (
            _decimal(a) and _decimal(b)
        ):
            signed = all(_decimal(p.removeprefix("-")) for p in parts)
            fault = "negative vertex id in" if signed else "malformed arc line"
            raise EdgeListParseError(f"{fault} {raw.strip()!r}", line_no)
        if len(a) > _MAX_DIGITS or len(b) > _MAX_DIGITS:
            a, b = a.lstrip("0") or "0", b.lstrip("0") or "0"
            if len(a) > _MAX_DIGITS or len(b) > _MAX_DIGITS:
                raise EdgeListParseError(_arc_fault(a, b, declared_n), line_no)
        u, v = int(a), int(b)
        if u == v or not (u < limit and v < limit):
            raise EdgeListParseError(_arc_fault(u, v, declared_n), line_no)
        if arcs.setdefault((u, v), line_no) != line_no:
            raise EdgeListParseError(f"duplicate arc ({u},{v})", line_no)
    n = declared_n if declared_n is not None else max(map(max, arcs), default=-1) + 1
    return Digraph(n, arcs)


def _decimal(token):
    """Whether ``token`` is ASCII decimal digits, ``[0-9]+``."""
    return token.isascii() and token.isdigit()


def _arc_fault(u, v, declared_n):
    """What is wrong with the arc ``u v`` of two non-negative ids (ints,
    or digit strings without leading zeros), a self-loop or an id out of
    range: a self-loop first, then an id at or above the declared count,
    then one above the vertex limit."""
    if u == v:
        return f"self-loop ({u},{v}) forbidden (digraphs are simple)"
    if declared_n is not None:
        return f"vertex id in ({u},{v}) exceeds declared count {declared_n}"
    return f"vertex id in ({u},{v}) exceeds the limit of {MAX_VERTICES} vertices"


def to_edge_list(d: Digraph) -> str:
    """Canonical writer: header line, then arcs sorted lexicographically."""
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs)
    return "\n".join(lines) + "\n"


def fingerprint(d: Digraph) -> str:
    """SHA-256 of the canonical edge-list text; identifies the graph in certificates."""
    return hashlib.sha256(to_edge_list(d).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Structure primitives
# ---------------------------------------------------------------------------

def reach_mask(succ, src: int, forbidden: int) -> int:
    """Vertices reachable from ``src & ~forbidden`` along arcs avoiding ``forbidden``."""
    closed = src & ~forbidden
    frontier = closed
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= succ[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~forbidden & ~closed
        closed |= frontier
    return closed


def component_masks(rows, active: int):
    """The strong components of D[active], as vertex masks, by lowest vertex.

    ``rows[v]``, for every v in ``active``, is the set of vertices v
    reaches inside D[active], v included (``reach_mask(succ, 1 << v,
    ~active)``, say).  u and v share a component iff each is in the
    other's row.
    """
    comps = []
    while active:
        r = (active & -active).bit_length() - 1
        comp = 0
        f = rows[r]
        while f:
            low = f & -f
            if rows[low.bit_length() - 1] >> r & 1:
                comp |= low
            f ^= low
        comps.append(comp)
        active &= ~comp
    return comps


def acyclic_mask(pred, active: int) -> bool:
    """Whether D[active] is acyclic (Kahn: drop vertices with no in-arc from the rest)."""
    changed = True
    while active and changed:
        changed = False
        f = active
        while f:
            low = f & -f
            f ^= low
            if pred[low.bit_length() - 1] & active == 0:
                active ^= low
                changed = True
    return active == 0


def scc(d: Digraph) -> Tuple[FrozenSet[int], ...]:
    """Strongly connected components, in reverse topological order.

    No component reaches a later one.  The components are
    ``component_masks`` of the closure rows, ordered by how many
    vertices they reach, then by lowest vertex.  A component A that
    reaches another, B, reaches all that B reaches and A itself, which B
    does not reach, so A reaches strictly more and comes after B.
    """
    rows = closure_masks(d)
    comps = component_masks(rows, d.full_mask)  # by lowest vertex; the sort is stable
    comps.sort(key=lambda c: rows[(c & -c).bit_length() - 1].bit_count())
    return tuple(frozenset(iter_bits(c)) for c in comps)


def is_acyclic(d: Digraph) -> bool:
    """True iff D has no cycle."""
    return acyclic_mask(d.pred_masks, d.full_mask)


def induced_subgraph(d: Digraph, x: Iterable[int]) -> Tuple[Digraph, Dict[int, int]]:
    """Subgraph induced by X, relabeled densely; returns (subgraph, old->new map)."""
    xs = sorted(set(x))
    for v in xs:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} not in V(D)")
    relabel = {old: new for new, old in enumerate(xs)}
    keep = set(xs)
    arcs = [(relabel[u], relabel[v]) for u, v in d.arcs if u in keep and v in keep]
    return Digraph(len(xs), arcs), relabel


def closure_masks(d: Digraph) -> Tuple[int, ...]:
    """Row u = {v : u = v or u has a path to v} as a bit mask (reflexive)."""
    return tuple(reach_mask(d.succ_masks, 1 << u, 0) for u in range(d.n))

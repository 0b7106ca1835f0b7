"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately naive and shares no code with the
package internals: plain frozensets, itertools enumeration, fixpoint
iteration from below.  Only usable at tiny sizes.
"""
import itertools


def set_reach(arcs, sources, forbidden):
    """Reachability by repeated expansion over an arc list."""
    out = set(s for s in sources if s not in forbidden)
    while True:
        grow = {
            v
            for (u, v) in arcs
            if u in out and v not in forbidden and v not in out
        }
        if not grow:
            return out
        out |= grow


def all_cop_sets(n, k):
    for size in range(k + 1):
        for combo in itertools.combinations(range(n), size):
            yield frozenset(combo)


def naive_visible_cops_win(n, arcs, k, monotone=False):
    """Fixpoint-from-below over all positions; no move pruning at all."""
    cop_sets = list(all_cop_sets(n, k))
    positions = [(c, r) for c in cop_sets for r in range(n) if r not in c]

    def options(c, c2, r):
        return set_reach(arcs, {r}, c & c2) - c2

    def space(c, r):
        return set_reach(arcs, {r}, c)

    win = set()
    changed = True
    while changed:
        changed = False
        for pos in positions:
            if pos in win:
                continue
            c, r = pos
            s_old = space(c, r) if monotone else None
            for c2 in cop_sets:
                opts = options(c, c2, r)
                if not opts:
                    win.add(pos)
                    changed = True
                    break
                if monotone and any(space(c2, r2) - s_old for r2 in opts):
                    continue
                if all((c2, r2) in win for r2 in opts):
                    win.add(pos)
                    changed = True
                    break
    empty = frozenset()
    return all((empty, r) in win for r in range(n))


def naive_invisible_cops_win(n, arcs, k, lazy=True, monotone=False):
    """BFS over (cop set, contamination) frozenset states; no pruning."""
    full = frozenset(range(n))
    if not full:
        return True
    cop_sets = list(all_cop_sets(n, k))
    start = (frozenset(), full)
    seen = {start}
    queue = [start]
    while queue:
        c, rset = queue.pop(0)
        for c2 in cop_sets:
            if lazy:
                fled = set_reach(arcs, rset & c2, c & c2)
                new_r = frozenset((rset | fled) - c2)
            else:
                new_r = frozenset(set_reach(arcs, rset, c & c2) - c2)
            if monotone and not new_r <= rset:
                continue
            if not new_r:
                return True
            state = (c2, new_r)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return False


def naive_treewidth(n, edges):
    """Minimum over all elimination orderings of the maximum degree at
    elimination time; convention: treewidth of the empty graph is -1."""
    if n == 0:
        return -1
    best = n - 1
    base_adj = {v: set() for v in range(n)}
    for u, v in edges:
        base_adj[u].add(v)
        base_adj[v].add(u)
    for order in itertools.permutations(range(n)):
        adj = {v: set(ns) for v, ns in base_adj.items()}
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for a in nbrs:
                for b in nbrs:
                    if a != b:
                        adj[a].add(b)
            for a in nbrs:
                adj[a].discard(v)
            del adj[v]
        best = min(best, width)
    return best


def enumerate_arc_lists(n):
    """Arc lists of every labeled simple digraph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


def _arcs_acyclic(n, arcs):
    """Kahn's test over an arc list: repeatedly drop a vertex with no in-arc."""
    alive = set(range(n))
    while True:
        sources = {v for v in alive if not any(u in alive and w == v for u, w in arcs)}
        if not sources:
            return not alive
        alive -= sources


def naive_min_feedback_arc_set(n, arcs):
    """First arc subset in itertools.combinations order over ``arcs``
    (sorted lexicographically) whose deletion leaves an acyclic digraph.

    Returns (size, witness tuple): the minimum feedback arc set that
    ``min_feedback_arc_set`` must report, not just one of the same size.
    """
    arcs = sorted(arcs)
    for size in range(len(arcs) + 1):
        for combo in itertools.combinations(range(len(arcs)), size):
            dropped = set(combo)
            rest = [a for i, a in enumerate(arcs) if i not in dropped]
            if _arcs_acyclic(n, rest):
                return size, tuple(arcs[i] for i in combo)
    raise AssertionError("unreachable: deleting all arcs is acyclic")

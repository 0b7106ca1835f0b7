"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately naive and shares no code with the
package internals: plain frozensets, itertools enumeration, fixpoint
iteration from below.  Only usable at tiny sizes.  The exceptions are
former package code on bit masks, kept with their own reachability
helpers: ``naive_solve_visible``, the vertex-level visible attractor,
the reference for the kernel's strong-component quotient, with
``reachable_strategy``, its strategy restricted to the positions play
reaches, and ``naive_visible_count``, the kernel's count of moves tried
and shared robber responses;
``naive_solve_invisible``, the contamination search over every cop set,
the reference for the kernel's one-vertex moves and eliminations;
``subset_dp_hamiltonian``, the one-int-per-set Hamiltonian DP, the
reference for the bit-sliced table; and ``naive_min_equivalent_subgraph``,
the equivalent-subgraph search from size 0, the reference for the
lower-bounded start.
"""
import itertools

from copwin.errors import StateBudgetExceededError


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


def subset_dp_hamiltonian(n, arcs):
    """The pull-form Held-Karp DP, one Python int per vertex set.

    ``ends[s]`` (s odd, so holding vertex 0) is the set of v with a path
    from 0 through exactly s that ends at v.  Returns the witness
    ``hamiltonian_cycle`` must report: the cycle from 0, read backwards
    from the table taking the smallest predecessor each time, or None.
    """
    if n < 2:
        return None
    pred = [0] * n
    for u, v in arcs:
        pred[v] |= 1 << u
    full = (1 << n) - 1
    ends = [0] * (1 << n)
    ends[1] = 1
    steps = [(1 << v, pred[v]) for v in range(1, n)]
    for s in range(3, 1 << n, 2):
        e = 0
        for bit, p in steps:
            if s & bit and ends[s ^ bit] & p:
                e |= bit
        ends[s] = e
    finishers = ends[full] & pred[0] & ~1
    if not finishers:
        return None
    path = [(finishers & -finishers).bit_length() - 1]
    s = full
    while len(path) < n:
        v = path[-1]
        prevs = ends[s ^ (1 << v)] & pred[v]
        path.append((prevs & -prevs).bit_length() - 1)
        s ^= 1 << v
    path.reverse()
    return tuple(path)


def naive_min_equivalent_subgraph(n, arcs):
    """First equivalent arc set of the smallest size, searched from size 0.

    Arcs whose single deletion changes the closure are kept; subsets of
    the other arcs (sorted lexicographically) are tried in
    itertools.combinations order, smallest first.  Returns
    (size, witness tuple), the answer ``min_equivalent_subgraph`` must
    report whatever size its search starts at.
    """
    arcs = sorted(arcs)

    def closure(kept):
        succ = [0] * n
        for u, v in kept:
            succ[u] |= 1 << v
        return [_reach_mask(succ, 1 << u, 0) for u in range(n)]

    target = closure(arcs)
    mandatory = [a for a in arcs if closure([b for b in arcs if b != a]) != target]
    optional = [a for a in arcs if a not in mandatory]
    for size in range(len(optional) + 1):
        for kept in itertools.combinations(optional, size):
            if closure(mandatory + list(kept)) == target:
                witness = tuple(sorted(mandatory + list(kept)))
                return len(witness), witness
    raise AssertionError("unreachable: keeping every arc keeps the closure")


def _reach_mask(succ, src, forbidden):
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


def _rows(cache, adj, n, guard):
    row = cache.get(guard)
    if row is None:
        row = cache[guard] = [_reach_mask(adj, 1 << v, guard) for v in range(n)]
    return row


def naive_solve_visible(succ, pred, n, moves, monotone, strong, budget):
    """Vertex-level attractor over the visible fast-robber arena.

    One position per (cop set, robber vertex).  ``engine.solve_visible``
    solves the strong-component quotient instead and must return the
    same winner and, on a cop win, this strategy restricted by
    ``reachable_strategy``; its transition count, which counts the
    quotient, must be at most this one, and equal where every strong
    component is a single vertex.

    Positions are (cop set, robber vertex) with the cops to move; the
    robber answers each cop move with any legal landing spot.  Returns
    (cops_win, strategy, transitions) where strategy maps (cop_mask,
    robber) -> move mask for every cop-winning position, picking the
    fastest-capture move and breaking ties by the canonical move order.
    """
    m = len(moves)
    num_pos = m * n
    if num_pos * m > budget:
        raise StateBudgetExceededError(budget, num_pos * m)

    transitions = 0
    fwd_rows = {}
    bwd_rows = {}
    # robber territory at (C, r) is space[C][r], needed only to enforce
    # monotone transitions (every move is its own guard: C & C = C)
    space = [_rows(fwd_rows, succ, n, cj) for cj in moves] if monotone else None

    win_round = [0] * num_pos
    best_move = [-1] * num_pos
    cnt = [0] * (num_pos * m)
    rev = [[] for _ in range(num_pos)]
    queue = []

    full = (1 << n) - 1
    for ci in range(m):
        cmask = moves[ci]
        if cmask == full:  # no robber spot left
            continue
        base = ci * n
        # rows of the guards C & C' for every C' != C, shared by all robber spots
        fwd = [_rows(fwd_rows, succ, n, cmask & cj) if j != ci else None
               for j, cj in enumerate(moves)]
        bwd = [_rows(bwd_rows, pred, n, cmask & cj) if j != ci else None
               for j, cj in enumerate(moves)] if strong else None
        for r in range(n):
            if cmask >> r & 1:
                continue
            pid = base + r
            for j in range(m):
                if j == ci:  # C' = C never changes any state
                    continue
                cj = moves[j]
                transitions += 1
                if transitions > budget:
                    raise StateBudgetExceededError(budget, transitions)
                opts = fwd[j][r]
                if strong:
                    opts &= bwd[j][r]
                opts &= ~cj
                if opts == 0:
                    # capture: rank-1 win, no later move can beat it
                    win_round[pid] = 1
                    best_move[pid] = j
                    queue.append(pid)
                    break
                if monotone:
                    s_old = space[ci][r]
                    space_j = space[j]
                    f = opts
                    vetoed = False
                    while f:
                        low = f & -f
                        if space_j[low.bit_length() - 1] & ~s_old:
                            vetoed = True
                            break
                        f ^= low
                    if vetoed:
                        continue  # some response re-grows the territory: losing move
                rid = pid * m + j
                jbase = j * n
                deg = 0
                f = opts
                while f:
                    low = f & -f
                    rev[jbase + (low.bit_length() - 1)].append(rid)
                    deg += 1
                    f ^= low
                transitions += deg
                if transitions > budget:
                    raise StateBudgetExceededError(budget, transitions)
                cnt[rid] = deg

    # backward induction: FIFO processes positions in nondecreasing round order
    head = 0
    while head < len(queue):
        pid2 = queue[head]
        head += 1
        t = win_round[pid2]
        for rid in rev[pid2]:
            c = cnt[rid] - 1
            cnt[rid] = c
            if c == 0:
                pid = rid // m
                j = rid - pid * m
                if win_round[pid] == 0:
                    win_round[pid] = t + 1
                    best_move[pid] = j
                    queue.append(pid)
                elif win_round[pid] == t + 1 and j < best_move[pid]:
                    best_move[pid] = j

    cops_win = all(win_round[r] for r in range(n))  # moves[0] is the empty set
    if not cops_win:
        return False, None, transitions
    strategy = {}
    for ci in range(m):
        cmask = moves[ci]
        base = ci * n
        for r in range(n):
            if cmask >> r & 1:
                continue
            if win_round[base + r]:
                strategy[(cmask, r)] = moves[best_move[base + r]]
    return True, strategy, transitions


def reachable_strategy(succ, pred, n, strategy, strong):
    """``strategy``, a map (cop_mask, robber) -> move mask, restricted to
    the positions its play reaches from the starts (0, r).

    At (C, r) the cops play C' = strategy[(C, r)] and the robber lands
    on any vertex outside C' that r reaches avoiding C & C' (in strong
    mode, inside r's strong component of D - (C & C')).
    ``engine.solve_visible`` returns exactly this restriction of
    ``naive_solve_visible``'s map.
    """
    fwd = {}
    bwd = {}
    out = {}
    stack = [(0, r) for r in range(n)]
    while stack:
        key = stack.pop()
        if key in out:
            continue
        cmask, r = key
        move = out[key] = strategy[key]
        guard = cmask & move
        land = _rows(fwd, succ, n, guard)[r]
        if strong:
            land &= _rows(bwd, pred, n, guard)[r]
        land &= ~move
        stack.extend((move, x) for x in range(n) if land >> x & 1)
    return out


def naive_visible_count(succ, pred, n, moves, monotone, strong):
    """The work ``engine.solve_visible`` counts, from the game's rules.

    Strong components come from forward and backward reach (the kernel
    reads them off forward reach alone).  From each class of D - C (a
    strong component, played from its lowest vertex r) the kernel tries
    every move C' != C in order, up to the first capture; a monotone
    reachability-confined solve tries only the moves that contain the
    cops with an arc from r's territory.  Each move tried counts 1.  The
    robber's landing set L is what r reaches avoiding C & C' (in strong
    mode, inside r's strong component of D - (C & C')), minus C'.  Each
    distinct (C', L) with L non-empty also counts the strong components
    of D - C' that meet L, once, whichever classes share it.
    """
    fwd = {}
    bwd = {}
    comps = {}

    def components(guard):
        if guard not in comps:
            ahead = _rows(fwd, succ, n, guard)
            behind = _rows(bwd, pred, n, guard)
            comps[guard] = sorted({ahead[v] & behind[v] for v in range(n) if not guard >> v & 1})
        return comps[guard]

    tried = 0
    landings = set()
    for cmask in moves:
        for comp in components(cmask):
            r = (comp & -comp).bit_length() - 1
            territory = _rows(fwd, succ, n, cmask)[r]
            cops_at_exit = 0
            for x in range(n):
                if territory >> x & 1:
                    cops_at_exit |= succ[x] & cmask
            for cj in moves:
                if cj == cmask or (monotone and not strong
                                   and cj & cops_at_exit != cops_at_exit):
                    continue
                tried += 1
                guard = cmask & cj
                land = _rows(fwd, succ, n, guard)[r]
                if strong:
                    land &= _rows(bwd, pred, n, guard)[r]
                land &= ~cj
                if not land:
                    break
                landings.add((cj, land))
    return tried + sum(1 for cj, land in landings for comp in components(cj) if comp & land)


def naive_solve_invisible(succ, n, moves, lazy, monotone, budget):
    """Breadth-first search over contamination states (C, R) from (0, V),
    trying every cop set of ``moves`` from every state.

    ``engine.solve_invisible`` must agree on the verdict: in plain
    mode it tries one-vertex moves only, in monotone mode one-vertex
    eliminations.

    Single-player: the cops win iff some move sequence empties R.
    Returns (cops_win, sequence_of_move_masks, transitions); the BFS
    plus canonical move order makes the found sequence deterministic
    (shortest, then earliest in move order).
    """
    full = (1 << n) - 1
    if full == 0:
        return True, [], 0
    m = len(moves)
    start_key = full  # cop-set index 0, contamination V
    seen = {start_key}
    state_ci = [0]
    state_r = [full]
    parent = [-1]
    parent_move = [-1]
    transitions = 0
    rows = {}
    head = 0
    while head < len(state_ci):
        ci = state_ci[head]
        rmask = state_r[head]
        sid = head
        head += 1
        cmask = moves[ci]
        for j in range(m):
            if lazy and j == ci:  # inert robbers never move on their own
                continue
            cj = moves[j]
            transitions += 1
            if transitions > budget:
                raise StateBudgetExceededError(budget, transitions)
            # robbers run from the vertices C' lands on (lazy) or from
            # everywhere (fast); the reach is the OR of the source rows
            rp = rmask
            f = rmask & cj if lazy else rmask
            if f:
                row = _rows(rows, succ, n, cmask & cj)
                while f:
                    low = f & -f
                    rp |= row[low.bit_length() - 1]
                    f ^= low
            rp &= ~cj
            if monotone and rp & ~rmask:
                continue
            if rp == 0:
                seq = [cj]
                cur = sid
                while cur > 0:
                    seq.append(moves[parent_move[cur]])
                    cur = parent[cur]
                seq.reverse()
                return True, seq, transitions
            key = (j << n) | rp
            if key not in seen:
                seen.add(key)
                state_ci.append(j)
                state_r.append(rp)
                parent.append(sid)
                parent_move.append(j)
    return False, None, transitions

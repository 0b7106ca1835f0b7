"""Pure-Python solver kernels.

These are the hot loops: bit-mask reachability, the backward-induction
attractor for the visible game, and the breadth-first contamination
search for the invisible games.  ``_ckernels`` is the compiled twin;
both backends must return identical winners, strategies, sequences and
transition counts, which the parity tests enforce.

Kernel inputs are already lowered: successor/predecessor masks, a
canonically ordered cop-move list, plain ints everywhere.

Per-guard reachability rows.  Between two cop sets C and C' the robber
runs in D - (C & C'), and the guard C & C' is itself a set of at most k
vertices, hence one of the m cop moves.  So a solve needs reachability
avoiding at most m distinct guards.  The kernels keep, per guard, the
row ``reach_mask(adj, 1 << v, guard)`` for every vertex v (0 for v in
the guard): all rows together cost at most m*n BFS calls and m*n ints
per solve, instead of one BFS per transition.  Any reachable set is the OR of the rows of its
sources, so every result is unchanged.  The visible kernel builds the
rows of a cop set's guards when it first expands that cop set; the
invisible kernel builds a guard's row at the guard's n-th meeting and
searches directly before that, so a guard met only a few times (the
single transition of a 0-cop fast-robber search, say) never pays n
BFS calls.
"""
from __future__ import annotations

from ..errors import StateBudgetExceededError

NAME = "py"


def reach_mask(succ, src, forbidden):
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
    """``reach_mask(adj, 1 << v, guard)`` for every v < n, built once per guard."""
    row = cache.get(guard)
    if row is None:
        row = cache[guard] = [reach_mask(adj, 1 << v, guard) for v in range(n)]
    return row


def _met_row(cache, met, adj, n, guard):
    """The row of ``guard`` from its n-th meeting on, else None.

    A row costs n BFS calls; waiting for n meetings keeps the total
    within about twice the BFS calls of searching at every meeting.
    """
    count = met.get(guard, 0) + 1
    if count < n:
        met[guard] = count
        return None
    return _rows(cache, adj, n, guard)


def solve_visible(succ, pred, n, moves, monotone, strong, budget):
    """Attractor over the bipartite arena of the visible fast-robber game.

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


def solve_invisible(succ, n, moves, lazy, monotone, budget):
    """Breadth-first search over contamination states (C, R) from (0, V).

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
    met = {}
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
                guard = cmask & cj
                row = rows.get(guard)
                if row is None:
                    row = _met_row(rows, met, succ, n, guard)
                if row is None:
                    rp |= reach_mask(succ, f, guard)
                else:
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

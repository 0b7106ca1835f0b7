"""The solver kernels, in pure Python.

These are the hot loops: the backward-induction attractor for the
visible game, the breadth-first contamination search for the plain
invisible games and the elimination search for the monotone ones.
``solver.solve`` calls ``solve_visible`` and ``solve_invisible``
directly.  There is no compiled twin; the former kernels in
``tests/oracles.py`` (``naive_solve_visible``, ``naive_solve_invisible``)
are the references they are tested against.  Reachability is
``digraph.reach_mask`` and strong components ``digraph.component_masks``.

Kernel inputs are already lowered: successor masks (the invisible
kernel also takes predecessor masks), a canonically ordered cop-move
list that starts with the empty set (visible) or the cop count k
(invisible), plain ints everywhere.  The visible kernel derives all it
needs, strong components and territory boundaries included, from
successor masks alone.

Memoised robber runs.  Between two cop sets C and C' the robber runs
in D - (C & C'), and the guard C & C' is itself a set of at most k
vertices.  So a solve needs reachability avoiding at most g distinct
guards, g the number of such sets.  The visible kernel keeps, per
guard, the reach row ``reach_mask(succ, 1 << v, guard)`` for every
vertex v (0 for v in the guard), built when it first expands a cop set
with that guard: all rows together cost at most g*n BFS calls and g*n
ints per solve, instead of one BFS per transition, and any reachable
set is the OR of the rows of its sources.  From a guard's reach rows it
builds, once, the guard's component rows: for every vertex v, the mask
of v's strong component of D - guard (0 for v in the guard), which is
the part of v's row whose own rows hold v.  Under strong confinement a
robber at r answering C -> C' lands in the component row of C & C' at
r, minus C'; no backward reachability is needed.  A monotone solve
without strong confinement builds only the rows of the cop sets
themselves (see the boundary rule below).  In the plain invisible
search every robber run starts at a single vertex v (see the
one-vertex moves below), so that kernel memoises each run
``reach_mask(succ, 1 << v, guard)`` on its first use, under the key
guard * n + v.  Either way every result is unchanged.

Strong-component quotient of the visible arena.  The visible kernel
solves one position per (cop set C, strong component of D - C), not one
per (C, robber vertex); a component is a *class*, read off the
component rows of the guard C, and is represented by its lowest
vertex.  This is exact: two vertices of one class reach each other
while avoiding C, hence while avoiding every guard C & C', so they
have the same robber options, the same strong-confinement options and
the same monotone territory for every cop move.  Every robber response
is a union of classes of D - C', so each is linked once per class, and
all members of a class win in the same round with the same
smallest-index move, the move the vertex-level attractor picks for
each of them.  ``transitions`` and the budget count this quotient
arena, with the responses shared as below: 1 per cop move tried from a
class, plus, once per distinct (move, landing set), 1 per
robber-response class the landing set holds.  The moves that the boundary rule below skips
are neither examined nor counted, so a monotone solve without strong
confinement counts only the moves it tries.

Shared robber responses.  A class at r answering move j (cop set C')
lands in L = opts(C, C', r), and many (class, move) pairs share one
(j, L): classes of one cop set that reach the same vertices avoiding
C & C', and classes of other cop sets whose guard leaves the robber
the same run.  The kernel keeps one response node per (j, L), made the
first time the key is seen.  It links the response classes of D - C'
in L once, counts those still unwon and ORs their territories; every
(class, move) pair that lands there only joins the node's parents.
This is exact.  L is a union of classes of D - C' (shown above), so
the response classes, their territories and the round in which the
last of them is won depend only on (C', L), not on the class that
moved.  A parent class wins at t + 1 when its node completes at round
t, exactly when its own links would have completed, and ties still go
to the smaller j, so verdicts and strategy maps are those of per-pair
links.  The monotone veto of a pair is one test against the node: the
move re-grows the class's territory T iff the OR of the response
territories is not a subset of T.  (Under reachability confinement the
boundary rule below leaves only moves that pass it.)

The strategy from the kernel's own tables.  A cop-winning class q
keeps, beside its best move j, the landing set L of that move: the
robber's options at its lowest vertex, 0 on capture.  Both are set
together, in the tie-break to a smaller j too.  On a cop win the kernel
walks from every start (empty set, r): at (C, r) it takes r's class q
of D - C, records moves[j], and goes on to (C', x) for every x in L.
This is the strategy on exactly the positions its play reaches, and it
equals the vertex-level map restricted to them.  Every member r of q
has q's landing set, since L depends only on r's class (shown above),
so L is ``arena.robber_options_mask(d, C, C', r, strong)``: the
options row of the guard C & C' at r minus C'.  In the boundary mode
below the kernel takes L = T - C', which the boundary rule shows equal
to it for every move it tries.  Every class a landing set meets has
won (its node completed), so the walk never leaves the won positions;
and it reaches what a walk over the full map with the arena's
landing spots reaches, so the sorted certificate entries are the
same bytes.  No per-vertex map is built and no landing set is
recomputed.

Monotone moves keep the boundary.  Take a class of D - C with territory
T (the vertices it reaches avoiding C) and let B be the cops of C with
an arc from T, ``_boundary(succ, T, C)``; T is closed under arcs that
avoid C, so B is all of N+(T) - T, the boundary of T.  With
reachability confinement, a monotone move C -> C' is vetoed iff C'
does not contain B, and when it is not vetoed the robber's options are
exactly T - C'.  Let opts = reach(r avoiding C & C') - C'.  Anything
a vertex of opts reaches avoiding C' is again in opts, so the
territories of the responses together are opts, and the move is
vetoed iff opts is not a subset of T.  A cop v of B that C' lifts is
reached from T avoiding C & C' and is not in T, so v is in opts - T.
If C' keeps every cop of B, every arc out of T ends on a cop of
C & C', so the robber stays in T and opts = T - C'.  So a
monotone solve without strong confinement computes B once per class
and tries only the moves that contain it (an index of the moves by B
is built once per solve), with capture iff T is a subset of C'.  Under
strong confinement the options shrink to the robber's strong
component, a lifted cop of B need not be among them, and only "C'
contains B implies not vetoed" holds; strong solves, like plain ones,
try every move, and a monotone strong solve vetoes a move by its
response node (see above).  All modes share one move loop: only the
guard rows of a cop set and the moves tried from a class depend on the
mode.

Full-size moves in plain visible play.  ``solver.solve`` hands a plain
visible solve with 1 <= k <= n cops the empty start and the cop sets of
exactly k vertices, in the canonical order, not every set of at most k.
This is exact.  Write opts(C, C', r) for the robber's landing spots at r
while the cops move C -> C'.

1. More cops never leave more options.  If C is a subset of D and C' a
   subset of C'', then opts(D, C'', r) is a subset of opts(C, C', r):
   the guard D & C'' contains C & C', so the forward reach avoiding it
   shrinks, and under strong confinement so does the backward reach;
   and the robber must land outside the larger set C''.
2. By induction on t: if the cops win from (C, r) within t rounds with
   every move, they win within t rounds with full-size moves from every
   position (D, r) of the reduced arena with D a superset of C (D empty
   or of k vertices, r not in D).  Let C' be the winning move at
   (C, r); some k-set contains it, since |C'| <= k <= n.
   * If a k-set C'' that contains C' is not D, play it.  By 1 every
     answer r2 is an answer to C', so (C', r2) is won within t - 1
     rounds, and by induction so is (C'', r2).  At t = 1 there is no
     answer.
   * Otherwise D is the only such k-set, so C' is a subset of D and r,
     not in D, is not in C'.  Then r is one of the robber's answers to
     C' (it is not in C and reaches itself), so (C', r) was already won
     within t - 1 rounds, and by induction so is (D, r).
   With C = D = {} this covers every start position.
3. Conversely the reduced arena is a sub-arena: the cops have fewer
   moves and the robber the same answers, so each of its wins is a win.

So the verdict is unchanged; the strategy, the certificate built from
it (the empty set, then k-sets only) and ``transitions`` are those of
the reduced arena.  Monotone solves keep every set of at most k.  With
more cops on the board the territory that the next move must stay
inside is smaller, so step 2 does not carry over: a full-size move may
be vetoed where the smaller one is not.  The two move lists agree on
every digraph with n <= 4, but that is a check, not a proof.

One-vertex moves in the plain invisible games.  In plain mode the
contamination search tries, from a state (C, R), only the cop sets one
lift or one placement away from C (placements while |C| < k), so a
state has at most n successors instead of one per cop set of size at
most k.  The value is unchanged.  Any move C -> C' can be played as the
lifts of C - C' one at a time, then the placements of C' - C one at a
time.  Every robber run in between avoids a superset of the guard
C & C' and starts where a run of the one-shot move starts or at a
vertex such a run reaches, so the contamination after the steps is a
subset of the one-shot R'.  In plain play, cops that win from R also
win from every subset of R, because the contamination update is
monotone in R.  So the one-vertex search finds a win iff the
all-subsets search does; its sequences are longer and pass the same
verifier.  The steps are cheap: an inert robber runs only from a
placed cop's vertex, avoiding C; a fast robber's contamination is
always closed under reach avoiding C, so a placement just removes the
vertex, and a lift lets robbers out only through the lifted vertex, and
only if R has an arc into it.

One-vertex eliminations in the monotone invisible games.  Monotone
mode searches cleared sets W (contamination R = V - W) instead of
states (C, R).  A step eliminates one contaminated vertex v; it is
allowed iff

* inert: 1 + |B| <= k, where B is the set of W-vertices with an arc
  from X_v = ``reach_mask(succ, 1 << v, W)``, the vertices v reaches
  inside R;
* fast: |dR| + 1 <= k, where dR is the set of W-vertices with a
  predecessor in R.

The search is a depth-first search from W = {} that tries v in
ascending order and remembers the dead W (those from which no allowed
sequence clears V).  The fast check depends on W only, so a W whose dR
is already too big tries no v.  ``transitions`` counts the (W, v) pairs
tried.  A cleared V is played as the cop sets

* inert, per eliminated v: B if B is not a subset of the cops on the
  graph, then B + {v};
* fast, per eliminated v: dR + {v}.

This is exact.  Every reachable monotone state (C, R) has C and R
disjoint, and in the fast game R is closed under reach avoiding C, so
dR is a subset of C.

1. Only R matters.  From (C, R), every C2 disjoint from R (containing
   dR in the fast game) is one monotone move away with R unchanged: no
   inert robber is hit, and every fast robber's exit from R is guarded
   by dR, a subset of C & C2.
2. A monotone move C -> C' leaves R - S, with S = R & C': the update
   keeps every contaminated vertex no cop lands on and adds only
   vertices outside R, which monotone play forbids.  Let the
   boundary of S be, inert: the W-vertices with an arc from X_S, the
   vertices S reaches inside R; fast: dR.  Every boundary vertex is in
   C': an inert robber hit in S runs through X_S, which misses the
   guard C & C', onto any boundary vertex outside the guard, so it
   must be in C'; a fast robber reaches every vertex of dR outside the
   guard, and such a vertex, being in C, is not in C'.  So
   |C'| >= |S| + |boundary of S|.
3. Removing S one vertex at a time never costs more.  Eliminate
   v_1, ..., v_s of S in any order.  At step i the cleared set is
   W + {v_1 .. v_(i-1)}, and the step's B (inert, since X_(v_i) is
   within X_S) or dR (fast) is within the boundary of S plus
   {v_1 .. v_(i-1)}.  So the step costs at most
   1 + (i - 1) + |boundary of S| <= |S| + |boundary of S| <= k.
4. Conversely, each allowed elimination is played by the moves above.
   Inert: the move to B lands on no contaminated vertex, and the move
   to B + {v} keeps B on the ground, so the robber hit at v runs
   through X_v only and R loses exactly v.  Fast: the move keeps dR on
   the ground, so robbers stay in R, and R loses exactly v.  Both use
   at most k cops and are monotone, and dR + {v} contains the boundary
   of R - v.

So k cops win the monotone game iff some elimination order clears V,
and the sequence built from it passes the verifier.  A state of the
search is a set W, not a pair (C, R), so a solve touches at most 2^n
states and tries at most n steps from each.
"""
from __future__ import annotations

import sys

from .digraph import component_masks, reach_mask
from .errors import StateBudgetExceededError


def available_backends():
    """``{"py": this module}``.  This function and ``default_backend_name``
    only name the kernels: the benchmark harness (``perfbench/run.py``,
    ``perfbench/tracing.py``) imports them to record which kernels ran
    and to find the kernel functions it traces."""
    return {"py": sys.modules[__name__]}


def default_backend_name() -> str:
    """``"py"``, the name ``available_backends`` gives this module."""
    return "py"


def _rows(cache, succ, n, guard):
    """``reach_mask(succ, 1 << v, guard)`` for every v < n, built once per guard."""
    row = cache.get(guard)
    if row is None:
        row = cache[guard] = [reach_mask(succ, 1 << v, guard) for v in range(n)]
    return row


def _comp_rows(cache, fwd_rows, succ, n, guard):
    """For every v < n, the mask of v's strong component of D - guard (0
    for v in the guard), from the guard's reach rows, built once per guard."""
    row = cache.get(guard)
    if row is None:
        row = cache[guard] = [0] * n
        for comp in component_masks(_rows(fwd_rows, succ, n, guard), ((1 << n) - 1) & ~guard):
            f = comp
            while f:
                low = f & -f
                row[low.bit_length() - 1] = comp
                f ^= low
    return row


def solve_visible(succ, n, moves, monotone, strong, budget):
    """Attractor over the bipartite arena of the visible fast-robber game.

    Positions are (cop set, robber vertex) with the cops to move; the
    robber answers each cop move with any legal landing spot.  Returns
    (cops_win, strategy, transitions).  On a cop win, strategy maps
    (cop_mask, robber) -> move mask for every position the strategy
    reaches from the starts (0, r), picking the fastest-capture move and
    breaking ties by the canonical move order; otherwise it is None.
    The attractor itself runs on the strong-component quotient with
    one shared response node per (move, landing set), and the strategy
    is read from its tables by a walk from the starts (see the module
    docstring); ``transitions`` counts its work, and a count above
    ``budget`` raises StateBudgetExceededError.
    """
    m = len(moves)
    if m == 1:  # only the empty cop set: no transitions, no capture
        return n == 0, ({} if n == 0 else None), 0

    full = (1 << n) - 1
    fwd_rows = {}
    comp_rows = {}
    # classes of D - C for every cop set C, from the rows of the guard C
    # (the reach rows are the robber's territory, the monotone "space" table)
    space = [None] * m
    cls_id = [None] * m    # per cop set: vertex -> class id
    cls_mask = [None] * m  # per cop set: vertex -> its class's vertex mask
    first = [0] * (m + 1)  # classes of cop set ci are first[ci]..first[ci + 1] - 1
    reps = []
    for ci, cmask in enumerate(moves):
        first[ci] = len(reps)
        if cmask == full:  # no robber spot left
            continue
        space[ci] = _rows(fwd_rows, succ, n, cmask)
        masks = cls_mask[ci] = _comp_rows(comp_rows, fwd_rows, succ, n, cmask)
        ids = cls_id[ci] = [-1] * n
        left = full & ~cmask
        while left:
            r = (left & -left).bit_length() - 1
            cls = masks[r]
            q = len(reps)
            reps.append(r)
            f = cls
            while f:
                low = f & -f
                ids[low.bit_length() - 1] = q
                f ^= low
            left &= ~cls
    first[m] = num_cls = len(reps)

    transitions = 0
    win_round = [0] * num_cls
    best_move = [-1] * num_cls
    land = [0] * num_cls  # the landing set of best_move (0: capture)
    # response nodes, one per (move j, landing set L): [response classes
    # not yet won, OR of their territories, j, classes whose move j lands in L, L]
    nodes = {}  # L * m + j -> node
    rev = [[] for _ in range(num_cls)]  # class -> the nodes it is a response of
    queue = []

    boundary = monotone and not strong  # the boundary rule picks the moves
    guarded = {}  # boundary rule: B -> indices of the moves containing B
    cands = range(m)  # the moves tried from a class; the boundary rule narrows them
    for ci in range(m):
        cmask = moves[ci]
        if cmask == full:
            continue
        s_row = space[ci]
        if boundary:
            # every move tried leaves the robber its territory minus C'
            opt_rows = [s_row] * m
        elif strong:
            # rows of the guards C & C' for every C', shared by all classes
            # (a row is a non-empty list, since m > 1 implies n > 0): the
            # robber's strong component ...
            opt_rows = [comp_rows.get(cmask & cj)
                        or _comp_rows(comp_rows, fwd_rows, succ, n, cmask & cj) for cj in moves]
        else:
            # ... or, with reachability confinement, all it reaches
            opt_rows = [fwd_rows.get(cmask & cj) or _rows(fwd_rows, succ, n, cmask & cj)
                        for cj in moves]
        for q in range(first[ci], first[ci + 1]):
            r = reps[q]
            s_old = s_row[r]
            if boundary:
                # only the moves that keep B, the cops with an arc from the territory
                b = _boundary(succ, s_old, cmask)
                cands = guarded.get(b)
                if cands is None:
                    cands = guarded[b] = [j for j, cj in enumerate(moves) if cj & b == b]
            for j in cands:
                if j == ci:  # C' = C never changes any state
                    continue
                cj = moves[j]
                transitions += 1
                if transitions > budget:
                    raise StateBudgetExceededError(budget, transitions)
                opts = opt_rows[j][r] & ~cj
                if opts == 0:
                    # capture: rank-1 win, no later move can beat it
                    win_round[q] = 1
                    best_move[q] = j
                    queue.append(q)
                    break
                node = nodes.get(opts * m + j)
                if node is None:
                    node = nodes[opts * m + j] = [0, 0, j, [], opts]
                    masks = cls_mask[j]
                    ids = cls_id[j]
                    space_j = space[j]
                    deg = grown = 0
                    f = opts
                    while f:
                        x = (f & -f).bit_length() - 1
                        rev[ids[x]].append(node)
                        deg += 1
                        grown |= space_j[x]
                        f &= ~masks[x]
                    node[0] = deg
                    node[1] = grown
                    transitions += deg
                    if transitions > budget:
                        raise StateBudgetExceededError(budget, transitions)
                if monotone and node[1] & ~s_old:
                    continue  # some response re-grows the territory: losing move
                node[3].append(q)

    # backward induction: FIFO processes classes in nondecreasing round order
    head = 0
    while head < len(queue):
        q2 = queue[head]
        head += 1
        t = win_round[q2]
        for node in rev[q2]:
            node[0] -= 1
            if node[0] == 0:
                j = node[2]
                for q in node[3]:
                    if win_round[q] == 0:
                        win_round[q] = t + 1
                        best_move[q] = j
                        land[q] = node[4]
                        queue.append(q)
                    elif win_round[q] == t + 1 and j < best_move[q]:
                        best_move[q] = j
                        land[q] = node[4]

    ids = cls_id[0]  # moves[0] is the empty set
    if not all(win_round[ids[r]] for r in range(n)):
        return False, None, transitions
    # the positions the strategy reaches from the starts (0, r)
    strategy = {}
    stack = [(0, r) for r in range(n)]
    while stack:
        ci, r = stack.pop()
        key = (moves[ci], r)
        if key in strategy:
            continue
        q = cls_id[ci][r]
        j = best_move[q]
        strategy[key] = moves[j]
        f = land[q]
        while f:
            low = f & -f
            stack.append((j, low.bit_length() - 1))
            f ^= low
    return True, strategy, transitions


def solve_invisible(succ, pred, n, k, lazy, monotone, budget):
    """Search for a cop win against an invisible robber with k cops.

    Single-player: the cops win iff some move sequence empties the
    contamination.  Returns (cops_win, sequence_of_cop_masks,
    transitions).  Plain play is a breadth-first search over
    contamination states (C, R) from (0, V) with one-vertex moves;
    monotone play is a depth-first search over one-vertex eliminations
    (see the module docstring).  The fixed vertex order makes the found
    sequence deterministic.
    """
    full = (1 << n) - 1
    if full == 0:
        return True, [], 0
    if monotone:
        return _eliminate(succ, n, k, lazy, budget)
    toggles = {}
    seen = {full}  # key (C << n) | R; the start has C = 0, R = V
    state_c = [0]
    state_r = [full]
    parent = [-1]
    transitions = 0
    runs = {}  # guard * n + v -> reach_mask(succ, 1 << v, guard)
    head = 0
    while head < len(state_c):
        cmask = state_c[head]
        rmask = state_r[head]
        sid = head
        head += 1
        cands = toggles.get(cmask)
        if cands is None:
            cands = toggles[cmask] = _toggles(n, k, cmask)
        for cj in cands:
            transitions += 1
            if transitions > budget:
                raise StateBudgetExceededError(budget, transitions)
            # robbers run from the vertex C' lands on (lazy) or from a
            # lifted cop's vertex, if R has an arc into it (fast: R is
            # closed under reach avoiding C); f is that one vertex or 0
            if lazy:
                f = rmask & cj
            else:
                f = cmask & ~cj
                if f and not pred[f.bit_length() - 1] & rmask:
                    f = 0
            rp = rmask
            if f:
                guard = cmask & cj
                key = guard * n + f.bit_length() - 1
                run = runs.get(key)
                if run is None:
                    run = runs[key] = reach_mask(succ, f, guard)
                rp |= run
            rp &= ~cj
            if rp == 0:
                seq = [cj]
                cur = sid
                while cur > 0:
                    seq.append(state_c[cur])
                    cur = parent[cur]
                seq.reverse()
                return True, seq, transitions
            key = (cj << n) | rp
            if key not in seen:
                seen.add(key)
                state_c.append(cj)
                state_r.append(rp)
                parent.append(sid)
    return False, None, transitions


def _eliminate(succ, n, k, lazy, budget):
    """Monotone play: depth-first search over cleared sets W, one
    eliminated vertex per step (see the module docstring)."""
    full = (1 << n) - 1
    if k == 0:  # every elimination needs a cop on the eliminated vertex
        return False, None, 0
    transitions = 0
    dead = set()
    w = 0
    order = []  # the vertex bits eliminated so far, W their union
    # per W along the path: the contaminated vertices not tried yet
    stack_left = [full]  # the boundary of R = V is empty
    while stack_left:
        left = stack_left[-1]
        if not left:
            dead.add(w)
            stack_left.pop()
            if order:
                w ^= order.pop()
            continue
        low = left & -left
        stack_left[-1] = left ^ low
        transitions += 1
        if transitions > budget:
            raise StateBudgetExceededError(budget, transitions)
        if (w | low) in dead:
            continue
        if lazy and _boundary(succ, reach_mask(succ, low, w), w).bit_count() >= k:
            continue
        order.append(low)
        w |= low
        if w == full:
            return True, _sequence(succ, full, order, lazy), transitions
        # fast: the boundary depends on W only; too big, and W tries nothing
        r = full & ~w
        stack_left.append(r if lazy or _boundary(succ, r, w).bit_count() < k else 0)
    return False, None, transitions


def _boundary(succ, r, w):
    """W-vertices with a predecessor in R."""
    out = 0
    while r:
        low = r & -r
        out |= succ[low.bit_length() - 1]
        r ^= low
    return out & w


def _sequence(succ, full, order, lazy):
    """The cop sets that play the eliminations ``order`` (vertex bits)."""
    seq = []
    cops = 0
    w = 0
    r = full
    for low in order:
        if lazy:
            b = _boundary(succ, reach_mask(succ, low, w), w)
            if b & ~cops:
                seq.append(b)
            cops = b | low
        else:
            cops = _boundary(succ, r, w) | low
        seq.append(cops)
        w |= low
        r ^= low
    return seq


def _toggles(n, k, cmask):
    """Cop sets one lift or one placement away from ``cmask``, in vertex order."""
    if cmask.bit_count() < k:
        return [cmask ^ (1 << v) for v in range(n)]
    out = []
    f = cmask
    while f:
        low = f & -f
        out.append(cmask ^ low)
        f ^= low
    return out

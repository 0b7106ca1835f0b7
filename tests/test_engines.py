"""Solver kernels: golden digests of their outputs, agreement with the
former kernels kept in ``tests/oracles.py`` (winners, strategies,
certificates) and with its count of the visible kernel's work (the
transitions that feed the budget), and the full-size cop moves of plain
visible solves."""
import hashlib
import random

import pytest

from copwin import engine
from copwin.arena import VISIBLE_FAST, VISIBLE_FAST_SCC
from copwin.bits import mask_to_tuple, subsets_upto
from copwin.digraph import Digraph, fingerprint
from copwin.errors import StateBudgetExceededError
from copwin.solver import Certificate, solve, verify_certificate
from oracles import (
    enumerate_arc_lists,
    naive_solve_invisible,
    naive_solve_visible,
    naive_visible_count,
    reachable_strategy,
)


def _random_instance(rng, max_n=6):
    n = rng.randint(0, max_n)
    succ = [0] * n
    pred = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < rng.choice([0.2, 0.4, 0.6]):
                succ[u] |= 1 << v
                pred[v] |= 1 << u
    return n, succ, pred


# SHA-256 of every kernel result on two random streams (seeds 1 and 2,
# 150 instances each, every flag combination).  The generous budget pins
# winners, strategies, sequences and transition counts; the small
# budgets also pin the (budget, explored) pair carried by
# StateBudgetExceededError, so the point where a solve gives up cannot
# move either.  GOLDEN_VISIBLE was re-recorded when the visible kernel
# began sharing robber responses (one response node per move and landing
# set), which changed the counts and so the give-up points, and again
# when it began returning only the positions its strategy reaches from
# the starts; GOLDEN_VISIBLE_STRATEGY (winners and strategies) was
# re-recorded with it.  The second time, the former kernel's results,
# with its full strategy maps restricted by ``reachable_strategy``, gave
# the new digests.  The invisible stream is split by mode: the plain
# digests were recorded on the one-vertex-move search, the monotone ones
# on the one-vertex-elimination search.
GOLDEN_BUDGETS = (3, 40, 400, 3000)
GOLDEN_VISIBLE_STRATEGY = "3edba22df4a2cb66fab8cbefac5cc16b2a96b0eff473b666b82d9728b294fce6"
GOLDEN_VISIBLE = {
    (10**7,): "8c63248e03c48ca6a5eea0722e6bf3c15ccd58afda2763ca7e04de6ae5e5dadf",
    GOLDEN_BUDGETS: "305189be7ecbcf7294a2f7a6bd3c73016ba6e9d18116db62b3566b46433efc45",
}
GOLDEN_INVISIBLE = {
    (10**7,): "a1f7536fed00dc4ac4ead8e51d5a801ec707bd53bd6abefd457ff6c16a847ff2",
    GOLDEN_BUDGETS: "e5c8d6c7a933c531f3babe89a541a07b25ffec16e4c3ed3f7a13787272bd14c7",
}
GOLDEN_INVISIBLE_PLAIN = {
    (10**7,): "1b81824d2bcb29f1031c705bd3e669f42179f3d397a5f4c14faff9894348dcc9",
    GOLDEN_BUDGETS: "85b2729a76ac837cf23168f0b84c653d2910ceac11b952962f3dbecb6faa8c6d",
}


def _golden_entry(call):
    try:
        cops_win, plan, transitions = call()
    except StateBudgetExceededError as exc:
        return ("budget", exc.budget, exc.explored)
    if isinstance(plan, dict):
        plan = sorted(plan.items())
    return (cops_win, plan, transitions)


def _visible_stream():
    """Kernel arguments but the budget: 150 random instances, every flag combination."""
    rng = random.Random(1)
    for trial in range(150):
        n, succ, _ = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for mono in (False, True):
            for strong in (False, True):
                yield succ, n, moves, mono, strong


def _visible_digest(budgets):
    h = hashlib.sha256()
    for args in _visible_stream():
        for budget in budgets:
            entry = _golden_entry(lambda: engine.solve_visible(*args, budget))
            h.update(repr(entry).encode())
    return h.hexdigest()


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_visible_golden_digest(budgets):
    assert _visible_digest(budgets) == GOLDEN_VISIBLE[budgets]


def test_visible_strategy_digest():
    h = hashlib.sha256()
    for args in _visible_stream():
        cops_win, strategy, _ = engine.solve_visible(*args, 10**7)
        h.update(repr((cops_win, strategy and sorted(strategy.items()))).encode())
    assert h.hexdigest() == GOLDEN_VISIBLE_STRATEGY


def _invisible_digest(budgets, mono):
    rng = random.Random(2)
    h = hashlib.sha256()
    for trial in range(150):
        n, succ, pred = _random_instance(rng)
        k = rng.randint(0, n)
        for lazy in (False, True):
            for budget in budgets:
                entry = _golden_entry(lambda: engine.solve_invisible(
                    succ, pred, n, k, lazy, mono, budget))
                h.update(repr(entry).encode())
    return h.hexdigest()


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_invisible_golden_digest(budgets):
    assert _invisible_digest(budgets, True) == GOLDEN_INVISIBLE[budgets]


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_invisible_plain_golden_digest(budgets):
    assert _invisible_digest(budgets, False) == GOLDEN_INVISIBLE_PLAIN[budgets]


def _dense_instance(rng, n, p, shape):
    """Random arcs on n vertices: any direction, bidirected pairs, or
    acyclic (arcs only from a lower to a higher position of a random order)."""
    order = list(range(n))
    rng.shuffle(order)
    succ = [0] * n
    pred = [0] * n
    for i in range(n):
        for j in range(n):
            u, v = order[i], order[j]
            if i == j or (i > j and shape != "any") or rng.random() >= p:
                continue
            for a, b in ((u, v), (v, u)) if shape == "bidirected" else ((u, v),):
                succ[a] |= 1 << b
                pred[b] |= 1 << a
    return succ, pred


def _dense_cases():
    """(trial, shape, succ, pred, n, moves): dense n = 7..9 graphs of every shape."""
    rng = random.Random(5)
    cases = [(7, 3), (7, 3), (8, 2), (8, 3), (9, 2), (9, 2)]
    for trial, (n, k) in enumerate(cases):
        for shape in ("any", "bidirected", "acyclic"):
            p = rng.choice([0.3, 0.4, 0.5, 0.6])
            succ, pred = _dense_instance(rng, n, p, shape)
            yield trial, shape, succ, pred, n, subsets_upto(n, k)


def _check_visible(succ, pred, n, moves, where):
    """Every mode: the vertex-level oracle's winner, its strategy restricted
    to the positions play reaches, and the count ``naive_visible_count``
    derives from the rules."""
    for mono in (False, True):
        for strong in (False, True):
            got = engine.solve_visible(succ, n, moves, mono, strong, 10**9)
            cops_win, strategy, _ = naive_solve_visible(
                succ, pred, n, moves, mono, strong, 10**9)
            if cops_win:
                strategy = reachable_strategy(succ, pred, n, strategy, strong)
            assert got[:2] == (cops_win, strategy), (where, mono, strong)
            assert got[2] == naive_visible_count(succ, pred, n, moves, mono, strong), (
                where, mono, strong)


@pytest.mark.parametrize("n", range(5))
def test_visible_kernel_matches_oracles_census(n):
    # every labeled digraph with n <= 4, every cop count
    for arcs in enumerate_arc_lists(n):
        d = Digraph(n, arcs)
        for k in range(n + 1):
            _check_visible(d.succ_masks, d.pred_masks, n, subsets_upto(n, k), (arcs, k))


def test_visible_kernel_matches_oracles_random():
    rng = random.Random(8)
    for trial in range(60):
        n = rng.randint(5, 9)
        p = rng.choice([0.2, 0.3, 0.45, 0.6])
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < p])
        k = rng.randint(1, 3)
        _check_visible(d.succ_masks, d.pred_masks, n, subsets_upto(n, k), (trial, d.arcs, k))


def test_visible_quotient_matches_vertex_level_oracle():
    # Dense n = 7..9 graphs put many robber spots in one strong component
    # of D - C, unlike the n <= 6 digest streams, and many classes share
    # one robber response.  Budgets at and above the count change
    # nothing; budgets of 1, a third of the count and one transition
    # short must give up.
    for trial, shape, succ, pred, n, moves in _dense_cases():
        _check_visible(succ, pred, n, moves, (trial, shape))
        for mono in (False, True):
            for strong in (False, True):
                args = (succ, n, moves, mono, strong)
                where = (trial, shape, mono, strong)
                got = engine.solve_visible(*args, 10**9)
                count = got[2]
                for budget in (count, 2 * count):
                    assert engine.solve_visible(*args, budget) == got, where
                for budget in (1, count // 3, count - 1):
                    with pytest.raises(StateBudgetExceededError) as err:
                        engine.solve_visible(*args, budget)
                    assert err.value.budget == budget, where
                    assert err.value.explored > budget, where


# SHA-256 of the monotone reachability-confined solves of _dense_cases:
# winner, strategy and count, then the (budget, explored) pair of
# StateBudgetExceededError at 20 budgets spread over 1..count.  The
# n <= 6 golden streams pin where a solve gives up only on small graphs;
# this pins it where territories span many classes and many monotone
# moves are vetoed.  Re-recorded when the visible kernel began sharing
# robber responses, which changed only the counts and give-up points
# (winners and strategies are those of the kernel that walked each
# move's responses), and again when it began returning only the
# positions its strategy reaches, which the former kernel's maps
# restricted by ``reachable_strategy`` reproduce.
GOLDEN_VISIBLE_MONOTONE_DENSE = "e4f2adcd6b72f8a6d65498742a780a9a50d42cadf2eddbacb32e6bb6a0f7269a"


def test_visible_monotone_dense_count_digest():
    h = hashlib.sha256()
    for _, _, succ, _, n, moves in _dense_cases():
        args = (succ, n, moves, True, False)
        got = _golden_entry(lambda: engine.solve_visible(*args, 10**9))
        h.update(repr(got).encode())
        count = got[2]
        for budget in sorted({1 + (count - 1) * i // 19 for i in range(20)}):
            entry = _golden_entry(lambda: engine.solve_visible(*args, budget))
            h.update(repr((budget, entry)).encode())
    assert h.hexdigest() == GOLDEN_VISIBLE_MONOTONE_DENSE


def _check_invisible(n, arcs, ks):
    """Plain and monotone: the oracle's verdict and, on a cop win, a
    certificate that verifies in the same mode."""
    d = Digraph(n, arcs)
    succ = d.succ_masks
    pred = d.pred_masks
    for k in ks:
        moves = subsets_upto(n, k)
        for lazy in (True, False):
            for mono in (False, True):
                where = (arcs, k, lazy, mono)
                win, seq, _ = engine.solve_invisible(succ, pred, n, k, lazy, mono, 10**8)
                assert win == naive_solve_invisible(succ, n, moves, lazy, mono, 10**8)[0], where
                if win:
                    cert = Certificate(
                        variant="invisible-lazy" if lazy else "invisible-fast",
                        k=k,
                        monotone=mono,
                        graph_sha256=fingerprint(d),
                        kind="sequence",
                        body=tuple(mask_to_tuple(c) for c in seq),
                    )
                    assert verify_certificate(d, cert).valid, where


def test_invisible_moves_match_subset_oracle_census():
    # every labeled digraph with n <= 4, every cop count
    for n in range(5):
        for arcs in enumerate_arc_lists(n):
            _check_invisible(n, arcs, range(n + 1))


def test_invisible_moves_match_subset_oracle_random():
    rng = random.Random(6)
    for trial in range(40):
        n = rng.randint(5, 8)
        p = rng.choice([0.2, 0.3, 0.45])
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        _check_invisible(n, arcs, (rng.randint(1, 3),))


def _check_full_size_moves(n, arcs, ks):
    """Plain visible ``solve`` against the kernel on every move of at most k
    cops: the same verdict, and on a cop win a certificate that verifies
    and names only the empty set and sets of exactly k vertices."""
    d = Digraph(n, arcs)
    for k in ks:
        every_move = subsets_upto(n, k)
        for variant in (VISIBLE_FAST, VISIBLE_FAST_SCC):
            strong = variant is VISIBLE_FAST_SCC
            where = (n, arcs, k, variant.name)
            got = solve(d, k, variant)
            want = engine.solve_visible(
                d.succ_masks, n, every_move, False, strong, 10**8)
            assert got.cops_win == want[0], where
            if got.cops_win:
                assert verify_certificate(d, got.certificate).valid, where
                for cops, _, move in got.certificate.body:
                    assert len(cops) in (0, k) and len(move) in (0, k), where


def test_full_size_visible_moves_match_every_move_census():
    # every labeled digraph with n <= 4, every cop count; the every-move
    # kernel is itself pinned to naive_solve_visible above
    for n in range(5):
        for arcs in enumerate_arc_lists(n):
            _check_full_size_moves(n, arcs, range(n + 1))


def test_full_size_visible_moves_match_every_move_random():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(5, 8)
        p = rng.choice([0.2, 0.3, 0.45])
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        _check_full_size_moves(n, arcs, (rng.randint(1, 3),))

"""Solver kernels: golden digests of their outputs, and agreement with
the former kernels kept in ``tests/oracles.py`` (winners, strategies,
certificates, and how the transition counts that feed the budget compare)."""
import hashlib
import random

import pytest

from copwin.bits import mask_to_tuple, subsets_upto
from copwin.digraph import Digraph, fingerprint
from copwin.engine import pykernels
from copwin.errors import StateBudgetExceededError
from copwin.solver import Certificate, verify_certificate
from oracles import enumerate_arc_lists, naive_solve_invisible, naive_solve_visible


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
# move either.  The visible digests were recorded on the quotient
# count; GOLDEN_VISIBLE_STRATEGY pins winners and strategies only and
# was recorded on the vertex-level count, so it shows that the count
# change moved nothing else.  The invisible stream is split by mode: the
# plain digests were recorded on the one-vertex-move search, the
# monotone ones on the one-vertex-elimination search.
GOLDEN_BUDGETS = (3, 40, 400, 3000)
GOLDEN_VISIBLE_STRATEGY = "ff07f01430a41bfc9d7b35c68fd64e4187467449da68931671998e635ef2629d"
GOLDEN_VISIBLE = {
    (10**7,): "9287dd6fe3dac07d12172e03387264edd73cc7953987857a6e52165ed80d0402",
    GOLDEN_BUDGETS: "89fa1e66e39d69b5889e4a6ca6981272a5776e15a210ad7072159e88b6306823",
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
        n, succ, pred = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for mono in (False, True):
            for strong in (False, True):
                yield succ, pred, n, moves, mono, strong


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_visible_golden_digest(budgets):
    h = hashlib.sha256()
    for args in _visible_stream():
        for budget in budgets:
            entry = _golden_entry(lambda: pykernels.solve_visible(*args, budget))
            h.update(repr(entry).encode())
    assert h.hexdigest() == GOLDEN_VISIBLE[budgets]


def test_visible_strategy_digest():
    h = hashlib.sha256()
    for args in _visible_stream():
        cops_win, strategy, _ = pykernels.solve_visible(*args, 10**7)
        h.update(repr((cops_win, strategy and sorted(strategy.items()))).encode())
    assert h.hexdigest() == GOLDEN_VISIBLE_STRATEGY


def _invisible_digest(budgets, mono):
    rng = random.Random(2)
    h = hashlib.sha256()
    for trial in range(150):
        n, succ, _ = _random_instance(rng)
        k = rng.randint(0, n)
        for lazy in (False, True):
            for budget in budgets:
                entry = _golden_entry(lambda: pykernels.solve_invisible(
                    succ, n, k, lazy, mono, budget))
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


def test_visible_quotient_matches_vertex_level_oracle():
    # Dense n = 7..9 graphs put many robber spots in one strong component
    # of D - C, unlike the n <= 6 digest streams; in acyclic graphs every
    # component is one vertex, so the quotient count is the vertex-level
    # count.  Budgets at and above the count change nothing; budgets of
    # 1, a third of the count and one transition short must give up.
    rng = random.Random(5)
    cases = [(7, 3), (7, 3), (8, 2), (8, 3), (9, 2), (9, 2)]
    for trial, (n, k) in enumerate(cases):
        for shape in ("any", "bidirected", "acyclic"):
            p = rng.choice([0.3, 0.4, 0.5, 0.6])
            succ, pred = _dense_instance(rng, n, p, shape)
            moves = subsets_upto(n, k)
            for mono in (False, True):
                for strong in (False, True):
                    args = (succ, pred, n, moves, mono, strong)
                    where = (trial, shape, mono, strong)
                    win, strategy, vertex_level = naive_solve_visible(*args, 10**9)
                    got = pykernels.solve_visible(*args, 10**9)
                    count = got[2]
                    assert got[:2] == (win, strategy), where
                    if shape == "acyclic":
                        assert count == vertex_level, where
                    else:
                        assert count <= vertex_level, where
                    for budget in (count, 2 * count):
                        assert pykernels.solve_visible(*args, budget) == got, where
                    for budget in (1, count // 3, count - 1):
                        with pytest.raises(StateBudgetExceededError) as err:
                            pykernels.solve_visible(*args, budget)
                        assert err.value.budget == budget, where
                        assert err.value.explored > budget, where


def _check_invisible(n, arcs, ks):
    """Plain and monotone: the oracle's verdict and, on a cop win, a
    certificate that verifies in the same mode."""
    d = Digraph(n, arcs)
    succ = d.succ_masks
    for k in ks:
        moves = subsets_upto(n, k)
        for lazy in (True, False):
            for mono in (False, True):
                where = (arcs, k, lazy, mono)
                win, seq, _ = pykernels.solve_invisible(succ, n, k, lazy, mono, 10**8)
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

"""Backend parity: the compiled kernels must be bit-for-bit equivalent
to the pure-Python ones (winners, strategies, sequences, and the
transition counts that feed the budget)."""
import hashlib
import random

import pytest

from copwin.bits import subsets_upto
from copwin.engine import available_backends, get_backend, pykernels
from copwin.errors import StateBudgetExceededError
from oracles import naive_solve_visible

HAVE_C = "c" in available_backends()

needs_c = pytest.mark.skipif(not HAVE_C, reason="compiled kernels not built")


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


# SHA-256 of every pure-Python kernel result on the parity-test streams
# (seeds 1 and 2, 150 instances each, every flag combination).  The
# generous budget pins winners, strategies, sequences and transition
# counts; the small budgets also pin the (budget, explored) pair carried
# by StateBudgetExceededError, so the point where a solve gives up
# cannot move either.
GOLDEN_BUDGETS = (3, 40, 400, 3000)
GOLDEN_VISIBLE = {
    (10**7,): "7b76f15057a47b6f2f09529d060e5b5cf37d79760a1741568fad2c75cede213c",
    GOLDEN_BUDGETS: "b131498cc921e73060e94e38bf88d61047876bac6f61b37401eb68a86c463f72",
}
GOLDEN_INVISIBLE = {
    (10**7,): "c58733f0c08ea71954d27c0eb3b2edde45312b34311914b441826a90aedecc5e",
    GOLDEN_BUDGETS: "692b9c20a83a1261f66422cd563ba905cc921c91075e2d7997f3f0ae57f653cb",
}


def _golden_entry(call):
    try:
        cops_win, plan, transitions = call()
    except StateBudgetExceededError as exc:
        return ("budget", exc.budget, exc.explored)
    if isinstance(plan, dict):
        plan = sorted(plan.items())
    return (cops_win, plan, transitions)


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_visible_golden_digest(budgets):
    rng = random.Random(1)
    h = hashlib.sha256()
    for trial in range(150):
        n, succ, pred = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for mono in (False, True):
            for strong in (False, True):
                for budget in budgets:
                    entry = _golden_entry(lambda: pykernels.solve_visible(
                        succ, pred, n, moves, mono, strong, budget))
                    h.update(repr(entry).encode())
    assert h.hexdigest() == GOLDEN_VISIBLE[budgets]


@pytest.mark.parametrize("budgets", [(10**7,), GOLDEN_BUDGETS], ids=["ample", "small"])
def test_invisible_golden_digest(budgets):
    rng = random.Random(2)
    h = hashlib.sha256()
    for trial in range(150):
        n, succ, _ = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for lazy in (False, True):
            for mono in (False, True):
                for budget in budgets:
                    entry = _golden_entry(lambda: pykernels.solve_invisible(
                        succ, n, moves, lazy, mono, budget))
                    h.update(repr(entry).encode())
    assert h.hexdigest() == GOLDEN_INVISIBLE[budgets]


def _dense_instance(rng, n, p, bidirected):
    succ = [0] * n
    pred = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and (u < v or not bidirected) and rng.random() < p:
                for a, b in ((u, v), (v, u)) if bidirected else ((u, v),):
                    succ[a] |= 1 << b
                    pred[b] |= 1 << a
    return succ, pred


def test_visible_quotient_matches_vertex_level_oracle():
    # Dense n = 7..9 graphs put many robber spots in one strong component
    # of D - C, unlike the n <= 6 digest streams.  The budgets cut the
    # solve at the pre-flight, a third of the way, one transition short
    # and exactly at the end, pinning the (budget, explored) pair.
    rng = random.Random(5)
    cases = [(7, 3), (7, 3), (8, 2), (8, 3), (9, 2), (9, 2)]
    for trial, (n, k) in enumerate(cases):
        for bidirected in (False, True):
            p = rng.choice([0.3, 0.4, 0.5, 0.6])
            succ, pred = _dense_instance(rng, n, p, bidirected)
            moves = subsets_upto(n, k)
            for mono in (False, True):
                for strong in (False, True):
                    args = (succ, pred, n, moves, mono, strong)
                    expect = naive_solve_visible(*args, 10**9)
                    assert pykernels.solve_visible(*args, 10**9) == expect
                    total = expect[2]
                    for budget in (1, total // 3, total - 1, total):
                        want = _golden_entry(lambda: naive_solve_visible(*args, budget))
                        got = _golden_entry(lambda: pykernels.solve_visible(*args, budget))
                        assert got == want, (trial, bidirected, mono, strong, budget)


@needs_c
def test_visible_parity():
    ck = available_backends()["c"]
    rng = random.Random(1)
    for trial in range(150):
        n, succ, pred = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for mono in (False, True):
            for strong in (False, True):
                a = pykernels.solve_visible(succ, pred, n, moves, mono, strong, 10**7)
                b = ck.solve_visible(succ, pred, n, moves, mono, strong, 10**7)
                assert a == b


@needs_c
def test_invisible_parity():
    ck = available_backends()["c"]
    rng = random.Random(2)
    for trial in range(150):
        n, succ, _ = _random_instance(rng)
        k = rng.randint(0, n)
        moves = subsets_upto(n, k)
        for lazy in (False, True):
            for mono in (False, True):
                a = pykernels.solve_invisible(succ, n, moves, lazy, mono, 10**7)
                b = ck.solve_invisible(succ, n, moves, lazy, mono, 10**7)
                assert a == b


@needs_c
def test_reach_parity():
    ck = available_backends()["c"]
    rng = random.Random(3)
    for trial in range(200):
        n, succ, _ = _random_instance(rng, max_n=10)
        src = rng.getrandbits(n) if n else 0
        forb = rng.getrandbits(n) if n else 0
        assert pykernels.reach_mask(succ, src, forb) == ck.reach_mask(succ, src, forb)


@needs_c
def test_budget_errors_identical():
    ck = available_backends()["c"]
    succ = [0b010, 0b100, 0b001]
    pred = [0b100, 0b001, 0b010]
    moves = subsets_upto(3, 1)
    for backend in (pykernels, ck):
        with pytest.raises(StateBudgetExceededError):
            backend.solve_visible(succ, pred, 3, moves, False, False, 5)
        with pytest.raises(StateBudgetExceededError):
            backend.solve_invisible(succ, 3, moves, True, False, 2)


@needs_c
def test_end_to_end_outcomes_identical_across_backends():
    from copwin.arena import INVISIBLE_FAST, INVISIBLE_LAZY, VISIBLE_FAST
    from copwin.lab import random_digraph
    from copwin.solver import solve

    rng = random.Random(9)
    for trial in range(15):
        n = rng.randint(1, 5)
        d = random_digraph(n, 0.4, 777 + trial)
        for variant in (VISIBLE_FAST, INVISIBLE_LAZY, INVISIBLE_FAST):
            for mono in (False, True):
                for k in range(n + 1):
                    a = solve(d, k, variant, mono, engine="py")
                    b = solve(d, k, variant, mono, engine="c")
                    assert a == b  # winner, certificate, and state count


def test_backend_selection():
    assert get_backend("py") is pykernels
    if HAVE_C:
        assert get_backend("c").NAME == "c"
        # oversized vertex counts fall back to the pure backend
        assert get_backend("c", n=63) is pykernels
        assert get_backend(None, n=4).NAME in ("c", "py")
    with pytest.raises(ValueError):
        get_backend("fortran")


def test_env_override(monkeypatch):
    monkeypatch.setenv("COPWIN_ENGINE", "py")
    from copwin.engine import default_backend_name

    assert default_backend_name() == "py"
    monkeypatch.setenv("COPWIN_ENGINE", "bogus")
    with pytest.raises(ValueError):
        default_backend_name()

import itertools
import random
from dataclasses import replace

import pytest

from copwin.arena import (
    INVISIBLE_FAST,
    INVISIBLE_LAZY,
    SUPPORTED_VARIANTS,
    VISIBLE_FAST,
    GameVariant,
    contaminate_mask,
    robber_options_mask,
)
from copwin.bits import iter_bits, mask_from, subsets_of_size, subsets_upto
from copwin.digraph import Digraph, reach_mask
from copwin.errors import CertificateError, UnsupportedVariantError
from copwin.lab import random_digraph
from copwin.solver import solve, verify_certificate
from oracles import bidirect, enumerate_arc_lists

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
CHAIN = Digraph(3, [(0, 1), (1, 2)])


def opts(d, cops, next_cops, robber, strong=False):
    """Landing spots of the visible robber, as a set."""
    return set(iter_bits(robber_options_mask(d, mask_from(cops), mask_from(next_cops),
                                             robber, strong)))


def cont(d, cops, next_cops, contaminated, lazy):
    """Contamination after a cop move, as a set."""
    return set(iter_bits(contaminate_mask(d, mask_from(cops), mask_from(next_cops),
                                          mask_from(contaminated), lazy)))


def _random_set(rng, n, p, exclude=()):
    return {v for v in range(n) if v not in exclude and rng.random() < p}


# ---------------------------------------------------------------------------
# variants and positions
# ---------------------------------------------------------------------------

def test_supported_variant_names():
    assert GameVariant.from_name("visible") is VISIBLE_FAST
    assert GameVariant.from_name("inert") is INVISIBLE_LAZY
    assert GameVariant.from_name("invisible-fast") is INVISIBLE_FAST
    assert GameVariant.from_name("dpw") is INVISIBLE_FAST


def test_unsupported_variants_rejected():
    # GameVariant(name, visible, lazy, strong): only the four rows of the table
    with pytest.raises(UnsupportedVariantError):
        GameVariant("visible-lazy", True, True, False)
    with pytest.raises(UnsupportedVariantError):
        GameVariant("invisible-lazy-scc", False, True, True)
    with pytest.raises(UnsupportedVariantError):
        GameVariant("invisible-fast-scc", False, False, True)
    # a supported name with another game's flags, or a name outside the table
    with pytest.raises(UnsupportedVariantError):
        GameVariant("visible-fast", True, False, True)
    with pytest.raises(UnsupportedVariantError):
        GameVariant("visible", True, False, False)
    with pytest.raises(UnsupportedVariantError):
        GameVariant.from_name("nonsense")


def test_variant_table():
    assert [(v.name, v.visible, v.lazy, v.strong) for v in SUPPORTED_VARIANTS] == [
        ("visible-fast", True, False, False),
        ("invisible-lazy", False, True, False),
        ("invisible-fast", False, False, False),
        ("visible-fast-scc", True, False, True),
    ]
    assert GameVariant("invisible-lazy", False, True, False) == INVISIBLE_LAZY
    for name in ("visible", "visible-fast", "inert", "invisible-lazy",
                 "invisible-fast", "dpw", "visible-fast-scc"):
        assert GameVariant.from_name(name.upper()) in SUPPORTED_VARIANTS
    with pytest.raises(UnsupportedVariantError, match="one of: dpw, inert, invisible-fast, "
                       "invisible-lazy, visible, visible-fast, visible-fast-scc$"):
        GameVariant.from_name("nonsense")


def test_positions_validate():
    # every successor position is valid: the robber never lands on a cop,
    # and contamination is disjoint from the new cop set
    rng = random.Random(31)
    for trial in range(100):
        n = rng.randint(1, 7)
        d = random_digraph(n, rng.choice([0.2, 0.4, 0.6]), trial)
        c = _random_set(rng, n, 0.3)
        c2 = _random_set(rng, n, 0.3)
        r = _random_set(rng, n, 0.6, exclude=c)
        assert not cont(d, c, c2, r, True) & c2
        assert not cont(d, c, c2, r, False) & c2
        for robber in set(range(n)) - c:
            assert not opts(d, c, c2, robber) & c2


# ---------------------------------------------------------------------------
# cop moves
# ---------------------------------------------------------------------------

def test_cop_moves_counts():
    assert len(subsets_upto(3, 1)) == 4
    assert len(subsets_upto(3, 3)) == 8
    assert subsets_upto(0, 0) == [0]


def test_cop_moves_unique_and_bounded():
    moves = subsets_upto(3, 2)
    assert len(moves) == len(set(moves)) == 7
    assert all(c.bit_count() <= 2 for c in moves)
    assert moves[0] == 0


def test_cop_moves_budget_validated():
    for variant in SUPPORTED_VARIANTS:
        with pytest.raises(ValueError):
            solve(C3, 4, variant)
        with pytest.raises(ValueError):
            solve(C3, -1, variant)


def test_cop_moves_follows_canonical_solver_order():
    # lexicographic order of the ascending vertex tuples, empty set first;
    # the full-size sets of plain visible solves keep that order
    for n in range(6):
        for k in range(n + 1):
            tuples = sorted(
                t for size in range(k + 1) for t in itertools.combinations(range(n), size)
            )
            assert subsets_upto(n, k) == [mask_from(t) for t in tuples]
            assert subsets_of_size(n, k) == [mask_from(t) for t in tuples if len(t) == k]


# ---------------------------------------------------------------------------
# robber options
# ---------------------------------------------------------------------------

def test_robber_options_examples():
    assert opts(C3, [], [0], 0) == {1, 2}
    # lifting every cop never captures: r itself stays reachable
    for d in (C3, CHAIN):
        for r in range(d.n):
            assert r in opts(d, [v for v in range(d.n) if v != r][:1], [], r)
    assert opts(CHAIN, [], [2], 2) == set()


def test_robber_options_avoid_only_stationary_cops():
    # cop moving 0 -> 1 on the chain: guard is empty, robber at 2 keeps {2}
    assert opts(CHAIN, [0], [1], 2) == {2}
    # stationary cop at 1 blocks the chain: robber at 0 trapped at 0, then caught
    assert opts(CHAIN, [1], [1, 0], 0) == set()


def test_robber_options_strong_component_confinement():
    # one big cycle: without confinement the robber may run anywhere ahead;
    # the strong component of C3 minus nothing is everything, so equal here
    assert opts(C3, [], [0], 0, strong=True) == {1, 2}
    # chain has singleton components: a fast robber may still only sit still
    assert opts(CHAIN, [], [1], 0, strong=True) == {0}


def _check_boundary_lemma(d, k):
    """The boundary lemma of the monotone visible kernel, on every class of
    D - C and every move C -> C' of at most k cops, from the game
    semantics alone: with T the class's territory and B the cops of C
    with an arc from T, a response re-grows the territory iff C' misses
    a cop of B, and a move that keeps B leaves the robber T - C'.  Under
    strong confinement a move that keeps B is never vetoed."""
    n = d.n
    succ = d.succ_masks
    cop_sets = subsets_upto(n, k)
    space = {(c, x): reach_mask(succ, 1 << x, c)
             for c in cop_sets for x in range(n) if not c >> x & 1}
    for c in cop_sets:
        for r in range(n):
            if c >> r & 1:
                continue
            t = space[c, r]
            cls = sum(1 << u for u in iter_bits(t) if space[c, u] >> r & 1)
            if cls & -cls != 1 << r:  # one robber vertex per class: its lowest
                continue
            b = c & mask_from(v for u in iter_bits(t) for v in iter_bits(succ[u]))
            for c2 in cop_sets:
                keeps = c2 & b == b
                for strong in (False, True):
                    where = (d.arcs, c, r, c2, strong)
                    landing = robber_options_mask(d, c, c2, r, strong)
                    vetoed = any(space[c2, x] & ~t for x in iter_bits(landing))
                    if strong:
                        assert not (keeps and vetoed), where
                    else:
                        assert vetoed != keeps, where
                        if keeps:
                            assert landing == t & ~c2, where


def test_boundary_lemma_census():
    # every labeled digraph with n <= 4; k = n admits every pair of cop
    # sets, so it covers every smaller k as well
    for n in range(5):
        for arcs in enumerate_arc_lists(n):
            _check_boundary_lemma(Digraph(n, arcs), n)


def test_boundary_lemma_random():
    rng = random.Random(8)
    for trial in range(40):
        n = rng.randint(5, 7)
        _check_boundary_lemma(random_digraph(n, rng.choice([0.2, 0.3, 0.45]), trial),
                              rng.randint(1, 3))


def test_robber_options_rejects_robber_on_cop():
    # a certificate is the one input that names positions: an entry with
    # the robber on a cop is malformed, not a game result
    out = solve(C3, 2, VISIBLE_FAST)
    cops, robber, move = next(e for e in out.certificate.body if e[0])
    bad = replace(out.certificate, body=out.certificate.body + ((cops, cops[0], move),))
    with pytest.raises(CertificateError, match="robber on a cop"):
        verify_certificate(C3, bad)


# ---------------------------------------------------------------------------
# contamination
# ---------------------------------------------------------------------------

def test_contaminate_examples():
    assert cont(C3, [], [0], [0, 1, 2], True) == {1, 2}
    assert cont(CHAIN, [], [0], [1, 2], True) == {1, 2}
    assert cont(CHAIN, [0], [0, 1], [1, 2], False) == {2}


def test_contaminate_rejects_overlap():
    # contamination never overlaps the cop set along any play from (0, V),
    # so no reachable state has the overlap the update rule excludes
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(1, 7)
        d = random_digraph(n, 0.4, trial)
        for lazy in (True, False):
            c, r = 0, d.full_mask
            for step in range(8):
                c2 = mask_from(_random_set(rng, n, 0.3))
                r = contaminate_mask(d, c, c2, r, lazy)
                c = c2
                assert r & c == 0


def test_lazy_subset_of_fast_on_random_instances():
    rng = random.Random(4242)
    for trial in range(120):
        n = rng.randint(1, 8)
        d = random_digraph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
        c = _random_set(rng, n, 0.3)
        c2 = _random_set(rng, n, 0.3)
        r = _random_set(rng, n, 0.6, exclude=c)
        assert cont(d, c, c2, r, True) <= cont(d, c, c2, r, False)


def test_cop_idle_step_changes_nothing():
    rng = random.Random(99)
    for trial in range(80):
        n = rng.randint(1, 7)
        d = random_digraph(n, 0.4, trial)
        c = _random_set(rng, n, 0.3)
        r = _random_set(rng, n, 0.6, exclude=c)
        assert cont(d, c, c, r, True) == r
        # for a fast robber the idle step fixes exactly the game-closed sets,
        # i.e. those already closed under out-arcs avoiding the cops
        closed = set(iter_bits(reach_mask(d.succ_masks, mask_from(r), mask_from(c))))
        assert cont(d, c, c, closed, False) == closed


def test_arc_deletion_dominance():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(2, 7)
        d = random_digraph(n, 0.5, trial)
        if not d.arcs:
            continue
        drop = {a for a in d.arcs if rng.random() < 0.4}
        d2 = Digraph(n, [a for a in d.arcs if a not in drop])
        c = _random_set(rng, n, 0.25)
        c2 = _random_set(rng, n, 0.25)
        r = _random_set(rng, n, 0.6, exclude=c)
        for lazy in (True, False):
            assert cont(d2, c, c2, r, lazy) <= cont(d, c, c2, r, lazy)
        for robber in set(range(n)) - c:
            assert opts(d2, c, c2, robber) <= opts(d, c, c2, robber)


# ---------------------------------------------------------------------------
# robber space / monotonicity / initial states
# ---------------------------------------------------------------------------

def test_robber_space_examples():
    def space(d, cops, robber):
        return set(iter_bits(reach_mask(d.succ_masks, 1 << robber, mask_from(cops))))

    assert space(C3, [1], 0) == {0}
    assert space(C3, [], 0) == {0, 1, 2}
    k3 = bidirect(3, [(0, 1), (0, 2), (1, 2)])
    assert space(k3, [2], 0) == {0, 1}


def test_is_monotone_transition():
    # inert robber on the chain, one cop: the play {2} -> {0} -> {1} -> {2}
    # clears the graph but recontaminates 2 on its second move, which a
    # monotone certificate may not do; {0} -> {1} -> {2} never grows
    out = solve(CHAIN, 1, INVISIBLE_LAZY)
    assert cont(CHAIN, [2], [0], [0, 1], True) == {1, 2}
    assert cont(CHAIN, [0], [1], [1, 2], True) == {2}

    def valid(body, monotone):
        return verify_certificate(CHAIN, replace(out.certificate, monotone=monotone, body=body))

    regrow = ((2,), (0,), (1,), (2,))
    assert valid(regrow, False)
    assert valid(regrow, True).reason == "move 1 recontaminates (2,)"
    assert valid(((0,), (1,), (2,)), True)


def test_initial_states():
    # visible: one start per robber vertex, none for n = 0 (a vacuous cop
    # win); invisible: no cops and everything contaminated
    for variant in (VISIBLE_FAST, INVISIBLE_LAZY, INVISIBLE_FAST):
        out = solve(Digraph(0), 0, variant)
        assert out.cops_win and out.certificate.body == ()
        assert not solve(Digraph(1), 0, variant).cops_win
    assert solve(Digraph(1), 1, INVISIBLE_LAZY).certificate.body == ((0,),)
    assert solve(Digraph(2), 1, VISIBLE_FAST).certificate.body == (
        ((), 0, (0,)), ((), 1, (1,)))

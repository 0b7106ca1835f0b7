import hashlib
import random

import pytest

from copwin import engine, solver
from copwin.arena import (
    INVISIBLE_FAST,
    INVISIBLE_LAZY,
    SUPPORTED_VARIANTS,
    VISIBLE_FAST,
    VISIBLE_FAST_SCC,
)
from copwin.bits import subsets_of_size
from copwin.digraph import Digraph, bidirect, delete_arcs, fingerprint, is_acyclic
from copwin.errors import CertificateError, StateBudgetExceededError
from copwin.lab import random_digraph
from copwin.solver import (
    DEFAULT_STATE_BUDGET,
    Certificate,
    Outcome,
    Winner,
    cop_number,
    gap,
    solve,
    verify_certificate,
)

from oracles import (
    enumerate_arc_lists,
    naive_invisible_cops_win,
    naive_visible_cops_win,
)

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
CHAIN = Digraph(3, [(0, 1), (1, 2)])
SINGLE = Digraph(1)

ALL_VARIANTS = (VISIBLE_FAST, INVISIBLE_LAZY, INVISIBLE_FAST)


# ---------------------------------------------------------------------------
# frozen example values
# ---------------------------------------------------------------------------

def test_visible_c3_values():
    assert solve(C3, 1, VISIBLE_FAST).winner is Winner.ROBBER
    assert solve(C3, 2, VISIBLE_FAST, monotone=True).winner is Winner.COPS
    assert cop_number(C3, VISIBLE_FAST).value == 2


def test_any_small_dag_one_cop_wins():
    for n in range(1, 5):
        for arcs in enumerate_arc_lists(n):
            d = Digraph(n, arcs)
            from copwin.digraph import is_acyclic

            if not is_acyclic(d):
                continue
            assert solve(d, 1, VISIBLE_FAST).cops_win
            assert solve(d, 1, VISIBLE_FAST, monotone=True).cops_win


def test_invisible_single_vertex():
    out = solve(SINGLE, 1, INVISIBLE_LAZY)
    assert out.cops_win
    assert out.certificate.body == ((0,),)
    assert solve(SINGLE, 0, INVISIBLE_LAZY).winner is Winner.ROBBER


def test_invisible_c3_monotone_two_cops():
    assert solve(C3, 2, INVISIBLE_LAZY, monotone=True).cops_win
    assert not solve(C3, 1, INVISIBLE_LAZY).cops_win


def test_cop_number_examples():
    k3 = bidirect(3, [(0, 1), (0, 2), (1, 2)])
    assert cop_number(k3, VISIBLE_FAST).value == 3
    assert cop_number(CHAIN, INVISIBLE_LAZY).value == 1
    assert cop_number(Digraph(0), VISIBLE_FAST).value == 0
    assert cop_number(Digraph(0), INVISIBLE_LAZY).value == 0


def test_solve_default_flags():
    # plain play and reachability confinement unless asked otherwise
    assert solve(C3, 2, VISIBLE_FAST) == solve(C3, 2, VISIBLE_FAST, monotone=False)
    assert solve(C3, 2, VISIBLE_FAST).cops_win
    assert solve(C3, 2, INVISIBLE_LAZY) == solve(C3, 2, INVISIBLE_LAZY, monotone=False)
    assert solve(C3, 2, INVISIBLE_LAZY).cops_win


def test_budget_validation():
    with pytest.raises(ValueError):
        solve(C3, 4, VISIBLE_FAST)
    with pytest.raises(ValueError):
        solve(C3, -1, VISIBLE_FAST)


# ---------------------------------------------------------------------------
# independent-oracle cross-checks
# ---------------------------------------------------------------------------

def test_exhaustive_oracle_cross_check_n_le_3():
    for n in range(4):
        for arcs in enumerate_arc_lists(n):
            d = Digraph(n, arcs)
            for k in range(n + 1):
                for mono in (False, True):
                    assert (
                        solve(d, k, VISIBLE_FAST, mono).cops_win
                        == naive_visible_cops_win(n, arcs, k, mono)
                    ), (arcs, k, mono)
                    assert (
                        solve(d, k, INVISIBLE_LAZY, mono).cops_win
                        == naive_invisible_cops_win(n, arcs, k, True, mono)
                    ), (arcs, k, mono)
                    assert (
                        solve(d, k, INVISIBLE_FAST, mono).cops_win
                        == naive_invisible_cops_win(n, arcs, k, False, mono)
                    ), (arcs, k, mono)


def test_sampled_oracle_cross_check_n4():
    rng = random.Random(424242)
    for trial in range(10):
        arcs = [
            (u, v)
            for u in range(4)
            for v in range(4)
            if u != v and rng.random() < rng.choice([0.25, 0.4, 0.6])
        ]
        d = Digraph(4, arcs)
        for k in range(5):
            for mono in (False, True):
                assert (
                    solve(d, k, VISIBLE_FAST, mono).cops_win
                    == naive_visible_cops_win(4, arcs, k, mono)
                )
                assert (
                    solve(d, k, INVISIBLE_LAZY, mono).cops_win
                    == naive_invisible_cops_win(4, arcs, k, True, mono)
                )


# ---------------------------------------------------------------------------
# determinacy, antitone winners, dominance
# ---------------------------------------------------------------------------

def test_winner_antitone_in_k_sampled():
    rng = random.Random(99)
    for trial in range(25):
        n = rng.randint(1, 6)
        d = random_digraph(n, rng.choice([0.2, 0.4, 0.6]), trial)
        for variant in ALL_VARIANTS:
            for mono in (False, True):
                winners = [solve(d, k, variant, mono).cops_win for k in range(n + 1)]
                assert winners[-1] is True
                # once the cops win, more cops still win
                first = winners.index(True)
                assert all(winners[first:])


def test_monotone_dominance_sampled_n5_n6():
    rng = random.Random(2024)
    for trial in range(12):
        n = rng.choice([5, 6])
        d = random_digraph(n, rng.choice([0.2, 0.35, 0.5]), 1000 + trial)
        for variant in ALL_VARIANTS:
            res = gap(d, variant)
            assert res.monotone_cop_number >= res.cop_number
            assert res.gap >= 0
            assert res.ratio >= 1.0


def test_subgraph_dominance_arc_deletion():
    rng = random.Random(31337)
    for trial in range(10):
        n = rng.randint(2, 6)
        d = random_digraph(n, 0.5, 31337 + trial)
        if not d.arcs:
            continue
        drop = [a for a in d.arcs if rng.random() < 0.4]
        d2 = delete_arcs(d, drop)
        for variant in ALL_VARIANTS:
            for mono in (False, True):
                assert (
                    cop_number(d2, variant, mono).value
                    <= cop_number(d, variant, mono).value
                )


def test_gap_examples():
    res = gap(C3, VISIBLE_FAST)
    assert (res.cop_number, res.monotone_cop_number, res.gap, res.ratio) == (2, 2, 0, 1.0)
    res = gap(SINGLE, INVISIBLE_LAZY)
    assert (res.cop_number, res.monotone_cop_number, res.gap, res.ratio) == (1, 1, 0, 1.0)


def _swept_gap(d, variant):
    return (cop_number(d, variant, False).value, cop_number(d, variant, True).value)


@pytest.mark.parametrize("variant", SUPPORTED_VARIANTS, ids=lambda v: v.name)
def test_gap_matches_both_sweeps_census_n_le_3(variant):
    for n in range(4):
        for arcs in enumerate_arc_lists(n):
            d = Digraph(n, arcs)
            res = gap(d, variant)
            assert (res.cop_number, res.monotone_cop_number) == _swept_gap(d, variant), arcs


@pytest.mark.parametrize("variant", [VISIBLE_FAST, INVISIBLE_LAZY], ids=lambda v: v.name)
def test_gap_matches_both_sweeps_census_n4(variant):
    for arcs in enumerate_arc_lists(4):
        d = Digraph(4, arcs)
        res = gap(d, variant)
        assert (res.cop_number, res.monotone_cop_number) == _swept_gap(d, variant), arcs


def test_gap_matches_both_sweeps_random_n5_n7():
    rng = random.Random(1414)
    for trial in range(40):
        d = random_digraph(rng.randint(5, 7), rng.choice([0.2, 0.35, 0.5]), 1400 + trial)
        variant = SUPPORTED_VARIANTS[trial % 4]
        res = gap(d, variant)
        assert (res.cop_number, res.monotone_cop_number) == _swept_gap(d, variant), trial
        assert res.gap == res.monotone_cop_number - res.cop_number


def test_one_cop_loses_on_any_cycle_census_n_le_4():
    # the cycle lemma behind gap's lower bound of 2
    for n in range(2, 5):
        for arcs in enumerate_arc_lists(n):
            d = Digraph(n, arcs)
            if is_acyclic(d):
                continue
            for variant in SUPPORTED_VARIANTS:
                for mono in (False, True):
                    assert not solve(d, 1, variant, mono).cops_win, (arcs, variant, mono)


def _counting_solve(monkeypatch, real):
    calls = []

    def counted(d, k, variant, monotone=False, state_budget=DEFAULT_STATE_BUDGET):
        calls.append((k, monotone))
        return real(d, k, variant, monotone, state_budget)

    monkeypatch.setattr(solver, "solve", counted)
    return calls


@pytest.mark.parametrize("variant", SUPPORTED_VARIANTS, ids=lambda v: v.name)
def test_gap_solves_once_when_the_bound_is_met(monkeypatch, variant):
    calls = _counting_solve(monkeypatch, solve)
    res = gap(C3, variant)
    assert calls == [(2, True)]
    assert (res.cop_number, res.monotone_cop_number, res.plain.outcome) == (2, 2, None)
    del calls[:]
    res = gap(CHAIN, variant)
    assert calls == [(1, True)]
    assert (res.cop_number, res.monotone_cop_number, res.plain.outcome) == (1, 1, None)


@pytest.mark.parametrize("plain, mono, descent",
                         [(2, 4, [3, 2]), (3, 4, [3, 2]), (4, 4, [3]), (2, 2, [])])
def test_gap_descent_finds_a_plain_value_below_monotone(monkeypatch, plain, mono, descent):
    # no small digraph has a gap, so a fake solve plays one: the cops
    # win from k = plain in plain play and from k = mono in monotone play
    def fake(d, k, variant, monotone, state_budget):
        won = k >= (mono if monotone else plain)
        return Outcome(Winner.COPS if won else Winner.ROBBER, k)

    calls = _counting_solve(monkeypatch, fake)
    k5 = bidirect(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    res = gap(k5, VISIBLE_FAST)
    assert (res.cop_number, res.monotone_cop_number, res.gap) == (plain, mono, mono - plain)
    # the monotone sweep from 2, then plain play down to the first robber win or to 2
    assert calls == [(k, True) for k in range(2, mono + 1)] + [(k, False) for k in descent]
    if plain < mono:
        assert res.plain.outcome.states_explored == plain
    else:
        assert res.plain.outcome is None


def test_strong_component_confinement_extension():
    from copwin.arena import VISIBLE_FAST_SCC

    assert cop_number(C3, VISIBLE_FAST_SCC).value == 2
    assert cop_number(CHAIN, VISIBLE_FAST_SCC).value == 1
    # confinement only shrinks the robber's options
    rng = random.Random(60)
    for trial in range(12):
        d = random_digraph(rng.randint(1, 5), 0.4, 600 + trial)
        assert (
            cop_number(d, VISIBLE_FAST_SCC).value
            <= cop_number(d, VISIBLE_FAST).value
        )


# ---------------------------------------------------------------------------
# budget handling
# ---------------------------------------------------------------------------

def test_state_budget_error_is_distinct():
    with pytest.raises(StateBudgetExceededError):
        solve(C3, 1, VISIBLE_FAST, state_budget=5)
    with pytest.raises(StateBudgetExceededError):
        solve(C3, 1, INVISIBLE_LAZY, state_budget=2)


def test_preflight_refusal_reports_no_work():
    # 4 cop sets of size <= 1 on C3: the visible estimate is 4 * 3 * 4
    with pytest.raises(StateBudgetExceededError) as err:
        solve(C3, 1, VISIBLE_FAST, state_budget=5)
    assert (err.value.budget, err.value.explored, err.value.bound) == (5, 0, 48)
    assert "refused before solving" in str(err.value)
    # the kernel's own refusal counts real work; on C3 one cop's solve
    # counts fewer transitions than the estimate (28 since robber
    # responses are shared), so the kernel is driven directly
    moves = [0] + subsets_of_size(3, 1)
    count = engine.solve_visible(C3.succ_masks, 3, moves, False, False, 48)[2]
    assert count < 48
    with pytest.raises(StateBudgetExceededError) as err:
        engine.solve_visible(C3.succ_masks, 3, moves, False, False, count - 1)
    assert err.value.bound is None and err.value.explored > count - 1


def test_states_explored_reported():
    out = solve(C3, 2, VISIBLE_FAST)
    assert out.states_explored > 0


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_every_cop_win_certificate_verifies_small():
    rng = random.Random(5150)
    graphs = [C3, CHAIN, SINGLE, Digraph(0), bidirect(3, [(0, 1), (1, 2)])]
    graphs += [random_digraph(4, 0.4, s) for s in range(6)]
    for d in graphs:
        for variant in ALL_VARIANTS:
            for mono in (False, True):
                for k in range(d.n + 1):
                    out = solve(d, k, variant, mono)
                    if out.cops_win:
                        assert verify_certificate(d, out.certificate)
                    else:
                        assert out.certificate is None


def test_sequence_certificate_tampering_detected():
    out = solve(SINGLE, 1, INVISIBLE_LAZY)
    cert = out.certificate
    truncated = Certificate(
        cert.variant, cert.k, cert.monotone, cert.graph_sha256, cert.kind, ()
    )
    result = verify_certificate(SINGLE, truncated)
    assert not result.valid and "contamination" in result.reason


def test_positional_certificate_tampering_detected():
    out = solve(C3, 2, VISIBLE_FAST)
    cert = out.certificate
    # drop one entry: some reachable position loses its move
    body = cert.body[1:]
    broken = Certificate(
        cert.variant, cert.k, cert.monotone, cert.graph_sha256, cert.kind, body
    )
    result = verify_certificate(C3, broken)
    assert not result.valid


def test_monotone_flag_checked_on_replay():
    out = solve(C3, 2, INVISIBLE_LAZY)
    cert = out.certificate
    # a non-monotone sequence passing as plain may fail when flagged monotone
    flagged = Certificate(
        cert.variant, cert.k, True, cert.graph_sha256, cert.kind, cert.body
    )
    res_plain = verify_certificate(C3, cert)
    assert res_plain.valid
    # flagged result depends on the found sequence; just require a clean verdict
    res_flagged = verify_certificate(C3, flagged)
    assert res_flagged.valid in (True, False)


def test_budget_violation_in_certificate():
    out = solve(C3, 2, VISIBLE_FAST)
    cert = out.certificate
    shrunk = Certificate(
        cert.variant, 1, cert.monotone, cert.graph_sha256, cert.kind, cert.body
    )
    result = verify_certificate(C3, shrunk)
    assert not result.valid and "budget" in result.reason


def test_fingerprint_mismatch_raises():
    out = solve(C3, 2, VISIBLE_FAST)
    with pytest.raises(CertificateError):
        verify_certificate(CHAIN, out.certificate)


def test_kind_variant_mismatch_raises():
    out = solve(C3, 2, VISIBLE_FAST)
    cert = out.certificate
    wrong = Certificate(
        "invisible-lazy", cert.k, cert.monotone, cert.graph_sha256, cert.kind, cert.body
    )
    with pytest.raises(CertificateError):
        verify_certificate(C3, wrong)


def test_certificate_json_round_trip_is_bit_exact():
    for d, variant in ((C3, VISIBLE_FAST), (C3, INVISIBLE_LAZY), (SINGLE, INVISIBLE_FAST)):
        out = solve(d, 2 if d.n > 1 else 1, variant)
        text = out.certificate.to_json_text()
        again = Certificate.from_json_text(text)
        assert again == out.certificate
        assert again.to_json_text() == text


# SHA-256 of the winner, states_explored and certificate bytes of every
# visible solve (every k, both visible variants) over every labeled
# digraph with n <= 3 and eight random n = 5-6 graphs.  Both were
# re-recorded when the visible kernel began sharing robber responses,
# which changed only states_explored: winners and certificate bytes are
# unchanged (GOLDEN_VISIBLE_MONOTONE_CERTS pins them for monotone play).
GOLDEN_VISIBLE_SOLVES = {
    False: "548d1f8b0181ae18c533b9dce2030baee59af295da645335bd1cfc59e460869b",
    True: "0f96a5c6466bcf452f643b4bbdb91b75c40045e7b09e2399aa1a98ad7f6daff5",
}


def _visible_solve_digest(monotone, counts=True):
    graphs = [Digraph(n, arcs) for n in range(4) for arcs in enumerate_arc_lists(n)]
    graphs += [random_digraph(5 + i % 2, (0.3, 0.4, 0.5)[i % 3], 40 + i) for i in range(8)]
    h = hashlib.sha256()
    for d in graphs:
        for k in range(d.n + 1):
            for variant in (VISIBLE_FAST, VISIBLE_FAST_SCC):
                out = solve(d, k, variant, monotone)
                explored = out.states_explored if counts else None
                h.update(repr((d.arcs, k, variant.name, out.winner.value,
                               explored)).encode())
                if out.certificate is not None:
                    h.update(out.certificate.to_json_text().encode())
    return h.hexdigest()


@pytest.mark.parametrize("monotone", [False, True], ids=["plain", "monotone"])
def test_visible_solve_digest(monotone):
    assert _visible_solve_digest(monotone) == GOLDEN_VISIBLE_SOLVES[monotone]


# The monotone digest above without states_explored: winners and
# certificate bytes, recorded before vetoed monotone moves stopped
# counting toward states_explored, which changed nothing else.
GOLDEN_VISIBLE_MONOTONE_CERTS = "97581adffcf989819f89d8c84b63222554946c4e8930fc8409c5738903c92c75"


def test_visible_monotone_solve_digest_without_counts():
    assert _visible_solve_digest(True, counts=False) == GOLDEN_VISIBLE_MONOTONE_CERTS


def test_malformed_certificate_rejected():
    with pytest.raises(CertificateError):
        Certificate.from_json_text("not json at all")
    with pytest.raises(CertificateError):
        Certificate.from_json_text('{"format": "something-else"}')


def test_certificates_record_graph_fingerprint():
    out = solve(C3, 2, VISIBLE_FAST)
    assert out.certificate.graph_sha256 == fingerprint(C3)


def test_n0_certificates_verify():
    empty = Digraph(0)
    for variant in ALL_VARIANTS:
        out = solve(empty, 0, variant)
        assert out.cops_win
        assert verify_certificate(empty, out.certificate)


def test_certificate_mutation_fuzz():
    """Mutated certificates either fail cleanly or still describe a real win."""
    from copwin.errors import CertificateError
    from oracles import naive_invisible_cops_win, naive_visible_cops_win

    rng = random.Random(987)
    seeds = [(C3, VISIBLE_FAST, 2), (C3, INVISIBLE_LAZY, 2), (CHAIN, VISIBLE_FAST, 1)]
    for d, variant, k in seeds:
        base = solve(d, k, variant).certificate
        for trial in range(60):
            body = list(base.body)
            mutation = rng.randrange(4)
            if mutation == 0 and body:
                body.pop(rng.randrange(len(body)))
            elif mutation == 1 and body:
                i = rng.randrange(len(body))
                if base.kind == "positional":
                    cops, r, move = body[i]
                    move = tuple(sorted(set(move) ^ {rng.randrange(d.n)}))
                    body[i] = (cops, r, move)
                else:
                    body[i] = tuple(sorted(set(body[i]) ^ {rng.randrange(d.n)}))
            elif mutation == 2:
                body = body[::-1]
            cert = Certificate(
                base.variant,
                rng.choice([k, k, max(0, k - 1)]),
                rng.random() < 0.3,
                base.graph_sha256,
                base.kind,
                tuple(body),
            )
            try:
                result = verify_certificate(d, cert)
            except CertificateError:
                continue  # structurally malformed: a clean rejection
            if result.valid:
                # the verifier accepted: the claim must be true in the game
                arcs = list(d.arcs)
                if variant is VISIBLE_FAST:
                    assert naive_visible_cops_win(d.n, arcs, cert.k, cert.monotone)
                else:
                    assert naive_invisible_cops_win(d.n, arcs, cert.k, True, cert.monotone)

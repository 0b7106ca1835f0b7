"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import random
from pathlib import Path

from copwin.arena import INVISIBLE_LAZY, VISIBLE_FAST
from copwin.bits import iter_bits
from copwin.cli import main as cli_main
from copwin.digraph import Digraph, parse_edge_list
from copwin.hardproblems import (
    feedback_arc_number_by_orderings,
    hamiltonian_cycle,
    hamiltonian_cycle_bruteforce,
    min_equivalent_subgraph,
    min_feedback_arc_set,
    transitive_reduction_dag,
    validate_feedback_witness,
    validate_hamiltonian_witness,
    validate_mes_witness,
)
from copwin.lab import enumerate_digraphs, gap_scan, random_digraph
from copwin.solver import Winner, cop_number, solve, verify_certificate
from copwin.width import directed_path_width, treewidth_exact
from oracles import bidirect, enumerate_connected_graphs

DATA_DIR = Path(__file__).parent / "data"

HEADLINE_VARIANTS = (VISIBLE_FAST, INVISIBLE_LAZY)

# connected graphs up to isomorphism on 1..6 vertices (OEIS A001349)
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. exhaustive sanity census over all labeled digraphs with n = 4
# ---------------------------------------------------------------------------

def test_criterion_1_census_n4():
    violations = 0
    solves = 0
    verifications = 0
    for d in enumerate_digraphs(4):
        for variant in HEADLINE_VARIANTS:
            first_win = {}
            for mono in (False, True):
                wins = []
                for k in range(5):
                    out = solve(d, k, variant, mono)
                    solves += 1
                    # determinacy: a definite winner, never an error state
                    if out.winner not in (Winner.COPS, Winner.ROBBER):
                        violations += 1
                    if out.cops_win:
                        if not verify_certificate(d, out.certificate):
                            violations += 1
                        verifications += 1
                    elif out.certificate is not None:
                        violations += 1
                    wins.append(out.cops_win)
                if not wins[4]:  # n cops always win
                    violations += 1
                first = wins.index(True)
                if not all(wins[first:]):  # winner antitone in k
                    violations += 1
                first_win[mono] = first
            if first_win[True] < first_win[False]:  # monotone dominance
                violations += 1
    assert violations == 0
    _report(1, f"{solves} solves, {verifications} certificates verified, 0 violations")


# ---------------------------------------------------------------------------
# 2. tree-width cross-check on bidirected connected graphs, n <= 6
# ---------------------------------------------------------------------------

def test_criterion_2_treewidth_cross_check():
    checked = 0
    for n in range(1, 7):
        classes = enumerate_connected_graphs(n)
        assert len(classes) == CONNECTED_CLASS_COUNTS[n], (
            f"iso-class enumeration off at n={n}"
        )
        for _, edges in classes:
            tw = treewidth_exact(n, edges)
            b = bidirect(n, edges)
            values = [
                cop_number(b, VISIBLE_FAST, False).value,
                cop_number(b, VISIBLE_FAST, True).value,
                cop_number(b, INVISIBLE_LAZY, False).value,
                cop_number(b, INVISIBLE_LAZY, True).value,
            ]
            assert values == [tw + 1] * 4, (n, edges, tw, values)
            checked += 1
    _report(2, f"{checked} connected graphs: visible = inert = treewidth+1, "
               "monotone = plain, exact")


# ---------------------------------------------------------------------------
# 3. acyclic baseline: every DAG with 1 <= n <= 5 needs exactly one cop
# ---------------------------------------------------------------------------

def _acyclic_succ(succ, n):
    remaining = (1 << n) - 1
    changed = True
    while remaining and changed:
        changed = False
        f = remaining
        while f:
            low = f & -f
            f ^= low
            v = low.bit_length() - 1
            g = remaining & ~low
            has_in = False
            while g:
                gl = g & -g
                g ^= gl
                if succ[gl.bit_length() - 1] >> v & 1:
                    has_in = True
                    break
            if not has_in:
                remaining ^= low
                changed = True
    return remaining == 0


def _stepped_dags(n):
    """Arc lists of the labeled DAGs on n vertices: every arc pattern, kept if acyclic."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        succ = [0] * n
        b = bits
        i = 0
        while b:
            if b & 1:
                u, v = pairs[i]
                succ[u] |= 1 << v
            b >>= 1
            i += 1
        if _acyclic_succ(succ, n):
            yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


def _peeled_dags(n):
    """Arc lists of the labeled DAGs on n vertices, each once, by peeling sources.

    A DAG's vertices with no in-arc form a non-empty set S.  Without S it
    is a DAG on the rest R, and each vertex of R gets a set of in-arcs
    from S, non-empty for the vertices with no in-arc inside R (else they
    would have none at all).  S, the DAG on R and those sets determine
    the DAG, so each comes out once (Robinson's count of labeled DAGs).
    """
    def pred_rows(mask):
        if not mask:
            yield (0,) * n
            return
        sources = mask
        while sources:
            froms = [0]
            for s in iter_bits(sources):
                froms += [f | 1 << s for f in froms]
            rest = mask & ~sources
            vs = list(iter_bits(rest))
            for pred in pred_rows(rest):
                for picks in itertools.product(*[froms if pred[v] else froms[1:] for v in vs]):
                    row = list(pred)
                    for v, p in zip(vs, picks):
                        row[v] |= p
                    yield tuple(row)
            sources = (sources - 1) & mask

    for pred in pred_rows((1 << n) - 1):
        yield [(u, v) for v in range(n) for u in iter_bits(pred[v])]


def test_criterion_3_acyclic_baseline():
    for n in range(1, 5):
        stepped = {frozenset(arcs) for arcs in _stepped_dags(n)}
        assert {frozenset(arcs) for arcs in _peeled_dags(n)} == stepped, n
    seen = set()
    for n in range(1, 6):
        for arcs in _peeled_dags(n):
            d = Digraph(n, arcs)
            assert _acyclic_succ(d.succ_masks, n), d.arcs
            seen.add(d)
            for variant in HEADLINE_VARIANTS:
                for mono in (False, True):
                    assert cop_number(d, variant, mono).value == 1, (d.arcs, variant)
            assert directed_path_width(d).value == 0, d.arcs
    # distinct, acyclic and as many as there are: A003024 summed over n = 1..5
    assert len(seen) == 1 + 3 + 25 + 543 + 29281 == 29853
    _report(3, f"{len(seen)} DAGs (1 <= n <= 5): cop number 1 everywhere, "
               "directed path-width 0, exact")


# ---------------------------------------------------------------------------
# 4. directed cycles C_3..C_8 need exactly two cops in every mode
# ---------------------------------------------------------------------------

def test_criterion_4_small_cycles():
    for n in range(3, 9):
        cyc = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        for variant in HEADLINE_VARIANTS:
            for mono in (False, True):
                assert cop_number(cyc, variant, mono).value == 2, (n, variant, mono)
    _report(4, "C_3..C_8: visible and inert cop numbers all 2, monotone and plain")


# ---------------------------------------------------------------------------
# 5. gap machinery
# ---------------------------------------------------------------------------

def test_criterion_5_gap_machinery():
    for variant in HEADLINE_VARIANTS:
        records = []
        summary = gap_scan(list(enumerate_digraphs(3)), variant, sink=records.append)
        assert summary.instances == 64
        assert summary.gaps_positive == 0
        assert all(r.gap == 0 and r.status == "ok" for r in records)

    # any positive gap must ship a verifying plain certificate plus a
    # reproduced monotone failure; exercised on stored fixtures if any
    fixtures = sorted(DATA_DIR.glob("gap*.edges")) if DATA_DIR.exists() else []
    verified_fixtures = 0
    for path in fixtures:
        d = parse_edge_list(path.read_text())
        variant_name = path.stem.split(".")[-1]
        from copwin.arena import GameVariant

        variant = GameVariant.from_name(variant_name)
        records = []
        gap_scan([d], variant, sink=records.append)
        (rec,) = records
        assert rec.gap >= 1, f"fixture {path.name} no longer shows a gap"
        assert rec.status == "ok"
        assert rec.attestation["plain_certificate_valid"] is True
        assert rec.attestation["monotone_winner"] == "robber"
        assert verify_certificate(d, rec.plain_outcome.certificate)
        verified_fixtures += 1

    detail = "all 64 n=3 digraphs gap-free in both variants"
    if verified_fixtures:
        detail += f"; {verified_fixtures} stored gap fixtures fully verified"
    else:
        detail += ("; no desk-scale gap instance known (offline exhaustive n<=5 "
                   "and structured scans to n=8 found none)")
    _report(5, detail)


# ---------------------------------------------------------------------------
# 6. hard-problem oracle agreement
# ---------------------------------------------------------------------------

def _random_dag(n, p, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    return Digraph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and pos[u] < pos[v] and rng.random() < p
        ],
    )


def test_criterion_6_hard_problem_oracles():
    disagreements = 0
    checked_fas = checked_ham = checked_mes = 0

    # exhaustive at n <= 4 (the n <= 6 exhaustive space is ~10^9 digraphs,
    # far beyond desk scale; seeded samples cover the larger sizes)
    for n in range(5):
        for d in enumerate_digraphs(n):
            sol = min_feedback_arc_set(d)
            if sol.value != feedback_arc_number_by_orderings(d):
                disagreements += 1
            if not validate_feedback_witness(d, sol):
                disagreements += 1
            checked_fas += 1
            if n >= 2:
                dp = hamiltonian_cycle(d)
                if (dp.witness is not None) != hamiltonian_cycle_bruteforce(d):
                    disagreements += 1
                if dp.witness is not None and not validate_hamiltonian_witness(d, dp.witness):
                    disagreements += 1
                checked_ham += 1

    # 200 seeded random digraphs with 5 <= n <= 8
    for i in range(200):
        n = 5 + i % 4
        d = random_digraph(n, 0.25 if n >= 7 else 0.35, 20_000 + i)
        sol = min_feedback_arc_set(d)
        if sol.value != feedback_arc_number_by_orderings(d):
            disagreements += 1
        if not validate_feedback_witness(d, sol):
            disagreements += 1
        checked_fas += 1
        dp = hamiltonian_cycle(d)
        if (dp.witness is not None) != hamiltonian_cycle_bruteforce(d):
            disagreements += 1
        if dp.witness is not None and not validate_hamiltonian_witness(d, dp.witness):
            disagreements += 1
        checked_ham += 1

    # minimum equivalent subgraph vs transitive reduction on DAGs:
    # exhaustive n <= 4, 100 seeded random DAGs with 5 <= n <= 7
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            from copwin.digraph import is_acyclic

            if not is_acyclic(d):
                continue
            mes = min_equivalent_subgraph(d)
            if set(mes.witness) != set(transitive_reduction_dag(d)):
                disagreements += 1
            if not validate_mes_witness(d, mes):
                disagreements += 1
            checked_mes += 1
    for i in range(100):
        n = 5 + i % 3
        d = _random_dag(n, 0.45, 30_000 + i)
        mes = min_equivalent_subgraph(d)
        if set(mes.witness) != set(transitive_reduction_dag(d)):
            disagreements += 1
        if not validate_mes_witness(d, mes):
            disagreements += 1
        checked_mes += 1

    assert disagreements == 0
    _report(6, f"FAS x{checked_fas}, Hamiltonian x{checked_ham}, MES x{checked_mes}: "
               "all oracle pairs agree, all witnesses validate")


# ---------------------------------------------------------------------------
# 7. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path, capsys):
    c3 = tmp_path / "c3.edges"
    c3.write_text("n 3\n0 1\n1 2\n2 0\n")

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    invocations = [
        ("copnum", "--variant", "visible", "--json", str(c3)),
        ("solve", "--variant", "inert", "--cops", "2", "--json", str(c3)),
        ("gap", "--variant", "visible", "--json", str(c3)),
        ("width", "--measure", "kellywidth", "--json", str(c3)),
        ("gapscan", "--variant", "visible", "--n", "3", "--random", "8",
         "--p", "0.3", "--seed", "0"),
        ("gapscan", "--variant", "inert", "--n", "2", "--exhaustive",
         "--format", "jsonl"),
        ("hard", "report", str(c3)),
        ("hard", "fas", "--json", str(c3)),
    ]
    for argv in invocations:
        first = run(*argv)
        second = run(*argv)
        assert first == second, f"non-deterministic output for {argv}"

    certs = []
    for i in range(2):
        path = tmp_path / f"cert{i}.json"
        run("copnum", "--variant", "inert", "--emit-cert", str(path), str(c3))
        certs.append(path.read_bytes())
    assert certs[0] == certs[1]
    _report(7, f"{len(invocations)} invocation kinds byte-identical on repeat, "
               "certificates included")

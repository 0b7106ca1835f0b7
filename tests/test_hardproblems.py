import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copwin import hardproblems
from copwin.digraph import Digraph, bidirect, is_acyclic, scc
from copwin.errors import SizeLimitError
from copwin.hardproblems import (
    HAMILTONIAN_MAX_N,
    REPORT_FIELDS,
    ProblemSolution,
    feedback_arc_number_by_orderings,
    hamiltonian_cycle,
    hamiltonian_cycle_bruteforce,
    mes_lower_bound,
    min_equivalent_subgraph,
    min_feedback_arc_set,
    min_feedback_vertex_set,
    transitive_reduction_dag,
    validate_feedback_witness,
    validate_hamiltonian_witness,
    validate_mes_witness,
    width_annotated_report,
)
from copwin.lab import enumerate_digraphs, random_digraph
from copwin.reports import rows_to_csv
from oracles import (
    naive_min_equivalent_subgraph,
    naive_min_feedback_arc_set,
    subset_dp_hamiltonian,
)

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C5 = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
CHAIN = Digraph(3, [(0, 1), (1, 2)])
TOURNAMENT = Digraph(3, [(0, 1), (0, 2), (1, 2)])
DAG = Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def _random_dag(n, p, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and pos[u] < pos[v] and rng.random() < p
    ]
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# Hamiltonian cycle
# ---------------------------------------------------------------------------

def test_hamiltonian_examples():
    sol = hamiltonian_cycle(C5)
    assert sol.witness == (0, 1, 2, 3, 4)
    assert sol.value == 5
    assert hamiltonian_cycle(DAG).witness is None
    k4 = bidirect(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sol = hamiltonian_cycle(k4)
    assert validate_hamiltonian_witness(k4, sol.witness)
    assert hamiltonian_cycle_bruteforce(k4)


def test_hamiltonian_tiny_graphs():
    assert hamiltonian_cycle(Digraph(0)).witness is None
    assert hamiltonian_cycle(Digraph(1)).witness is None
    two = Digraph(2, [(0, 1), (1, 0)])
    assert hamiltonian_cycle(two).witness == (0, 1)


def test_hamiltonian_size_limit():
    with pytest.raises(SizeLimitError):
        hamiltonian_cycle(Digraph(19))
    with pytest.raises(SizeLimitError):
        hamiltonian_cycle_bruteforce(Digraph(9))


def test_hamiltonian_matches_bruteforce():
    rng = random.Random(6)
    for trial in range(40):
        n = rng.randint(2, 7)
        d = random_digraph(n, rng.choice([0.3, 0.5, 0.7]), 500 + trial)
        dp = hamiltonian_cycle(d)
        assert (dp.witness is not None) == hamiltonian_cycle_bruteforce(d)
        if dp.witness is not None:
            assert validate_hamiltonian_witness(d, dp.witness)


def test_hamiltonian_matches_subset_dp_oracle():
    rng = random.Random(9)
    for trial in range(48):
        n = rng.randint(9, 16)
        d = random_digraph(n, (0.15, 0.3, 0.5)[trial % 3], 600 + trial)
        sol = hamiltonian_cycle(d)
        assert sol.witness == subset_dp_hamiltonian(d.n, d.arcs), (n, trial)
        assert sol.value == (n if sol.witness else 0)


@pytest.mark.parametrize("seed, hamiltonian", [(27, True), (26, False)])
def test_hamiltonian_at_size_cap_matches_subset_dp_oracle(seed, hamiltonian):
    # both strongly connected, so the table is built and walked in full
    d = random_digraph(HAMILTONIAN_MAX_N, 0.18, seed)
    assert len(scc(d)) == 1
    sol = hamiltonian_cycle(d)
    assert sol.witness == subset_dp_hamiltonian(d.n, d.arcs)
    assert (sol.witness is not None) == hamiltonian
    if hamiltonian:
        assert validate_hamiltonian_witness(d, sol.witness)


def test_hamiltonian_validator_rejects_malformed_witnesses():
    assert validate_hamiltonian_witness(C3, [0, 1, 2])
    assert validate_hamiltonian_witness(C3, (0, 1, 2))
    for witness in ([0, "1"], [0, "1", 2], [0, True, 2], [0, 1.0, 2], [0, [1], 2],
                    None, 3, "012", {0, 1, 2}):
        assert not validate_hamiltonian_witness(C3, witness), witness


# ---------------------------------------------------------------------------
# feedback vertex set
# ---------------------------------------------------------------------------

def test_fvs_examples():
    assert min_feedback_vertex_set(DAG).witness == ()
    assert min_feedback_vertex_set(C3).value == 1
    two = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert min_feedback_vertex_set(two).value == 2


def test_fvs_witness_validates():
    rng = random.Random(3)
    for trial in range(25):
        d = random_digraph(rng.randint(1, 6), 0.4, 900 + trial)
        sol = min_feedback_vertex_set(d)
        assert validate_feedback_witness(d, sol)


def test_fvs_size_limit():
    with pytest.raises(SizeLimitError):
        min_feedback_vertex_set(Digraph(15))


def test_fvs_validator_rejects_malformed_witnesses():
    def check(witness):
        return validate_feedback_witness(C3, ProblemSolution("feedback_vertex_set", witness, 1))

    assert check((0,))
    assert check([2])
    assert check([0, 1])
    assert not check([])
    for witness in ([True], [False, 1], [0, 0], [1.0], ["0"], [[0]], [3], [-1],
                    None, 0, "0", {0}):
        assert not check(witness), witness


# ---------------------------------------------------------------------------
# feedback arc set
# ---------------------------------------------------------------------------

def test_fas_examples():
    assert min_feedback_arc_set(DAG).value == 0
    assert min_feedback_arc_set(C3).value == 1
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert min_feedback_arc_set(two_cycle).value == 1
    assert feedback_arc_number_by_orderings(two_cycle) == 1


def test_fas_subset_search_matches_ordering_oracle_exhaustive_n3():
    for d in enumerate_digraphs(3):
        sol = min_feedback_arc_set(d)
        assert sol.value == feedback_arc_number_by_orderings(d)
        assert validate_feedback_witness(d, sol)


def test_fas_matches_oracle_random():
    rng = random.Random(12)
    for trial in range(25):
        n = rng.randint(2, 7)
        d = random_digraph(n, 0.3, 700 + trial)
        sol = min_feedback_arc_set(d)
        assert sol.value == feedback_arc_number_by_orderings(d), d.arcs
        assert validate_feedback_witness(d, sol)


def test_fas_validator_accepts_json_pairs_and_rejects_malformed_witnesses():
    def check(witness):
        return validate_feedback_witness(C3, ProblemSolution("feedback_arc_set", witness, 1))

    assert check(((0, 1),))
    assert check([[0, 1]])  # the shape `hard fas --json` writes
    assert not check([])
    assert not check([[1, 0]])
    for witness in ([[0, 1], [0, 1]], [[0, 1], (0, 1)], [[True, 1]], [[0, "1"]], [[0, 1, 2]],
                    [[0, [1]]], ["01"], [0, 1], None, 3, {(0, 1)}):
        assert not check(witness), witness


def test_feedback_validator_refuses_other_problems():
    with pytest.raises(ValueError):
        validate_feedback_witness(C3, ProblemSolution("minimum_equivalent_subgraph", (), 0))


@st.composite
def small_digraphs(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Digraph(n, picks)


@settings(max_examples=150)
@given(small_digraphs())
def test_fas_witness_is_first_minimum_combination(d):
    sol = min_feedback_arc_set(d)
    assert (sol.value, sol.witness) == naive_min_feedback_arc_set(d.n, d.arcs)


@pytest.mark.parametrize("n, value", [(6, 15), (7, 21)])
def test_fas_bidirected_cliques(n, value):
    d = bidirect(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    sol = min_feedback_arc_set(d)
    assert sol.value == value == feedback_arc_number_by_orderings(d)
    assert validate_feedback_witness(d, sol)


def test_fas_orders_each_strong_component_alone():
    # one DP over all 200 vertices would need 2^200 states
    d = Digraph(200, [(i, (i + 1) % 10) for i in range(10)])
    sol = min_feedback_arc_set(d)
    assert (sol.value, sol.witness) == (1, ((0, 1),))


def test_fas_reaches_only_from_vertices_on_some_cycle(monkeypatch):
    # only vertices with an in-arc and an out-arc can lie on a cycle; a
    # reach row for each of the other 998 vertices, on each of the m + 1
    # solves of the witness loop, made the solve quadratic in n
    calls = []
    real = hardproblems.reach_mask
    monkeypatch.setattr(hardproblems, "reach_mask",
                        lambda *args: calls.append(args) or real(*args))
    sol = min_feedback_arc_set(Digraph(1000, [(0, 1), (1, 0)]))
    assert (sol.value, sol.witness) == (1, ((0, 1),))
    assert len(calls) <= 2 * 3  # two rows, at most m + 1 = 3 solves


def test_fas_size_limits():
    dense = bidirect(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    assert dense.m == 42  # n=7 <= 9, so allowed despite m > 20
    big = Digraph(10, [(u, (u + 1) % 10) for u in range(10)])
    assert big.m <= 20  # n=10 > 9 but m <= 20, allowed
    min_feedback_arc_set(big)
    with pytest.raises(SizeLimitError):
        min_feedback_arc_set(
            bidirect(11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
        )


def test_acyclicity_zero_objective_equivalence():
    for d in enumerate_digraphs(3):
        fvs0 = min_feedback_vertex_set(d).value == 0
        fas0 = min_feedback_arc_set(d).value == 0
        assert fvs0 == fas0 == is_acyclic(d)


# ---------------------------------------------------------------------------
# minimum equivalent subgraph
# ---------------------------------------------------------------------------

def test_mes_examples():
    sol = min_equivalent_subgraph(TOURNAMENT)
    assert sol.witness == ((0, 1), (1, 2))
    assert sol.value == 2
    assert min_equivalent_subgraph(C3).value == 3
    assert min_equivalent_subgraph(CHAIN).witness == CHAIN.arcs


def test_mes_witness_validates():
    rng = random.Random(88)
    for trial in range(15):
        d = random_digraph(rng.randint(1, 5), 0.4, 300 + trial)
        sol = min_equivalent_subgraph(d)
        assert validate_mes_witness(d, sol)


def test_mes_lower_bound_and_witness_match_from_zero_search():
    graphs = [d for n in range(5) for d in enumerate_digraphs(n)]
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randint(5, 8)
        graphs.append(random_digraph(n, rng.choice((0.2, 0.3, 0.45)), 4000 + trial))
    for d in graphs:
        sol = min_equivalent_subgraph(d)
        assert mes_lower_bound(d) <= sol.value
        assert (sol.value, sol.witness) == naive_min_equivalent_subgraph(d.n, d.arcs), d.arcs


def test_mes_lower_bound_examples():
    assert mes_lower_bound(Digraph(0)) == 0
    assert mes_lower_bound(C3) == 3
    # the shortcut 0 -> 2 is no arc of the condensation's reduction
    assert mes_lower_bound(TOURNAMENT) == 2
    # two 2-cycles joined by two parallel arcs: 2 + 2 inside, 1 between
    d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)])
    assert mes_lower_bound(d) == min_equivalent_subgraph(d).value == 5


@pytest.mark.parametrize("n", [6, 7, 8])
def test_mes_bidirected_clique_is_first_hamiltonian_cycle(n):
    # K_n is strongly connected with lower bound n, so an n-arc equivalent
    # subgraph is strongly connected with one arc into and one out of each
    # vertex: a Hamiltonian cycle.
    # No arc of K_n is mandatory, and combinations order on the sorted arcs is
    # the lexicographic order of the sorted arc tuples, so the witness is the
    # smallest sorted arc tuple over every Hamiltonian cycle.
    kn = bidirect(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    first = min(tuple(sorted(zip((0,) + tour, tour + (0,))))
                for tour in itertools.permutations(range(1, n)))
    sol = min_equivalent_subgraph(kn)
    assert sol.value == n == mes_lower_bound(kn)
    assert sol.witness == first
    assert validate_mes_witness(kn, sol)


def test_mes_validator_accepts_json_pairs_and_rejects_malformed_witnesses():
    def check(witness):
        return validate_mes_witness(C3, ProblemSolution("minimum_equivalent_subgraph", witness, 3))

    assert check(((0, 1), (1, 2), (2, 0)))
    assert check([[0, 1], [1, 2], [2, 0]])  # the shape `hard mes --json` writes
    assert not check([[0, 1], [1, 2]])
    for witness in ([[0, 1], [1, 2], [2, 0], [0, 1]], [[0, "1"], [1, 2], [2, 0]],
                    [[False, 1], [1, 2], [2, 0]], [[0, 1, 2], [2, 0]], [[0, [1]]],
                    ["01", "12", "20"], None, 3):
        assert not check(witness), witness


def test_mes_size_limit():
    with pytest.raises(SizeLimitError):
        min_equivalent_subgraph(Digraph(9))


def test_transitive_reduction_examples():
    assert transitive_reduction_dag(TOURNAMENT) == ((0, 1), (1, 2))
    assert transitive_reduction_dag(CHAIN) == CHAIN.arcs
    assert transitive_reduction_dag(Digraph(3)) == ()
    with pytest.raises(ValueError):
        transitive_reduction_dag(C3)


def test_mes_equals_transitive_reduction_on_dags():
    for trial in range(20):
        d = _random_dag(random.Random(trial).randint(1, 7), 0.5, trial)
        assert is_acyclic(d)
        mes = min_equivalent_subgraph(d) if d.n <= 8 else None
        if mes is not None:
            assert set(mes.witness) == set(transitive_reduction_dag(d))


# ---------------------------------------------------------------------------
# width-annotated report
# ---------------------------------------------------------------------------

def test_width_annotated_report_rows():
    rows = width_annotated_report([("dag", DAG), ("c3", C3)])
    dag_row, c3_row = rows
    assert dag_row["dagwidth"] == 1 and dag_row["kellywidth"] == 1
    assert dag_row["fvs"] == 0 and dag_row["fas"] == 0 and dag_row["ham"] == 0
    assert c3_row["dagwidth"] == 2 and c3_row["kellywidth"] == 2
    assert c3_row["fvs"] == 1 and c3_row["fas"] == 1 and c3_row["ham"] == 1
    assert dag_row["status"] == c3_row["status"] == "ok"


def test_width_annotated_report_records_size_limits():
    big = Digraph(15, [(u, u + 1) for u in range(14)])
    rows = width_annotated_report([("big", big)])
    row = rows[0]
    assert row["dagwidth"] == 1  # games still run fine at this size
    assert row["fvs"] is None and "fvs:size-limit" in row["status"]
    assert row["mes"] is None and "mes:size-limit" in row["status"]


def test_width_annotated_report_empty():
    assert width_annotated_report([]) == []
    text = rows_to_csv(REPORT_FIELDS, [])
    assert text.splitlines()[0] == "instance,n,m,dagwidth,kellywidth,fvs,fas,ham,mes,status"


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

# SHA-256 of (graph, problem, value, witness) for the exact solvers on
# fixed graph streams, recorded from the subset-search FAS, push-form
# Hamiltonian DP and Digraph-rebuilding MES search.  A faster solver
# must return the same witnesses, not just the same values.
#   sparse: every labeled digraph with n <= 3, then 100 random digraphs
#           (n = 4..7, p <= 0.35), all four solvers;
#   dense:  60 denser digraphs (n = 4..5 for FAS and MES, 5..12 for the
#           Hamiltonian and FVS solvers).
GOLDEN_HARD = {
    "sparse": "10232c23fc9af88d4b344f40ddcf5051014a1555feb242ea26efce37b8f5cf3a",
    "dense": "22d18b637e50030607c929948e11babbc75536b809f908513a2bfc1745623537",
}


GOLDEN_SOLVERS = (min_feedback_arc_set, hamiltonian_cycle,
                  min_equivalent_subgraph, min_feedback_vertex_set)


def _golden_sparse():
    for n in range(4):
        for d in enumerate_digraphs(n):
            yield d, GOLDEN_SOLVERS
    rng = random.Random(4)
    for trial in range(100):
        n = rng.randint(4, 7)
        yield random_digraph(n, rng.choice((0.15, 0.25, 0.35)), 1000 + trial), GOLDEN_SOLVERS


def _golden_dense():
    rng = random.Random(5)
    for trial in range(60):
        p = rng.choice((0.5, 0.65, 0.8))
        small = random_digraph(rng.randint(4, 5), p, 2000 + trial)
        yield small, (min_feedback_arc_set, min_equivalent_subgraph)
        big = random_digraph(rng.randint(5, 12), p, 3000 + trial)
        yield big, (hamiltonian_cycle, min_feedback_vertex_set)


@pytest.mark.parametrize("stream", ["sparse", "dense"])
def test_hard_solvers_golden_digest(stream):
    source = _golden_sparse() if stream == "sparse" else _golden_dense()
    h = hashlib.sha256()
    for d, solvers in source:
        for solve in solvers:
            sol = solve(d)
            h.update(repr((d.n, d.arcs, sol.problem, sol.value, sol.witness)).encode())
    assert h.hexdigest() == GOLDEN_HARD[stream]

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copwin.arena import INVISIBLE_FAST, INVISIBLE_LAZY, VISIBLE_FAST
from copwin.digraph import Digraph, is_acyclic
from copwin.errors import SizeLimitError
from copwin.lab import enumerate_digraphs
from copwin.solver import cop_number
from copwin import width
from copwin.width import (
    WIDTHS,
    dag_width,
    directed_path_width,
    kelly_width,
    treewidth_exact,
)

from oracles import bidirect, enumerate_connected_graphs, naive_treewidth

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
CHAIN = Digraph(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# tree-width oracle
# ---------------------------------------------------------------------------

def test_treewidth_examples():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert treewidth_exact(4, k4) == 3
    assert treewidth_exact(2, [(0, 1)]) == 1
    assert treewidth_exact(5, [(0, 1), (0, 2), (1, 3), (1, 4)]) == 1  # a tree
    assert treewidth_exact(5, [(i, (i + 1) % 5) for i in range(5)]) == 2  # C5
    assert treewidth_exact(1, []) == 0
    assert treewidth_exact(0, []) == -1


def test_treewidth_size_limit():
    with pytest.raises(SizeLimitError):
        treewidth_exact(13, [])


def test_treewidth_input_validation():
    with pytest.raises(ValueError):
        treewidth_exact(3, [(0, 0)])
    with pytest.raises(ValueError):
        treewidth_exact(2, [(0, 5)])


def test_treewidth_matches_permutation_oracle():
    rng = random.Random(8)
    for trial in range(60):
        n = rng.randint(1, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        assert treewidth_exact(n, edges) == naive_treewidth(n, edges), (n, edges)


# ---------------------------------------------------------------------------
# directed measures
# ---------------------------------------------------------------------------

def test_dag_width_examples():
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            if is_acyclic(d):
                assert dag_width(d).value == 1
                break  # one DAG per n is plenty here; the census covers the rest
    assert dag_width(C3).value == 2
    k4 = bidirect(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    report = dag_width(k4)
    assert report.value == 4 == treewidth_exact(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]) + 1


def test_kelly_width_examples():
    assert kelly_width(Digraph(1)).value == 1
    assert kelly_width(CHAIN).value == 1
    assert kelly_width(C3).value == 2


def test_directed_path_width_examples():
    assert directed_path_width(CHAIN).value == 0
    assert directed_path_width(C3).value == 1
    assert directed_path_width(Digraph(3)).value == 0


def test_width_reports_record_provenance():
    rep = directed_path_width(C3)
    assert rep.offset == -1
    assert rep.value == rep.cop_number + rep.offset
    assert rep.monotone is True
    assert rep.variant == "invisible-fast"
    assert rep.measure == "directed-path-width"


def test_widths_by_cli_name():
    measures = {name: getattr(width, attr) for name, attr in WIDTHS.items()}
    assert measures == {"dagwidth": dag_width, "kellywidth": kelly_width,
                        "dpw": directed_path_width}


def test_bidirected_classics_small():
    # visible-fast and inert cop numbers of bidirect(G) both equal tw(G)+1
    for n, edges in enumerate_connected_graphs(4):
        b = bidirect(n, edges)
        tw = treewidth_exact(n, edges)
        assert dag_width(b).value == tw + 1
        assert kelly_width(b).value == tw + 1
    # Kelly-width alone on larger random graphs, where the monotone
    # inert search is an elimination ordering DP like treewidth_exact's
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randint(6, 10)
        p = rng.choice([0.2, 0.35, 0.5])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        assert kelly_width(bidirect(n, edges)).value == treewidth_exact(n, edges) + 1, (
            n, edges)


def test_widths_invariant_under_relabeling():
    rng = random.Random(5)
    from copwin.lab import random_digraph

    for trial in range(6):
        n = rng.randint(2, 5)
        d = random_digraph(n, 0.4, trial)
        perm = list(range(n))
        rng.shuffle(perm)
        d2 = Digraph(n, [(perm[u], perm[v]) for u, v in d.arcs])
        assert dag_width(d).value == dag_width(d2).value
        assert kelly_width(d).value == kelly_width(d2).value
        assert directed_path_width(d).value == directed_path_width(d2).value


# ---------------------------------------------------------------------------
# one strong component at a time
# ---------------------------------------------------------------------------

MEASURES = [
    (dag_width, VISIBLE_FAST, 0),
    (kelly_width, INVISIBLE_LAZY, 0),
    (directed_path_width, INVISIBLE_FAST, -1),
]


def _check_widths_match_whole_graph(d):
    # the oracle is the whole-graph monotone sweep from k = 0
    for measure, variant, offset in MEASURES:
        want = cop_number(d, variant, monotone=True).value + offset
        assert measure(d).value == want, (d.n, d.arcs, variant.name)


def test_widths_match_whole_graph_census_n_le_4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            _check_widths_match_whole_graph(d)


@st.composite
def digraphs_with_components(draw):
    # consecutive blocks of vertices, each closed into a cycle, with any
    # arcs inside a block and forward ones between blocks: the blocks
    # are the strong components
    n = draw(st.integers(5, 9))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    block = [0] * n
    arcs = set()
    for i, (a, b) in enumerate(zip([0] + cuts, cuts + [n])):
        block[a:b] = [i] * (b - a)
        if b - a > 1:
            arcs |= {(v, v + 1) for v in range(a, b - 1)} | {(b - 1, a)}
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (u < v or block[u] == block[v])]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, arcs | {arc for arc, kept in zip(pairs, keep) if kept})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(digraphs_with_components())
def test_widths_match_whole_graph_random(d):
    _check_widths_match_whole_graph(d)


def test_widths_solve_only_components():
    # two 2-cycles feeding a 3-cycle, and a long tail: every measure is
    # the 3-cycle's, 2 cops, whatever the acyclic parts around it
    d = Digraph(12, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (3, 4), (4, 5), (5, 6),
                     (6, 4)] + [(i, i + 1) for i in range(6, 11)])
    assert [m(d).cop_number for m, _, _ in MEASURES] == [2, 2, 2]
    assert directed_path_width(Digraph(0)).cop_number == 0
    assert directed_path_width(Digraph(5)).cop_number == 1


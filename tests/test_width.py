import random

import pytest

from copwin.digraph import Digraph, bidirect, is_acyclic
from copwin.errors import SizeLimitError
from copwin.lab import enumerate_connected_graphs, enumerate_digraphs
from copwin.width import (
    dag_width,
    directed_path_width,
    kelly_width,
    treewidth_exact,
    width_by_name,
)

from oracles import naive_treewidth

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
    assert rep.certificate is not None
    assert "directed-path-width" in rep.describe()


def test_width_by_name():
    assert width_by_name("dagwidth") is dag_width
    assert width_by_name("kellywidth") is kelly_width
    assert width_by_name("dpw") is directed_path_width
    with pytest.raises(ValueError):
        width_by_name("nope")


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

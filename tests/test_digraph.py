import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copwin import digraph
from copwin.bits import iter_bits, mask_from
from copwin.digraph import (
    MAX_MASK_BITS,
    MAX_VERTICES,
    Digraph,
    acyclic_mask,
    closure_masks,
    component_masks,
    fingerprint,
    induced_subgraph,
    is_acyclic,
    parse_edge_list,
    reach_mask,
    scc,
    to_edge_list,
)
from copwin.errors import EdgeListParseError
from copwin.lab import random_digraph
from oracles import bidirect, enumerate_arc_lists, set_reach

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
CHAIN = Digraph(3, [(0, 1), (1, 2)])


def digraphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Digraph(n, picks)

    return build()


def vertex_sets(max_n=8):
    return st.sets(st.integers(0, max_n - 1))


# ---------------------------------------------------------------------------
# parsing / writing
# ---------------------------------------------------------------------------

def test_parse_c3():
    d = parse_edge_list("n 3\n0 1\n1 2\n2 0")
    assert d.n == 3
    assert d.arcs == ((0, 1), (1, 2), (2, 0))


def test_parse_single_vertex():
    d = parse_edge_list("n 1")
    assert d.n == 1 and d.m == 0


def test_parse_self_loop_rejected():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 0")


def test_parse_duplicate_arc_rejected():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 1\n0 1")


def test_parse_large_file_and_late_duplicate():
    pairs = [(u, v) for u in range(200) for v in range(200) if u != v][:16000]
    lines = ["n 200"] + [f"{u} {v}" for u, v in pairs]
    assert parse_edge_list("\n".join(lines)).m == 16000
    lines.append("5 9")  # repeats an earlier arc on line 16002
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list("\n".join(lines))
    assert info.value.line_no == 16002
    assert "duplicate arc (5,9)" in str(info.value)


def test_parse_id_above_declared_count_rejected():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("n 2\n0 2")


def test_parse_vertex_count_cap():
    # the cap itself is accepted, declared or implied; one more is refused
    assert parse_edge_list(f"n {MAX_VERTICES}").n == MAX_VERTICES
    assert parse_edge_list(f"{MAX_VERTICES - 1} 0").n == MAX_VERTICES
    for text in (f"n {MAX_VERTICES + 1}", f"0 {MAX_VERTICES}", f"{MAX_VERTICES} 0"):
        with pytest.raises(EdgeListParseError, match="exceeds the limit"):
            parse_edge_list(text)


def _cycle_text(n):
    return "".join(f"{v} {(v + 1) % n}\n" for v in range(n))


@settings(max_examples=80)
@given(digraphs(9))
def test_mask_bits_counts_the_digraph_masks(d):
    bits = digraph._mask_bits(d.arcs)
    assert bits == sum(mask.bit_length() for mask in d.succ_masks + d.pred_masks)
    # the parser's quick bound, which skips the count, is never below it
    assert bits <= 2 * d.n * min(d.n, d.m)


def test_parse_mask_table_cap(monkeypatch):
    text = _cycle_text(50)
    need = digraph._mask_bits(parse_edge_list(text).arcs)
    monkeypatch.setattr(digraph, "MAX_MASK_BITS", need)
    assert parse_edge_list(text).n == 50
    monkeypatch.setattr(digraph, "MAX_MASK_BITS", need - 1)
    with pytest.raises(EdgeListParseError, match=f"need {need} bits of vertex masks"):
        parse_edge_list(text)
    monkeypatch.undo()
    # an n-cycle needs about n^2 bits: 40,000 vertices are refused unbuilt
    with pytest.raises(EdgeListParseError, match=f"over the limit of {MAX_MASK_BITS}"):
        parse_edge_list(_cycle_text(40_000))


def test_parse_overlong_digit_runs():
    # int() refuses more than 4,300 digits: a count or id whose digits,
    # leading zeros aside, outnumber MAX_VERTICES's is refused unread,
    # and leading zeros alone never make one too long
    ones = "1" * 5000
    for text, line_no, message in (
        (f"n 3\n0 {ones}\n", 2, f"vertex id in (0,{ones}) exceeds declared count 3"),
        (f"0 1\n{ones} 0\n", 2, f"vertex id in ({ones},0) exceeds the limit of 1048576 vertices"),
        (f"n {ones}\n", 1, f"vertex count {ones} exceeds the limit of 1048576"),
        (f"{ones} 000{ones}\n", 1, f"self-loop ({ones},{ones}) forbidden (digraphs are simple)"),
        (f"n 3\n0 {'0' * 5000}99999999\n", 2, "vertex id in (0,99999999) exceeds declared count 3"),
    ):
        with pytest.raises(EdgeListParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line {line_no}: {message}"
    zeros = "0" * 5000
    assert parse_edge_list(f"{zeros}1 2\n") == Digraph(3, [(1, 2)])
    assert parse_edge_list(f"n {zeros}3\n{zeros} {zeros}2\n") == Digraph(3, [(0, 2)])
    assert parse_edge_list(f"n {zeros}\n") == Digraph(0)


def test_parse_malformed_line_rejected():
    for bad in ("0", "0 1 2", "a b", "n", "n x"):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(bad)


@pytest.mark.parametrize("text, line_no, message", [
    ("0 1\n0 1\n2 2\n", 2, "duplicate arc (0,1)"),
    ("n 3\n0 1\n-1 -1\n", 3, "negative vertex id in '-1 -1'"),
    ("n 3\n5 5\n", 2, "self-loop (5,5) forbidden (digraphs are simple)"),
    ("n 3\n0 1\n1 7\n0 1\n", 3, "vertex id in (1,7) exceeds declared count 3"),
    ("0 1\n2 1048576\n", 2, "vertex id in (2,1048576) exceeds the limit of 1048576 vertices"),
    ("  # note\n\t0 1  \n0 1 # c\n", 3, "malformed arc line '0 1 # c'"),
    ("0 1\nn 2\n", 2, "header 'n <count>' must be the first data line"),
    ("n 2\n0 1\n1 0\n0 1\n3 3\n", 4, "duplicate arc (0,1)"),
    # ids and counts are [0-9]+, though int() takes more
    ("n 11\n0 1_0\n", 2, "malformed arc line '0 1_0'"),
    ("n 3\n+1 2\n", 2, "malformed arc line '+1 2'"),
    ("n 3\n0 \u0661\n", 2, "malformed arc line '0 \u0661'"),
    ("n \u0663\n0 1\n", 1, "malformed vertex count '\u0663'"),
    ("n +3\n0 1\n", 1, "malformed vertex count '+3'"),
    ("n 0_3\n0 1\n", 1, "malformed vertex count '0_3'"),
    ("n -3\n", 1, "vertex count must be non-negative"),
    ("n 3\n0 -1\n", 2, "negative vertex id in '0 -1'"),
    ("n 3\n1 -x\n", 2, "malformed arc line '1 -x'"),
    # lines end at \n only: other line breaks of str.splitlines stay inside
    # their line, and a trailing \r is whitespace
    *((f"n 3\n0 1{sep}1 2\n2 2\n", 2, "malformed arc line " + repr(f"0 1{sep}1 2"))
      for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"),
    ("0 1\x1c1 2", 1, "malformed arc line '0 1\\x1c1 2'"),
    ("n 3\r\n0 1\r\n1 1\r\n", 3, "self-loop (1,1) forbidden (digraphs are simple)"),
])
def test_parse_names_the_first_fault(text, line_no, message):
    # the first faulty line in file order, with the message of its first
    # fault in the documented order
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list(text)
    assert (info.value.line_no, str(info.value)) == (line_no, f"line {line_no}: {message}")


def test_parse_comments_and_inferred_n():
    d = parse_edge_list("# a comment\n2 0\n\n0 1\n")
    assert d.n == 3
    assert d.arcs == ((0, 1), (2, 0))


def test_parse_empty_input_is_empty_graph():
    assert parse_edge_list("").n == 0


@settings(max_examples=120)
@given(st.text(max_size=60))
def test_parse_arbitrary_text_fails_cleanly(text):
    try:
        parse_edge_list(text)
    except EdgeListParseError:
        pass


@settings(max_examples=60)
@given(digraphs())
def test_edge_list_round_trip(d):
    assert parse_edge_list(to_edge_list(d)) == d


def test_writer_is_sorted_with_header():
    d = Digraph(3, [(2, 0), (0, 1)])
    assert to_edge_list(d) == "n 3\n0 1\n2 0\n"


def test_fingerprint_distinguishes_and_repeats():
    assert fingerprint(C3) == fingerprint(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert fingerprint(C3) != fingerprint(CHAIN)


# ---------------------------------------------------------------------------
# constructor invariants
# ---------------------------------------------------------------------------

def test_constructor_rejects_self_loop_duplicate_out_of_range():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(-1)


@pytest.mark.parametrize("arcs, message", [
    ([(0, 1), (0, 1), (5, 5)], "duplicate arc (0,1)"),
    ([(0, 1), (4, 4), (0, 1)], "arc (4,4) out of range for n=3"),
    ([(0, 1), (1, 0), (2, 2)], "self-loop (2,2) not allowed in a simple digraph"),
    ([(1, 0), (0, 1), (1, 0)], "duplicate arc (1,0)"),
])
def test_constructor_names_the_first_fault(arcs, message):
    # in the order given, also when the arcs come from an iterator
    for given in (arcs, iter(arcs)):
        with pytest.raises(ValueError) as info:
            Digraph(3, given)
        assert str(info.value) == message


def test_isolated_vertices_allowed():
    d = Digraph(4, [(0, 1)])
    assert d.n == 4 and d.succ_masks[3] == d.pred_masks[3] == 0


# ---------------------------------------------------------------------------
# reach_mask
# ---------------------------------------------------------------------------

def reach(d, sources, forbidden):
    """``reach_mask`` on vertex sets, as a set."""
    return set(iter_bits(reach_mask(d.succ_masks, mask_from(sources), mask_from(forbidden))))


def test_reach_examples():
    assert reach(C3, [0], [1]) == {0}
    assert reach(C3, [], []) == set()
    assert reach(C3, [0], []) == {0, 1, 2}


def test_reach_source_in_forbidden_is_dropped():
    assert reach(C3, [0], [0]) == set()


@settings(max_examples=60)
@given(digraphs(8), vertex_sets(8), vertex_sets(8), vertex_sets(8))
def test_reach_monotone_antitone_idempotent(d, s1, extra, forb):
    s1 = {v for v in s1 if v < d.n}
    extra = {v for v in extra if v < d.n}
    forb = {v for v in forb if v < d.n}
    small = reach(d, s1, forb)
    assert small == set_reach(d.arcs, s1, forb)
    big = reach(d, s1 | extra, forb)
    assert small <= big  # monotone in sources
    wider = reach(d, s1, set())
    assert small <= wider  # antitone in forbidden
    assert reach(d, small, forb) == small  # idempotent


# ---------------------------------------------------------------------------
# scc / is_acyclic
# ---------------------------------------------------------------------------

def test_scc_examples():
    assert set(scc(C3)) == {frozenset({0, 1, 2})}
    assert set(scc(CHAIN)) == {frozenset({0}), frozenset({1}), frozenset({2})}
    two = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert set(scc(two)) == {frozenset({0, 1}), frozenset({2, 3})}


def test_scc_partitions_vertices():
    d = Digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    classes = scc(d)
    seen = set()
    for c in classes:
        assert not seen & c
        seen |= c
    assert seen == set(range(5))


def test_scc_of_a_sparse_huge_graph():
    # one 2-cycle among 100,000 vertices: a reach row per vertex would
    # take about 625 MB
    comps = scc(Digraph(100_000, [(0, 1), (1, 0)]))
    assert len(comps) == 99_999
    assert frozenset({0, 1}) in comps


def _has_cycle_dfs(d):
    """Independent cycle check: plain three-color depth-first search."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * d.n

    def visit(v):
        color[v] = GRAY
        for w in iter_bits(d.succ_masks[v]):
            if color[w] == GRAY:
                return True
            if color[w] == WHITE and visit(w):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in range(d.n))


@settings(max_examples=80)
@given(digraphs(7))
def test_is_acyclic_matches_dfs_cycle_detection(d):
    assert is_acyclic(d) == (not _has_cycle_dfs(d))


def test_is_acyclic_examples():
    assert is_acyclic(CHAIN)
    assert not is_acyclic(C3)
    assert is_acyclic(Digraph(0))


def _set_components(d, active):
    """D[active]'s reach rows and strong components (masks, by lowest
    vertex) and whether it has a cycle, from set_reach alone."""
    forbidden = {v for v in range(d.n) if not active >> v & 1}
    reached = {v: set_reach(d.arcs, {v}, forbidden) for v in range(d.n) if v not in forbidden}
    rows = [sum(1 << u for u in reached.get(v, ())) for v in range(d.n)]
    comps = []
    left = set(reached)
    while left:
        v = min(left)
        comp = {u for u in reached[v] if v in reached[u]}
        comps.append(sum(1 << u for u in comp))
        left -= comp
    cyclic = any(u in reached.get(v, ()) for u, v in d.arcs if u in reached)
    return rows, comps, cyclic


def _check_components_and_acyclicity(d, actives):
    for active in actives:
        rows, comps, cyclic = _set_components(d, active)
        assert component_masks(rows, active) == comps, (d.arcs, active)
        assert acyclic_mask(d.pred_masks, active) == (not cyclic), (d.arcs, active)


def test_component_and_acyclic_masks_census():
    # every labeled digraph with n <= 4 under every vertex subset, as the
    # visible kernel passes V - C for every cop set C
    for n in range(5):
        for arcs in enumerate_arc_lists(n):
            _check_components_and_acyclicity(Digraph(n, arcs), range(1 << n))


def test_component_and_acyclic_masks_random():
    rng = random.Random(8)
    for trial in range(60):
        n = rng.randint(5, 9)
        d = random_digraph(n, rng.choice([0.15, 0.25, 0.4]), trial)
        actives = [d.full_mask] + [rng.getrandbits(n) for _ in range(6)]
        _check_components_and_acyclicity(d, actives)


def _check_scc_order(d):
    comps = scc(d)
    _, want, _ = _set_components(d, d.full_mask)
    assert sorted(comps, key=min) == [frozenset(b for b in range(d.n) if c >> b & 1) for c in want]
    for i, comp in enumerate(comps):
        later = set().union(*comps[i + 1:])
        assert not set_reach(d.arcs, comp, ()) & later, (d.arcs, comps)


def test_scc_reverse_topological_order_census():
    for n in range(5):
        for arcs in enumerate_arc_lists(n):
            _check_scc_order(Digraph(n, arcs))


def test_scc_reverse_topological_order_random():
    rng = random.Random(9)
    for trial in range(60):
        n = rng.randint(5, 9)
        _check_scc_order(random_digraph(n, rng.choice([0.1, 0.2, 0.3]), trial))
    # a 2-cycle feeding another: the sink comes first, though its vertices are higher
    assert scc(Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])) == (
        frozenset({2, 3}), frozenset({0, 1}))


# ---------------------------------------------------------------------------
# induced subgraphs / bidirect / closure
# ---------------------------------------------------------------------------

def test_induced_subgraph_examples():
    sub, relabel = induced_subgraph(C3, [0, 1])
    assert sub == Digraph(2, [(0, 1)])
    assert relabel == {0: 0, 1: 1}
    full, _ = induced_subgraph(C3, [0, 1, 2])
    assert full == C3
    empty, _ = induced_subgraph(C3, [])
    assert empty == Digraph(0)


def test_induced_subgraph_relabels_densely():
    sub, relabel = induced_subgraph(CHAIN, [0, 2])
    assert sub == Digraph(2, [])
    assert relabel == {0: 0, 2: 1}


def test_bidirect_examples():
    k3 = bidirect(3, [(0, 1), (0, 2), (1, 2)])
    assert k3.m == 6
    assert bidirect(2, [(0, 1)]) == Digraph(2, [(0, 1), (1, 0)])
    assert bidirect(3, []) == Digraph(3, [])
    with pytest.raises(ValueError):
        bidirect(2, [(1, 1)])


def test_closure_masks_examples():
    assert closure_masks(CHAIN) == (0b111, 0b110, 0b100)
    assert closure_masks(Digraph(2, [])) == (0b01, 0b10)
    assert closure_masks(C3) == (0b111,) * 3

import concurrent.futures
import dataclasses
import os
import random

import pytest

from copwin.arena import INVISIBLE_LAZY, SUPPORTED_VARIANTS, VISIBLE_FAST
from copwin.bits import mask_to_tuple
from copwin.digraph import Digraph, fingerprint
from copwin.errors import SizeLimitError
from copwin import lab
from copwin.lab import (
    GAP_FIELDS,
    GapRecord,
    GapScanSummary,
    canonical_graph_key,
    enumerate_connected_graphs,
    enumerate_digraphs,
    gap_scan,
    graph_id_of,
    random_digraph,
)
from copwin.reports import rows_to_csv, rows_to_jsonl
from copwin.solver import CopNumberResult, GapResult, gap, solve, verify_certificate


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_digraph_counts():
    assert sum(1 for _ in enumerate_digraphs(1)) == 1
    assert sum(1 for _ in enumerate_digraphs(2)) == 4
    assert sum(1 for _ in enumerate_digraphs(3)) == 64


def test_enumerate_digraphs_distinct_and_deterministic():
    run1 = [fingerprint(d) for d in enumerate_digraphs(3)]
    run2 = [fingerprint(d) for d in enumerate_digraphs(3)]
    assert run1 == run2
    assert len(set(run1)) == 64


def test_enumerate_digraphs_size_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_digraphs(6))


# ---------------------------------------------------------------------------
# random digraphs
# ---------------------------------------------------------------------------

def test_random_digraph_extremes():
    assert random_digraph(5, 0.0, 1).m == 0
    assert random_digraph(5, 1.0, 1).m == 20


def test_random_digraph_size_limit(monkeypatch):
    assert random_digraph(lab.RANDOM_MAX_N, 0.0, 1).n == lab.RANDOM_MAX_N

    def no_draw(seed):
        raise AssertionError("drew before checking n")

    monkeypatch.setattr(lab.random, "Random", no_draw)
    with pytest.raises(SizeLimitError, match=f"n <= {lab.RANDOM_MAX_N}, got 513"):
        random_digraph(lab.RANDOM_MAX_N + 1, 0.3, 1)


def test_random_digraph_deterministic():
    a = random_digraph(5, 0.3, 42)
    b = random_digraph(5, 0.3, 42)
    assert a == b
    c = random_digraph(5, 0.3, 43)
    assert a != c  # different seed, virtually certain to differ


def test_random_digraph_validates_p():
    with pytest.raises(ValueError):
        random_digraph(3, 1.5, 0)


# ---------------------------------------------------------------------------
# connected undirected graphs up to isomorphism
# ---------------------------------------------------------------------------

def test_connected_graph_class_counts():
    # numbers of connected graphs up to isomorphism on 1..5 vertices
    for n, count in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)]:
        assert len(enumerate_connected_graphs(n)) == count


def test_connected_graphs_reject_negative_n():
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_connected_graphs(-1)


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        assert canonical_graph_key(n, edges) == canonical_graph_key(n, permuted)


def test_canonical_key_separates_non_isomorphic():
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    assert canonical_graph_key(4, path) != canonical_graph_key(4, star)


# ---------------------------------------------------------------------------
# gap scanning
# ---------------------------------------------------------------------------

def test_gap_scan_all_n3_visible_gap_free():
    result = gap_scan(list(enumerate_digraphs(3)), VISIBLE_FAST)
    assert result.summary.instances == 64
    assert result.summary.gaps_positive == 0
    assert result.summary.errors == 0
    assert all(r.gap == 0 and r.ratio == 1.0 and r.status == "ok" for r in result.records)


def test_gap_scan_sink_streams_records_and_drops_certificates():
    consumed = []
    seen = []

    def source():
        for d in enumerate_digraphs(2):
            consumed.append(d)
            yield d

    def sink(rec):
        seen.append((len(consumed), rec))

    result = gap_scan(source(), VISIBLE_FAST, sink=sink)
    full = gap_scan(list(enumerate_digraphs(2)), VISIBLE_FAST)
    # each record reaches the sink, certificates included, before the
    # next graph is drawn from the source
    assert [count for count, _ in seen] == [1, 2, 3, 4]
    assert [rec for _, rec in seen] == list(full.records)
    assert all(rec.certificate_plain is not None for _, rec in seen)
    # a scan with a sink keeps no record, only the summary
    assert result.records == ()
    assert result.summary == full.summary


def _record(status, gap=None, ratio=None):
    return GapRecord("g", 2, 0, "visible-fast", None, None, gap, ratio, 0, status)


@pytest.mark.parametrize("records, expected", [
    ([], GapScanSummary(0, 0, 0, 0, 0, 1.0)),
    ([_record("budget-exceeded")], GapScanSummary(1, 0, 1, 0, 0, 1.0)),
    ([_record("ok", 0, 1.0), _record("ok", 1, 1.5), _record("budget-exceeded"),
      _record("gap-unconfirmed", 2, 2.0), _record("ok", 1, 1.25)],
     GapScanSummary(5, 4, 1, 3, 2, 2.0)),
])
def test_gap_scan_summary_tallies_records(monkeypatch, records, expected):
    monkeypatch.setattr(lab, "_scan_records", lambda *args: iter(records))
    kept = gap_scan([], VISIBLE_FAST)
    assert kept.records == tuple(records)
    assert kept.summary == expected
    seen = []
    streamed = gap_scan([], VISIBLE_FAST, sink=seen.append)
    assert seen == records and streamed.records == ()
    assert streamed.summary == expected


def test_gap_scan_empty_source():
    result = gap_scan([], INVISIBLE_LAZY)
    assert result.summary.instances == 0
    assert result.summary.max_gap == 0
    assert result.records == ()


def test_gap_scan_deterministic_reports():
    graphs = [random_digraph(4, 0.4, s) for s in range(8)]
    r1 = gap_scan(graphs, VISIBLE_FAST)
    r2 = gap_scan(graphs, VISIBLE_FAST)
    csv1 = rows_to_csv(GAP_FIELDS, [r.to_row() for r in r1.records])
    csv2 = rows_to_csv(GAP_FIELDS, [r.to_row() for r in r2.records])
    assert csv1 == csv2
    jl1 = rows_to_jsonl([r.to_row() for r in r1.records])
    jl2 = rows_to_jsonl([r.to_row() for r in r2.records])
    assert jl1 == jl2


def test_gap_scan_parallel_matches_serial(monkeypatch):
    # with windows of 8, a source of 20 graphs spans three windows
    monkeypatch.setattr(lab, "SCAN_WINDOW", 8)
    graphs = [random_digraph(4, 0.4, s) for s in range(20)]
    graphs[::3] = [(f"id{i}", d) for i, d in enumerate(graphs[::3])]
    drawn = []

    def source():
        for item in graphs:
            drawn.append(item)
            yield item

    seen = []
    parallel = gap_scan(source(), INVISIBLE_LAZY, jobs=2,
                        sink=lambda rec: seen.append((len(drawn), rec)))
    serial = gap_scan(graphs, INVISIBLE_LAZY, jobs=1)
    assert [rec for _, rec in seen] == list(serial.records)
    assert parallel.summary == serial.summary
    # the scan never draws more than one window past the records made, so
    # its first record of 20 comes long before the source runs dry
    assert all(drawn_then <= made + lab.SCAN_WINDOW
               for made, (drawn_then, _) in enumerate(seen))


@pytest.mark.parametrize("jobs, cpus, count, workers", [
    (5000, 8, 3, 3),  # no more workers than graphs,
    (5000, 8, 10, 4),  # nor than the first window's graphs,
    (5000, 3, 10, 3),  # nor than the CPUs
    (2, 8, 10, 2),
    (5000, None, 10, None),  # an unknown CPU count counts as one: no pool
    (5000, 8, 1, None),  # one graph needs no pool
    (1, 8, 10, None),
])
def test_gap_scan_pool_size(monkeypatch, jobs, cpus, count, workers):
    # windows of 4: one pool serves all three windows of 10 graphs
    monkeypatch.setattr(lab, "SCAN_WINDOW", 4)
    sizes = []

    class InlinePool:
        """Records the pool size it is asked for and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    graphs = [random_digraph(3, 0.4, s) for s in range(count)]
    result = gap_scan(graphs, VISIBLE_FAST, jobs=jobs)
    assert sizes == ([] if workers is None else [workers])
    assert result.records == gap_scan(graphs, VISIBLE_FAST).records


def test_gap_scan_budget_error_recorded_in_row():
    graphs = [Digraph(3, [(0, 1), (1, 2), (2, 0)]), Digraph(2, [])]
    result = gap_scan(graphs, VISIBLE_FAST, state_budget=30)
    assert result.records[0].status == "budget-exceeded"
    assert result.records[0].copnum is None
    # the scan continued: the trivial second instance still solved
    assert result.records[1].status == "ok"
    assert result.summary.errors == 1


@pytest.mark.parametrize("variant", SUPPORTED_VARIANTS, ids=lambda v: v.name)
def test_gap_scan_certifies_a_plain_value_that_gap_did_not_solve(variant):
    graphs = [Digraph(0), Digraph(3, [(0, 1), (1, 2), (2, 0)]),
              Digraph(4, [(0, 1), (0, 2), (2, 3)]), random_digraph(5, 0.4, 7)]
    records = gap_scan(graphs, variant).records
    for d, rec in zip(graphs, records):
        assert gap(d, variant).plain.outcome is None
        assert rec.status == "ok"
        assert rec.certificate_plain == solve(d, rec.copnum, variant).certificate
        assert verify_certificate(d, rec.certificate_plain)


@pytest.mark.parametrize("truncate", [False, True], ids=["valid", "truncated"])
def test_gap_scan_attests_a_positive_gap(monkeypatch, truncate):
    # no digraph with n <= 5 has a gap, so a stand-in for gap reports
    # plain 2 and monotone 3 on C3, with the real plain cop win at k = 2
    # (its certificate truncated in the second case); the scan's own
    # replay and its monotone retry at k = 2, a cop win, are real
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    plain = solve(c3, 2, VISIBLE_FAST)
    if truncate:
        # drop the kernel's strategy entry that sorts last in the certificate
        cert = plain.certificate
        *solved, won = plain.kernel_win
        last = max(won, key=lambda key: (mask_to_tuple(key[0]), key[1]))
        won = {key: move for key, move in won.items() if key != last}
        plain = dataclasses.replace(plain, kernel_win=(*solved, won))
        assert plain.certificate == dataclasses.replace(cert, body=cert.body[:-1])
    mono = solve(c3, 3, VISIBLE_FAST, monotone=True)
    fake = GapResult(2, 3, 1, 1.5, CopNumberResult(2, plain), CopNumberResult(3, mono))
    monkeypatch.setattr(lab, "gap", lambda *args, **kwargs: fake)
    result = gap_scan([c3], VISIBLE_FAST)
    rec = result.records[0]
    assert (rec.copnum, rec.mon_copnum, rec.gap, rec.status) == (2, 3, 1, "gap-unconfirmed")
    assert rec.attestation == {
        "k": 2,
        "plain_certificate_valid": not truncate,
        "monotone_winner": "cops",
        "monotone_states_explored":
            solve(c3, 2, VISIBLE_FAST, monotone=True).states_explored,
    }
    assert rec.certificate_plain == plain.certificate
    assert result.summary.gaps_positive == 1


def test_gap_scan_budget_error_in_the_certificate_solve():
    # at this budget gap settles both values, but the plain cop-win
    # solve that certifies them does not fit: on the directed path P5,
    # one cop's pre-flight estimate is 6 * 5 * 6 = 180 and the plain
    # solve counts 190 (re-chosen when shared robber responses lowered
    # the visible count; no 4-vertex digraph has such a budget now)
    d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = gap(d, VISIBLE_FAST, state_budget=185)
    assert (res.cop_number, res.plain.outcome) == (1, None)
    rec = gap_scan([d], VISIBLE_FAST, state_budget=185).records[0]
    assert rec.status == "budget-exceeded"
    assert (rec.copnum, rec.mon_copnum, rec.certificate_plain) == (None, None, None)


def test_gap_scan_honours_explicit_ids():
    graphs = [("mine", Digraph(1))]
    result = gap_scan(graphs, VISIBLE_FAST)
    assert result.records[0].graph_id == "mine"


def test_gap_record_invariants_on_scan():
    result = gap_scan(list(enumerate_digraphs(2)), INVISIBLE_LAZY)
    for rec in result.records:
        assert rec.gap >= 0
        assert rec.ratio >= 1.0
        assert rec.n == 2
        assert len(rec.graph_id) == 12
        assert rec.graph_id == graph_id_of(Digraph(2, []))[:12] or rec.m > 0


@pytest.mark.parametrize("state_budget", [None, 60])
def test_gap_scan_measure_runtime_fills_only_runtime(state_budget):
    # timed records differ from untimed ones only in runtime_ms, a
    # non-negative int, on solved and budget-exceeded rows alike
    graphs = list(enumerate_digraphs(3))
    budget = {} if state_budget is None else {"state_budget": state_budget}
    timed = gap_scan(graphs, VISIBLE_FAST, measure_runtime=True, **budget)
    untimed = gap_scan(graphs, VISIBLE_FAST, **budget)
    assert all(type(r.runtime_ms) is int and r.runtime_ms >= 0 for r in timed.records)
    assert [dataclasses.replace(r, runtime_ms=0).to_row() for r in timed.records] == [
        r.to_row() for r in untimed.records]
    assert all(r.runtime_ms == 0 for r in untimed.records)
    assert timed.summary == untimed.summary
    statuses = {r.status for r in timed.records}
    assert statuses == ({"ok"} if state_budget is None else {"ok", "budget-exceeded"})


def test_csv_headers_match_contract():
    text = rows_to_csv(GAP_FIELDS, [])
    assert text == "graph_id,n,m,variant,copnum,mon_copnum,gap,ratio,runtime_ms,status\n"

"""Experiment harness: instance generation and non-monotonicity scanning.

``gap_scan`` is the empirical instrument for witnessing monotonicity
costs: it records plain and monotone cop numbers per instance, and any
positive gap ships with a verified non-monotone certificate plus a
reproduced monotone failure at the same cop count.
"""
from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .arena import GameVariant
from .digraph import Digraph, fingerprint, reach_mask
from .errors import SizeLimitError, StateBudgetExceededError
from .solver import DEFAULT_STATE_BUDGET, Certificate, gap, solve, verify_certificate

ENUMERATION_MAX_N = 5

# largest n random_digraph draws: its time and memory grow as n^2
RANDOM_MAX_N = 512

# graphs a parallel gap scan draws from its source per pool map: what it
# holds at once, however long the source
SCAN_WINDOW = 512

GAP_FIELDS = (
    "graph_id",
    "n",
    "m",
    "variant",
    "copnum",
    "mon_copnum",
    "gap",
    "ratio",
    "runtime_ms",
    "status",
)


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """All 2^(n(n-1)) labeled simple digraphs on n vertices, fixed order."""
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"exhaustive digraph enumeration handles n <= {ENUMERATION_MAX_N}, got {n}"
        )
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, (pairs[i] for i in range(len(pairs)) if bits >> i & 1))


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Include each ordered pair u != v independently with probability p.

    Pairs are visited in lexicographic order drawing one uniform variate
    each from CPython's Mersenne Twister (random.Random(seed).random()),
    so identical (n, p, seed) give identical graphs on every platform.
    """
    if n > RANDOM_MAX_N:
        raise SizeLimitError(f"random digraphs handle n <= {RANDOM_MAX_N}, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"arc probability {p} outside [0,1]")
    rng = random.Random(seed)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# Undirected connected graphs up to isomorphism (for the tree-width
# cross-check); canonical forms via color refinement plus minimization
# over color-preserving relabelings.
# ---------------------------------------------------------------------------

def _refined_colors(n, adj):
    colors = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [rank[keys[v]] for v in range(n)]
        if new == colors:
            break
        colors = new
    return colors


def canonical_graph_key(n: int, edges) -> tuple:
    """Isomorphism-invariant canonical edge tuple of an undirected graph."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = _refined_colors(n, adj)
    classes: Dict[int, List[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    best = None
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = {}
        i = 0
        for block in arrangement:
            for old in block:
                pos[old] = i
                i += 1
        key = tuple(sorted(
            (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
            for u, v in edges
        ))
        if best is None or key < best:
            best = key
    return (n, best if best is not None else ())


def enumerate_connected_graphs(n: int) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """Connected undirected graphs on n vertices, one per isomorphism class."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > 6:
        raise SizeLimitError(f"connected-graph enumeration handles n <= 6, got {n}")
    if n == 0:
        return []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    reps = []
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        if not _connected_undirected(n, edges):
            continue
        key = canonical_graph_key(n, edges)
        if key not in seen:
            seen.add(key)
            reps.append((n, key[1]))
    return reps


def _connected_undirected(n, edges):
    if n == 0:
        return False
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return reach_mask(adj, 1, 0) == (1 << n) - 1


# ---------------------------------------------------------------------------
# Gap scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapRecord:
    graph_id: str
    n: int
    m: int
    variant: str
    copnum: Optional[int]
    mon_copnum: Optional[int]
    gap: Optional[int]
    ratio: Optional[float]
    runtime_ms: int
    status: str
    certificate_plain: Optional[Certificate] = None
    certificate_monotone: Optional[Certificate] = None
    attestation: Optional[dict] = None

    def to_row(self) -> dict:
        return {field: getattr(self, field) for field in GAP_FIELDS}


@dataclass(frozen=True)
class GapScanSummary:
    instances: int
    solved: int
    errors: int
    gaps_positive: int
    max_gap: int
    max_ratio: float


@dataclass(frozen=True)
class GapScanResult:
    records: Tuple[GapRecord, ...]
    summary: GapScanSummary


GraphSource = Iterable[Union[Digraph, Tuple[str, Digraph]]]


def graph_id_of(d: Digraph) -> str:
    return fingerprint(d)[:12]


def _scan_one(variant, state_budget, measure_runtime, task):
    gid, d = task
    if gid is None:
        gid = graph_id_of(d)
    started = time.perf_counter()
    try:
        res = gap(d, variant, state_budget=state_budget)
        plain = res.plain.outcome
        if plain is None:
            # gap settled the plain value without a cop win to certify
            plain = solve(d, res.cop_number, variant, state_budget=state_budget)
    except StateBudgetExceededError:
        elapsed = int((time.perf_counter() - started) * 1000) if measure_runtime else 0
        return GapRecord(
            gid, d.n, d.m, variant.name, None, None, None, None, elapsed,
            "budget-exceeded",
        )
    elapsed = int((time.perf_counter() - started) * 1000) if measure_runtime else 0
    attestation = None
    status = "ok"
    if res.gap > 0:
        # a positive gap must be machine-checkable: replay the plain
        # certificate and reproduce the monotone failure at k = copnum
        plain_ok = bool(verify_certificate(d, plain.certificate))
        retry = solve(d, res.cop_number, variant, monotone=True,
                      state_budget=state_budget)
        attestation = {
            "k": res.cop_number,
            "plain_certificate_valid": plain_ok,
            "monotone_winner": retry.winner.value,
            "monotone_states_explored": retry.states_explored,
        }
        if not plain_ok or retry.cops_win:
            status = "gap-unconfirmed"
    return GapRecord(
        gid, d.n, d.m, variant.name,
        res.cop_number, res.monotone_cop_number, res.gap, res.ratio,
        elapsed, status,
        certificate_plain=plain.certificate,
        certificate_monotone=res.monotone.outcome.certificate,
        attestation=attestation,
    )


def _scan_records(graphs, variant, state_budget, jobs, measure_runtime):
    """Yield one GapRecord per source graph, in source order.

    The serial path pulls each graph from the source only when its
    record is due.  A parallel scan draws ``SCAN_WINDOW`` graphs at a
    time and maps each window over one pool of at most ``jobs`` workers,
    no more than the CPUs or the first window's graphs.
    """
    scan = functools.partial(_scan_one, variant, state_budget, measure_runtime)
    tasks = (item if isinstance(item, tuple) else (None, item) for item in graphs)
    if jobs > 1:
        window = list(itertools.islice(tasks, SCAN_WINDOW))
        workers = min(jobs, os.cpu_count() or 1, len(window))
        if workers > 1:
            # imported here: the pool pulls in multiprocessing, which no
            # serial scan needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                while window:
                    yield from pool.map(scan, window, chunksize=16)
                    window = list(itertools.islice(tasks, SCAN_WINDOW))
            return
        tasks = itertools.chain(window, tasks)
    for task in tasks:
        yield scan(task)


def gap_scan(
    graphs: GraphSource,
    variant: GameVariant,
    state_budget: int = DEFAULT_STATE_BUDGET,
    jobs: int = 1,
    measure_runtime: bool = False,
    sink: Optional[Callable[[GapRecord], None]] = None,
) -> GapScanResult:
    """One GapRecord per instance, in source order, plus a summary.

    Per-instance budget errors are recorded in-row and the scan
    continues.  Records are merged in source order regardless of worker
    completion order, so reports are deterministic for a fixed source;
    runtime_ms is 0 unless measure_runtime is set (wall-clock timings
    are inherently non-reproducible).

    The source is read lazily: a serial scan draws each graph when its
    record is due, and ``jobs > 1`` draws ``SCAN_WINDOW`` graphs ahead
    at most.  With a ``sink``, each record is handed to it as soon as it
    is made and none is kept: ``records`` is empty and only the summary
    remains, so a scan runs in bounded memory however long its source.
    """
    records = []
    instances = solved = gaps_positive = max_gap = 0
    max_ratio = 1.0
    for rec in _scan_records(graphs, variant, state_budget, jobs, measure_runtime):
        if sink is None:
            records.append(rec)
        else:
            sink(rec)
        instances += 1
        if rec.status != "budget-exceeded":
            solved += 1
            gaps_positive += rec.gap > 0
            max_gap = max(max_gap, rec.gap)
            max_ratio = max(max_ratio, rec.ratio)
    summary = GapScanSummary(
        instances, solved, instances - solved, gaps_positive, max_gap, max_ratio
    )
    return GapScanResult(tuple(records), summary)


"""Experiment harness: instance generation and non-monotonicity scanning.

``gap_scan`` is the empirical instrument for witnessing monotonicity
costs: it records plain and monotone cop numbers per instance, and any
positive gap ships with a verified non-monotone certificate plus a
reproduced monotone failure at the same cop count.  A record keeps the
cop-win solves at both numbers, and a certificate is built from one
only when it is read: a scan that writes no certificates builds none.
"""
from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

from .arena import GameVariant
from .certificates import verify_certificate
from .digraph import Digraph, fingerprint
from .errors import SizeLimitError, StateBudgetExceededError
from .solver import DEFAULT_STATE_BUDGET, Outcome, gap, solve

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
    plain_outcome: Optional[Outcome] = None
    monotone_outcome: Optional[Outcome] = None
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
        plain_outcome=plain,
        monotone_outcome=res.monotone.outcome,
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
    *,
    sink: Callable[[GapRecord], None],
) -> GapScanSummary:
    """Hand ``sink`` one GapRecord per instance, in source order, and
    return the summary.

    Per-instance budget errors are recorded in-row and the scan
    continues.  Records are merged in source order regardless of worker
    completion order, so reports are deterministic for a fixed source;
    runtime_ms is 0 unless measure_runtime is set (wall-clock timings
    are inherently non-reproducible).

    The source is read lazily: a serial scan draws each graph when its
    record is due, and ``jobs > 1`` draws ``SCAN_WINDOW`` graphs ahead
    at most.  Each record is handed to ``sink`` as soon as it is made and
    none is kept, so a scan runs in bounded memory however long its
    source.
    """
    instances = solved = gaps_positive = max_gap = 0
    max_ratio = 1.0
    for rec in _scan_records(graphs, variant, state_budget, jobs, measure_runtime):
        sink(rec)
        instances += 1
        if rec.status != "budget-exceeded":
            solved += 1
            gaps_positive += rec.gap > 0
            max_gap = max(max_gap, rec.gap)
            max_ratio = max(max_ratio, rec.ratio)
    return GapScanSummary(
        instances, solved, instances - solved, gaps_positive, max_gap, max_ratio
    )


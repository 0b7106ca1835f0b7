"""Benchmark the pure-Python kernels against the compiled twin.

Run:  python benchmarks/bench_engines.py [--repeats N]

Workloads mirror real use: the n=4 census slice, cycle solves at
moderate cop counts, the bidirected-clique cross-check instances, and
n=9 visible arenas whose strong components are large.
Each backend runs each workload N times (default 5); the table shows
the median and the min-max range, and the speedup is the ratio of the
medians.
"""
import argparse
import random
import statistics
import time

from copwin.bits import subsets_upto
from copwin.digraph import Digraph, bidirect
from copwin.engine import available_backends
from copwin.lab import enumerate_digraphs, random_digraph

BUDGET = 50_000_000


def workload_census(backend):
    count = 0
    for i, d in enumerate(enumerate_digraphs(4)):
        if i % 8:  # a deterministic 1/8 slice keeps the pure run short
            continue
        succ, pred, n = d.succ_masks, d.pred_masks, d.n
        for k in range(5):
            moves = subsets_upto(n, k)
            for mono in (False, True):
                backend.solve_visible(succ, pred, n, moves, mono, False, BUDGET)
                backend.solve_invisible(succ, n, moves, True, mono, BUDGET)
                count += 2
    return count


def workload_cycles(backend):
    count = 0
    for n in range(5, 9):
        d = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        succ, pred = d.succ_masks, d.pred_masks
        for k in (1, 2, 3):
            moves = subsets_upto(n, k)
            backend.solve_visible(succ, pred, n, moves, False, False, BUDGET)
            backend.solve_visible(succ, pred, n, moves, True, False, BUDGET)
            backend.solve_invisible(succ, n, moves, True, False, BUDGET)
            count += 3
    return count


def workload_cliques(backend):
    count = 0
    for n in (4, 5, 6):
        d = bidirect(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        succ, pred = d.succ_masks, d.pred_masks
        for k in range(n + 1):
            moves = subsets_upto(n, k)
            backend.solve_visible(succ, pred, n, moves, True, False, BUDGET)
            backend.solve_invisible(succ, n, moves, True, True, BUDGET)
            count += 2
    return count


def workload_visible_n9(backend):
    rng = random.Random(25)
    graphs = [
        random_digraph(9, 0.3, 1),
        bidirect(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.3]),
    ]
    moves = subsets_upto(9, 3)
    count = 0
    for d in graphs:
        for mono in (False, True):
            backend.solve_visible(d.succ_masks, d.pred_masks, d.n, moves, mono, False, BUDGET)
            count += 1
    return count


WORKLOADS = [
    ("n=4 census slice", workload_census),
    ("directed cycles C5..C8", workload_cycles),
    ("bidirected cliques K4..K6", workload_cliques),
    ("visible arenas n=9, k=3", workload_visible_n9),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per backend and workload (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    backends = available_backends()
    print(f"backends available: {', '.join(sorted(backends))}; {args.repeats} run(s) each")
    results = {}
    for wname, fn in WORKLOADS:
        row = {}
        for bname, backend in sorted(backends.items()):
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                solves = fn(backend)
                times.append(time.perf_counter() - start)
            row[bname] = (statistics.median(times), min(times), max(times), solves)
        results[wname] = row

    names = sorted(backends)
    print(f"\n{'workload':<28} {'solves':>7} "
          + " ".join(f"{b + ' median (min-max) s':>28}" for b in names))
    for wname, row in results.items():
        solves = next(iter(row.values()))[3]
        cells = " ".join(
            f"{f'{row[b][0]:.3f} ({row[b][1]:.3f}-{row[b][2]:.3f})':>28}" for b in names)
        print(f"{wname:<28} {solves:>7} {cells}")
    if "c" in backends and "py" in backends:
        print("\nspeedup (py/c, medians):")
        for wname, row in results.items():
            print(f"  {wname:<28} {row['py'][0] / row['c'][0]:6.1f}x")


if __name__ == "__main__":
    main()

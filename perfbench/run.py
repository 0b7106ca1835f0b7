"""copwin benchmark: the CLI verbs, driven in-process on generated files.

    python3 perfbench/run.py --workload census --seed 0 --seconds 60 --trace 0

Run from the root of a copwin checkout; copwin is imported from ``src/``.
One process, one thread.  The run

1. imports copwin, then sets up the workload several times (generate the
   instances, write their edge-list files, make the warm-up calls) and
   reports the import time plus the median set-up as ``setup_s``;
2. repeats passes over the workload's ``copwin.cli.main([...])`` calls
   until the next pass would end after ``--seconds``, with standard output
   captured in memory, timing every call;
3. checks every answer of every pass, outside the timed region.

With ``--trace 0`` the result line carries the end-to-end metrics.  While
they are measured, ``hostspeed.Sampler`` samples how fast the host runs
the process, and every time is scaled to nominal host speed: a call's
time by the samples taken during it, ``setup_s`` by those of the set-up.
A pass's time is the sum, over its calls, of each call's median scaled
time in the run (see ``pass_time``).  The unscaled times are printed and
recorded beside them.  With ``--trace 1`` the sampler is off, untraced and
traced passes alternate, and the result line carries the per-layer
metrics of the traced passes (median over them) plus
``trace.overhead_ratio``, the traced over the untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it list the environment and every metric by name and unit.  The full
record, with per-call times and every layer's self time, goes to
``perfbench/_work/BENCH_<workload>[_trace].json``; a traced run also
writes the spans of its last traced pass to
``perfbench/_work/spans_<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="instance size; 'tiny' is for the benchmark's own tests")
    p.add_argument("--work-dir", default=str(HERE / "_work"),
                   help="where instances and results are written")
    return p


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    from copwin import __version__
    from copwin.engine import available_backends, default_backend_name

    return {
        "backend": default_backend_name(),
        "backends_available": sorted(available_backends()),
        "copwin_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def call(cli, argv):
    """Run one CLI call with its output captured; returns (rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception is a failed call, not a crash
            traceback.print_exc(file=err)
            rc = "exception"
    return rc, out.getvalue(), err.getvalue()


def timed(sampler, fn, *args):
    """Run ``fn(*args)``; returns its result, wall and CPU seconds, and the
    span of sampler samples taken meanwhile.  The sampler's own time is
    taken out of both times."""
    n0, h0 = len(sampler.samples), sampler.spent
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    t1, c1 = time.perf_counter(), time.process_time()
    h = sampler.spent - h0
    return result, t1 - t0 - h, c1 - c0 - h, (n0, len(sampler.samples))


def run_pass(cli, ops, sampler, tracer=None):
    """Make every call once; returns the pass's times and results."""
    results, times, cpu_times, windows = [], [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.call = i
        result, wall, cpu, window = timed(sampler, call, cli, op.argv)
        results.append(result)
        times.append(wall)
        cpu_times.append(cpu)
        windows.append(window)
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "op_s": times,
        "op_cpu_s": cpu_times,
        "windows": windows,
        "results": results,
    }


def pass_time(passes, key="op_s", scaled=True):
    """The time of one pass: each call's median over the passes, summed.

    With ``scaled`` each call's time is first divided by the host's
    slowdown during that call.  A burst of load on the host that slows one
    call of one pass moves neither that call's median nor the other calls'.
    """
    def t(p, i):
        return p[key][i] / p["slowdown"][i] if scaled else p[key][i]
    return sum(_median([t(p, i) for p in passes]) for i in range(len(passes[0][key])))


def judge(wl, ops, results):
    """Check each call; returns (failures, instances answered)."""
    failures = []
    bad_keys = set()
    for op, (rc, out, err) in zip(ops, results):
        reason = op.check(rc, out) if rc != "exception" else "raised an exception"
        if reason:
            failures.append({"call": op.label, "reason": reason, "stderr": err[-400:]})
            bad_keys.update(op.keys)
    answered = sum(w for k, w in wl.weights.items() if k not in bad_keys)
    return failures, answered


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = HERE.parent
    src = root / "src"
    if not (src / "copwin" / "__init__.py").is_file():
        print(f"error: no copwin sources under {src}", file=sys.stderr)
        return 2
    workdir = Path(args.work_dir) / args.workload

    sampler = hostspeed.Sampler()
    if not args.trace:
        sampler.start()
    try:
        sys.path.insert(0, str(src))
        cli, import_s, _, _ = timed(sampler, importlib.import_module, "copwin.cli")

        def set_up():
            wl = workloads.build(args.workload, args.seed, args.size, workdir)
            return wl, [call(cli, op.argv) for op in wl.warmup]

        attempted = 0
        failures = []
        setup_times = []
        for _ in range(SETUP_REPEATS):
            (wl, warm), setup_wall, _, _ = timed(sampler, set_up)
            setup_times.append(setup_wall)
            attempted += len(warm)
            failures += judge(wl, wl.warmup, warm)[0]
        setup_samples = len(sampler.samples)

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        last_spans = []
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                p = run_pass(cli, wl.ops, sampler, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            p["traced"] = traced
            if traced:
                last_spans = tracer.take()
                p["layers"] = tracing.layer_stats(last_spans)
            passes.append(p)
            elapsed = time.perf_counter() - begin
            enough = len(passes) >= (2 if tracer else 1)
            if enough and elapsed + p["wall_s"] > args.seconds:
                break
    finally:
        sampler.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    # too few samples (a traced run, or a window shorter than a few
    # periods) fall back to the whole run's slowdown, then to 1
    run_slowdown = sampler.slowdown() or 1.0
    setup_slowdown = sampler.slowdown(0, setup_samples) or run_slowdown
    for p in passes:
        p["slowdown"] = [sampler.slowdown(a, b) or run_slowdown for a, b in p.pop("windows")]
    raw_setup_s = import_s + _median(setup_times)

    for p in passes:
        fails, p["answered"] = judge(wl, wl.ops, p.pop("results"))
        attempted += len(wl.ops)
        failures += fails
    failed = len(failures)
    env = environment(root)

    plain = [p for p in passes if not p["traced"]]
    wall = pass_time(plain)
    raw = {
        "setup_s": raw_setup_s,
        "wall_s": pass_time(plain, scaled=False),
        "cpu_s": pass_time(plain, "op_cpu_s", scaled=False),
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.per_layer_metrics(p["layers"], p["wall_s"]) for p in traced]
        metrics = {
            name: (_median([m[name][0] for m in per_pass]), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        metrics["trace.overhead_ratio"] = (pass_time(traced) / wall, "ratio")
    else:
        metrics = {
            "setup_s": (raw_setup_s / setup_slowdown, "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (pass_time(plain, "op_cpu_s"), "s"),
            "instances_per_s": (min(p["answered"] for p in plain) / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "environment": env,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "host": {
            "reference_s": hostspeed.REFERENCE_S,
            "period_s": sampler.period_s,
            "samples": len(sampler.samples),
            "setup_slowdown": setup_slowdown,
            "run_slowdown": run_slowdown,
        },
        "unscaled": raw,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced", "answered",
                                      "op_s", "op_cpu_s", "slowdown")}
                   for p in passes],
        "calls": [
            {"label": op.label, "argv": op.argv,
             "median_s": _median([p["op_s"][i] for p in plain]),
             "min_s": min(p["op_s"][i] for p in plain)}
            for i, op in enumerate(wl.ops)
        ],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["layers_last_traced_pass"] = [p for p in passes if p["traced"]][-1]["layers"]
        with open(workdir.parent / f"spans_{args.workload}.jsonl", "w", encoding="utf-8") as f:
            for sid, (name, parent, op, s0, s1, _) in enumerate(last_spans):
                f.write(json.dumps([sid, parent, op, name, s0, s1]) + "\n")
    suffix = "_trace" if args.trace else ""
    (workdir.parent / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    _print_report(record, metrics, args)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def _print_report(record, metrics, args):
    passes = record["passes"]
    print(f"# copwin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"# passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced); wall s: "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes))
    host, raw = record["host"], record["unscaled"]
    print(f"# host: {host['samples']} samples, slowdown {host['run_slowdown']:.3f} "
          f"(set-up {host['setup_slowdown']:.3f}); unscaled: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    for c in record["calls"]:
        print(f"#   call {c['label']:<24} {c['median_s']:10.4f} s median"
              f" {c['min_s']:10.4f} s min")
    if args.trace:
        layers = record["layers_last_traced_pass"]
        print("# self time per layer, last traced pass:")
        for name in sorted(layers, key=lambda k: -layers[k]["self_s"]):
            st = layers[name]
            print(f"#   {name:<40} calls {st['calls']:>8}  self {st['self_s']:9.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:14.6f} {unit}")
    print(f"{'ops_failed_ratio':<44} {record['ops_failed_ratio']:14.6f} ratio "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for f in record["failures"][:10]:
        print(f"# FAILED {f['call']}: {f['reason']}")


if __name__ == "__main__":
    sys.exit(main())

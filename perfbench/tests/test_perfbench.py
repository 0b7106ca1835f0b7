"""Tests of the benchmark itself.

Its checks must reject a wrong cop number, a tampered certificate, a bad
witness and a non-zero exit code; a tiny size of every workload must run
in seconds and print a well-formed result; the tracer must restore every
binding it replaced, and the host-speed sampler its signal handler.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from copwin import cli, solver  # noqa: E402


def _op(wl, label):
    return next(op for op in wl.ops if op.label == label)


def _call(op, argv=None):
    rc, out, _ = run.call(cli, argv or op.argv)
    return rc, out


@pytest.fixture
def instances(tmp_path):
    return workloads.build("instances", 0, "tiny", tmp_path)


def test_checks_accept_true_answers(instances):
    for op in instances.ops:
        assert op.check(*_call(op)) is None, op.label


def test_check_rejects_wrong_cop_number(instances):
    for name in ("v-d5", "v-b5"):  # recorded answer / tree-width oracle
        gap = _op(instances, f"gap {name}")
        rc, out = _call(gap)
        assert gap.check(rc, out) is None
        assert gap.check(rc, "cop_number=3 monotone_cop_number=3 gap=0 ratio=1.0\n")
        copnum = _op(instances, f"copnum {name}")
        rc, out = _call(copnum)
        assert copnum.check(rc, out) is None
        assert copnum.check(rc, f"{int(out) + 1}\n")
        assert _op(instances, f"dagwidth {name}").check(0, f"{int(out) - 1}\n")


def test_recorded_answers_bind_full_size_instances(tmp_path):
    spec = workloads.VISIBLE_ARENA["full"][0]
    inst = workloads._materialize(spec, 7, tmp_path)
    check = workloads.check_gap(inst, "visible", {})
    plain, mono = spec.expect["visible"]
    assert check(0, f"cop_number={plain} monotone_cop_number={mono} gap=0 ratio=1.0\n") is None
    assert check(0, f"cop_number={plain - 1} monotone_cop_number={mono} gap=1 ratio=1.5\n")


def test_check_rejects_tampered_certificate(instances):
    copnum, certify = _op(instances, "copnum v-d5"), _op(instances, "certify v-d5")
    assert copnum.check(*_call(copnum)) is None
    assert certify.check(*_call(certify)) is None
    cert = Path(certify.argv[2])
    doc = json.loads(cert.read_text())
    doc["body"] = doc["body"][1:]  # drop the move of one reachable position
    cert.write_text(json.dumps(doc))
    rc, out = _call(certify)
    assert rc == cli.EXIT_CERT and out == "INVALID\n"
    assert certify.check(rc, out)
    assert certify.check(0, out)  # the verdict alone is enough to reject


def test_check_rejects_nonzero_exit_code(instances):
    gap = _op(instances, "gap v-d5")
    argv = gap.argv[:1] + ["--state-budget", "10"] + gap.argv[1:]
    rc, out = _call(gap, argv)
    assert rc == cli.EXIT_BUDGET
    assert "exit code" in gap.check(rc, out)
    for op in instances.ops:
        rc, out = _call(op)
        assert op.check(rc, out) is None
        assert op.check(1, out), op.label


def test_hard_checks_reject_bad_witnesses(instances):
    for label, problem in (("fas f5", "feedback_arc_set"), ("mes m5", "minimum_equivalent_subgraph"),
                           ("fvs f5", "feedback_vertex_set"), ("ham h8", "hamiltonian_cycle")):
        op = _op(instances, label)
        rc, out = _call(op)
        doc = json.loads(out)
        assert doc["problem"] == problem
        bad = dict(doc, witness=doc["witness"][1:], value=doc["value"] - 1)
        assert op.check(rc, json.dumps(bad)), label
    report = _op(instances, "report")
    rc, out = _call(report)
    row = json.loads(out)
    assert report.check(rc, json.dumps(dict(row, fas=row["fas"] + 1)))
    assert report.check(rc, json.dumps(dict(row, status="fas:size-limit")))


def test_census_check_rejects_bad_rows(tmp_path):
    wl = workloads.build("census", 0, "tiny", tmp_path)
    op = wl.ops[0]
    rc, out = _call(op)
    assert op.check(rc, out) is None
    rows = [json.loads(line) for line in out.splitlines()]

    def tampered(i, **changes):
        copy = list(rows)
        copy[i] = dict(rows[i], **changes)
        return "".join(json.dumps(r) + "\n" for r in copy)

    # row 1 is the single arc 0->1: acyclic, so cop number 1
    assert op.check(rc, tampered(1, copnum=2, mon_copnum=2))
    assert op.check(rc, tampered(5, mon_copnum=rows[5]["copnum"] + 1,
                                 gap=1, ratio=2.0))
    assert op.check(rc, tampered(7, status="budget-exceeded"))
    assert op.check(rc, tampered(3, graph_id="000000000000"))
    assert op.check(rc, "".join(out.splitlines(keepends=True)[:-1]))


def test_layer_stats_self_time():
    spans = [
        ("cli.main", -1, 0, 0.0, 10.0, None),
        ("solver.cop_number", 0, 0, 1.0, 9.0, None),
        ("solver.solve", 1, 0, 1.0, 4.0, False),
        ("solver.solve", 1, 0, 4.0, 8.0, True),
        ("engine.solve_visible", 3, 0, 4.5, 7.5, (1000, True)),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["cli.main"]["self_s"] == pytest.approx(2.0)
    assert stats["solver.cop_number"]["self_s"] == pytest.approx(1.0)
    assert stats["solver.solve"]["self_s"] == pytest.approx(4.0)
    metrics = tracing.per_layer_metrics(stats, 10.0)
    assert metrics["solver.cop_number.solves_per_call"][0] == 1
    assert metrics["engine.solve_visible.transitions_per_s"][0] == pytest.approx(1000 / 3)
    assert metrics["trace.self_s_total"][0] == pytest.approx(10.0)


def test_tracer_restores_bindings(instances):
    original = solver.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.solve is not original
        _call(_op(instances, "gap v-d5"))
    finally:
        tracer.uninstall()
    assert solver.solve is original
    assert {s[0] for s in tracer.spans} >= {"cli.main", "solver.solve", "engine.solve_visible"}


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_in_seconds(workload, trace, tmp_path, capsys):
    started = time.perf_counter()
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny", "--work-dir", str(tmp_path)])
    assert time.perf_counter() - started < 30
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        wall = result["metrics"]["trace.wall_s"]["value"]
        assert 0.5 * wall < result["metrics"]["trace.self_s_total"]["value"] <= wall
        # the tour runs every layer in every workload, so no time reads 0
        assert all(v["value"] > 0 for v in result["metrics"].values() if v["unit"] == "s")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("ops_failed_ratio") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pass_time_scales_each_call_by_its_slowdown():
    passes = [{"op_s": [2.0, 1.0], "slowdown": [2.0, 1.0]},
              {"op_s": [1.0, 3.0], "slowdown": [1.0, 3.0]},
              {"op_s": [1.2, 1.0], "slowdown": [1.0, 1.0]}]
    assert run.pass_time(passes) == pytest.approx(1.0 + 1.0)
    assert run.pass_time(passes, scaled=False) == pytest.approx(1.2 + 1.0)


def test_sampler_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(period_s=0.01)
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= hostspeed.MIN_SAMPLES
    assert 0 < sampler.spent and sampler.slowdown() > 0
    assert sampler.slowdown(0, hostspeed.MIN_SAMPLES - 1) is None

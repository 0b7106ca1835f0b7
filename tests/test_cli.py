import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copwin import engine
from copwin.arena import VISIBLE_FAST
from copwin.bits import subsets_upto
from copwin.cli import main
from copwin.digraph import parse_edge_list, to_edge_list
from copwin.errors import EdgeListParseError
from copwin.lab import enumerate_digraphs, graph_id_of, random_digraph
from oracles import naive_solve_visible

C3_TEXT = "n 3\n0 1\n1 2\n2 0\n"
SINGLE_TEXT = "n 1\n"
CHAIN_TEXT = "n 3\n0 1\n1 2\n"


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text(C3_TEXT)
    return str(path)


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "single.edges"
    path.write_text(SINGLE_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# core subcommands
# ---------------------------------------------------------------------------

def test_copnum_prints_value(capsys, c3_file):
    code, out, _ = run_cli(capsys, "copnum", "--variant", "visible", c3_file)
    assert code == 0
    assert out == "2\n"


def test_solve_inert_zero_cops(capsys, single_file):
    code, out, _ = run_cli(capsys, "solve", "--variant", "inert", "--cops", "0", single_file)
    assert code == 0
    assert out == "ROBBER\n"


def test_solve_json(capsys, c3_file):
    code, out, _ = run_cli(capsys, "solve", "--variant", "visible", "--cops", "2",
                           "--json", c3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["winner"] == "cops"
    assert doc["k"] == 2
    assert len(doc["graph_sha256"]) == 64


def test_gap_output(capsys, c3_file):
    code, out, _ = run_cli(capsys, "gap", "--variant", "inert", c3_file)
    assert code == 0
    assert out == "cop_number=2 monotone_cop_number=2 gap=0 ratio=1.0\n"


def test_width_measures(capsys, c3_file):
    for measure, expected in (("dagwidth", "2"), ("kellywidth", "2"), ("dpw", "1")):
        code, out, _ = run_cli(capsys, "width", "--measure", measure, c3_file)
        assert code == 0
        assert out == expected + "\n"
    code, out, err = run_cli(capsys, "width", "--measure", "dag-width", c3_file)
    assert (code, out) == (1, "")
    # the choices are the CLI's three names, in their order
    assert err.startswith("usage error: argument --measure: invalid choice")
    assert err.index("dagwidth") < err.index("kellywidth") < err.index("dpw")


def test_certify_round_trip(capsys, tmp_path, c3_file):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "copnum", "--variant", "visible",
                           "--emit-cert", str(cert), c3_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "certify", c3_file, str(cert))
    assert code == 0
    assert out == "VALID\n"


def test_copnum_inert_n12_within_default_budget(capsys, tmp_path):
    # the all-subsets search ran out of the default budget here, plain
    # and monotone; one-vertex moves and one-vertex eliminations answer,
    # and the longer sequences they emit still verify
    graph = tmp_path / "r12.edges"
    graph.write_text(to_edge_list(random_digraph(12, 0.3, 1)))
    cert = tmp_path / "cert.json"
    for flags in ([], ["--monotone"]):
        code, out, _ = run_cli(capsys, "copnum", "--variant", "inert", *flags,
                               "--emit-cert", str(cert), str(graph))
        assert (code, out) == (0, "4\n"), flags
        code, out, _ = run_cli(capsys, "certify", str(graph), str(cert))
        assert (code, out) == (0, "VALID\n"), flags
    for measure, expected in (("kellywidth", "4\n"), ("dpw", "3\n")):
        code, out, _ = run_cli(capsys, "width", "--measure", measure, str(graph))
        assert (code, out) == (0, expected), measure


def test_solve_visible_budget_counts_quotient_work(capsys, tmp_path):
    # a budget between the quotient count and the vertex-level count: a
    # solve charged per (cop set, robber vertex) runs out of it, the
    # quotient solve answers within it
    d = random_digraph(4, 0.5, 1)
    moves = subsets_upto(d.n, 2)
    cops_win, _, vertex_level = naive_solve_visible(
        d.succ_masks, d.pred_masks, d.n, moves, False, False, 10**9)
    count = engine.solve_visible(d.succ_masks, d.n, moves, False, False, 10**9)[2]
    budget = max(count, len(moves) ** 2 * d.n)
    assert budget < vertex_level
    graph = tmp_path / "r4.edges"
    graph.write_text(to_edge_list(d))
    code, out, err = run_cli(capsys, "solve", "--variant", "visible", "--cops", "2",
                             "--state-budget", str(budget), str(graph))
    assert (code, out, err) == (0, "COPS\n" if cops_win else "ROBBER\n", "")


@pytest.mark.parametrize("variant", ["visible", "inert", "invisible-fast"])
def test_solve_zero_cops_on_huge_vertex_id(tmp_path, variant):
    # a 0-cop solve must not build reachability rows: with 100,001 vertices
    # one row alone takes about 650 MiB, so a regression trips the 256 MiB
    # address-space cap (the solve itself peaks near 30 MiB) or the timeout
    graph = tmp_path / "far.edges"
    graph.write_text("n 100001\n0 100000\n")
    script = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
        "from copwin.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for flags in ([], ["--monotone"]):
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", "--variant", variant, "--cops", "0",
             *flags, str(graph)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        assert proc.stdout == "ROBBER\n", flags


def test_certify_wrong_graph_exit_4(capsys, tmp_path, c3_file):
    cert = tmp_path / "cert.json"
    run_cli(capsys, "copnum", "--variant", "visible", "--emit-cert", str(cert), c3_file)
    other = tmp_path / "chain.edges"
    other.write_text(CHAIN_TEXT)
    code, out, err = run_cli(capsys, "certify", str(other), str(cert))
    assert code == 4


def test_certify_tampered_cert_exit_4(capsys, tmp_path, c3_file):
    cert = tmp_path / "cert.json"
    run_cli(capsys, "copnum", "--variant", "inert", "--emit-cert", str(cert), c3_file)
    doc = json.loads(cert.read_text())
    doc["body"] = doc["body"][:-1]
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", c3_file, str(cert))
    assert code == 4
    assert out == "INVALID\n"
    assert "contamination" in err


@pytest.mark.parametrize("key, value", [
    ("variant", 7),
    ("k", "two"),
    ("body", [[-1]]),
    ("body", "xx"),
    ("monotone", "yes"),
    ("body", [[10**30]]),
    ("tool_version", [1]),
], ids=["variant-int", "k-str", "negative-id", "body-str", "monotone-str", "huge-id",
        "tool-version-list"])
def test_certify_malformed_field_exit_4(capsys, tmp_path, c3_file, key, value):
    cert = tmp_path / "cert.json"
    run_cli(capsys, "copnum", "--variant", "inert", "--emit-cert", str(cert), c3_file)
    doc = json.loads(cert.read_text())
    doc[key] = value
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", c3_file, str(cert))
    assert code == 4
    assert out == ""
    assert err.startswith("certificate error:")


@pytest.mark.parametrize("tamper", ["position-twice", "descending-move"])
def test_certify_schema_break_exit_4(capsys, tmp_path, c3_file, tamper):
    # a position listed twice (here with a losing move) and a vertex set
    # out of ascending order break the schema, whatever the replay says
    cert = tmp_path / "cert.json"
    run_cli(capsys, "copnum", "--emit-cert", str(cert), c3_file)
    doc = json.loads(cert.read_text())
    if tamper == "position-twice":
        doc["body"].append({"cops": [], "robber": 0, "move": []})
    else:
        move = doc["body"][0]["move"]
        assert len(move) == 2
        move.reverse()
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "certify", c3_file, str(cert))
    assert code == 4
    assert out == ""
    assert err.startswith("certificate error:")


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not-utf8", "deep-nesting"])
def test_certify_unreadable_text_exit_4(capsys, tmp_path, c3_file, raw):
    cert = tmp_path / "cert.json"
    cert.write_bytes(raw)
    code, out, err = run_cli(capsys, "certify", c3_file, str(cert))
    assert code == 4
    assert err.startswith("certificate error:")


def test_hard_subcommands(capsys, c3_file):
    code, out, _ = run_cli(capsys, "hard", "fas", c3_file)
    assert code == 0
    assert out == "feedback_arc_set value=1 witness=0->1\n"
    code, out, _ = run_cli(capsys, "hard", "fvs", "--json", c3_file)
    doc = json.loads(out)
    assert doc["value"] == 1 and doc["optimal"] is True
    code, out, _ = run_cli(capsys, "hard", "ham", c3_file)
    assert out == "hamiltonian_cycle value=3 witness=0->1->2\n"
    code, out, _ = run_cli(capsys, "hard", "mes", c3_file)
    assert "value=3" in out


def test_hard_report(capsys, c3_file):
    code, out, _ = run_cli(capsys, "hard", "report", c3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance,n,m,dagwidth,kellywidth,fvs,fas,ham,mes,status"
    assert lines[1].endswith("ok")


def test_hard_report_bidirected_k6(capsys, tmp_path):
    path = tmp_path / "k6.edges"
    path.write_text("n 6\n" + "".join(
        f"{u} {v}\n" for u in range(6) for v in range(6) if u != v))
    code, out, _ = run_cli(capsys, "hard", "report", str(path))
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[6] == "15"  # fas
    assert row[-1] == "ok"


def test_gapscan_exhaustive_csv(capsys):
    code, out, err = run_cli(capsys, "gapscan", "--variant", "visible",
                             "--n", "2", "--exhaustive")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph_id,n,m,variant,copnum,mon_copnum,gap,ratio,runtime_ms,status"
    assert len(lines) == 5  # header + 4 labeled digraphs on 2 vertices
    assert "scanned 4 instances" in err


def test_gapscan_timings_fill_only_runtime(capsys):
    # --timings fills runtime_ms with a non-negative int and changes
    # nothing else: with runtime_ms set to 0 the rows are the untimed rows
    base = ["gapscan", "--exhaustive", "--n", "3"]
    _, plain, _ = run_cli(capsys, *base, "--format", "jsonl")
    code, timed, _ = run_cli(capsys, *base, "--format", "jsonl", "--timings")
    assert code == 0
    timed_rows = [json.loads(line) for line in timed.splitlines()]
    assert len(timed_rows) == 64
    for row in timed_rows:
        assert type(row["runtime_ms"]) is int and row["runtime_ms"] >= 0
        row["runtime_ms"] = 0
    assert timed_rows == [json.loads(line) for line in plain.splitlines()]
    _, plain_csv, _ = run_cli(capsys, *base)
    code, timed_csv, _ = run_cli(capsys, *base, "--timings")
    assert code == 0
    header, *rows = timed_csv.splitlines()
    assert header == plain_csv.splitlines()[0] == (
        "graph_id,n,m,variant,copnum,mon_copnum,gap,ratio,runtime_ms,status")
    at = header.split(",").index("runtime_ms")
    zeroed = []
    for row in rows:
        cells = row.split(",")
        assert cells[at].isdigit()
        cells[at] = "0"
        zeroed.append(",".join(cells))
    assert zeroed == plain_csv.splitlines()[1:]


def test_gapscan_random_jsonl(capsys):
    code, out, _ = run_cli(capsys, "gapscan", "--variant", "inert", "--n", "3",
                           "--random", "5", "--p", "0.4", "--seed", "7",
                           "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    assert all(r["gap"] == 0 for r in rows)
    assert all("attestation" in r for r in rows)


def test_gapscan_file_source(capsys, c3_file):
    code, out, _ = run_cli(capsys, "gapscan", "--variant", "visible", c3_file)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_gapscan_cert_dir_writes_verifiable_certificates(capsys, tmp_path, c3_file):
    cert_dir = tmp_path / "certs"
    code, out, _ = run_cli(capsys, "gapscan", "--variant", "inert",
                           "--cert-dir", str(cert_dir), "--format", "jsonl", c3_file)
    assert code == 0
    row = json.loads(out.splitlines()[0])
    for key in ("certificate_plain", "certificate_monotone"):
        path = row[key]
        assert path is not None
        code, cert_out, _ = run_cli(capsys, "certify", c3_file, path)
        assert code == 0 and cert_out == "VALID\n"


# SHA-256 of the ``gapscan --exhaustive --n 3`` report per (variant,
# format), recorded when the whole report was still built in memory
# before it was written; a streamed report must match it byte for byte
GAPSCAN_N3_DIGESTS = {
    ("visible", "csv"): "a9902366296a37dbb4217d392cffd0693e7ea4d95943f600e82e35b61abfaf6e",
    ("visible", "jsonl"): "beb2c4423fef2f8feebc58e4b854b72c72db20a696f80f59a0d81425e48358eb",
    ("inert", "csv"): "c971475aa3738e141ae454c54194dac8bb0ee6b481ad6b031969f436493dcbb3",
    ("inert", "jsonl"): "ec1510beffd09cbcce83c196a5a0696da9e57f03207ab78c606e8afcf451ecfd",
    ("invisible-fast", "csv"): "6cb6d857840a0bb22633f2a006c0a6eb66678ed97d8849260799863779ac415a",
    ("invisible-fast", "jsonl"): "43ba83f6e9860d5078a319c3d3cdc8746c1a527ef69c3e7d6fad0460d570ce36",
    ("visible-fast-scc", "csv"): "3271294ac70e46dde36b720a1a6fc8b91bcb3395bb2350298998385de5ee1156",
    ("visible-fast-scc", "jsonl"):
        "5f811f7333628e36fe3a86727d73fb4f5aa550b9f85b6339bb63de560485baa7",
}
SUMMARY_N3 = "scanned 64 instances: 0 gaps > 0, max gap 0, max ratio 1.0, 0 errors\n"


@pytest.mark.parametrize("variant, fmt", sorted(GAPSCAN_N3_DIGESTS))
def test_gapscan_report_digest(capsys, variant, fmt):
    code, out, err = run_cli(capsys, "gapscan", "--variant", variant, "--exhaustive",
                             "--n", "3", "--format", fmt)
    assert code == 0 and err == SUMMARY_N3
    assert hashlib.sha256(out.encode()).hexdigest() == GAPSCAN_N3_DIGESTS[variant, fmt]


def test_gapscan_cert_dir_digest(capsys, tmp_path):
    # the JSONL report with the directory written as CERTS, then each
    # certificate file's name and the SHA-256 of its bytes, in name order
    cert_dir = tmp_path / "certs"
    code, out, err = run_cli(capsys, "gapscan", "--variant", "inert", "--exhaustive",
                             "--n", "3", "--format", "jsonl", "--cert-dir", str(cert_dir))
    assert code == 0 and err == SUMMARY_N3
    files = sorted(cert_dir.iterdir())
    assert len(files) == 128
    digest = hashlib.sha256(out.replace(str(cert_dir), "CERTS").encode())
    for path in files:
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    assert digest.hexdigest() == "cbb7a777927abb4ba3000f4306070deca0e3bcfa1165c22e8e8a5b9a336a02a0"


@pytest.mark.parametrize("variant", ["visible", "inert"])
@pytest.mark.parametrize("source", ["files", "exhaustive"])
def test_gapscan_jobs_2_writes_what_jobs_1_writes(capsys, tmp_path, c3_file, variant, source):
    chain = tmp_path / "chain.edges"
    chain.write_text(CHAIN_TEXT)
    graphs = [c3_file, str(chain)] if source == "files" else ["--exhaustive", "--n", "3"]
    written = []
    for jobs in ("1", "2"):
        cert_dir = tmp_path / f"certs{jobs}"
        code, out, err = run_cli(capsys, "gapscan", "--variant", variant, "--format", "jsonl",
                                 "--jobs", jobs, "--cert-dir", str(cert_dir), *graphs)
        assert code == 0
        certs = {path.name: path.read_bytes() for path in cert_dir.iterdir()}
        written.append((out.replace(str(cert_dir), "CERTS"), err, certs))
    assert written[0] == written[1]
    assert len(written[0][2]) == (4 if source == "files" else 128)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_gapscan_memory_does_not_grow_with_rows(tmp_path, fmt):
    # a serial scan writes each row when it is made and keeps none, so ten
    # times the rows must not raise the peak of traced allocations
    report = str(tmp_path / "report")

    def peak(count):
        tracemalloc.start()
        try:
            assert main(["gapscan", "--random", str(count), "--n", "3", "--p", "0.5",
                         "--format", fmt, "--out", report]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm-up: first-use imports and caches
    small, large = peak(100), peak(1000)
    assert large - small < 256 * 1024, (small, large)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_1(capsys, c3_file):
    code, _, err = run_cli(capsys, "gapscan", "--variant", "visible")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    code, out, _ = run_cli(capsys, "solve", "--engine", "py", "--cops", "1", c3_file)
    assert code == 1
    assert out == ""
    # a scan needs at least one job, and says so before it opens --out
    report = os.path.join(os.path.dirname(c3_file), "report.csv")
    for jobs in ("0", "-1"):
        code, out, err = run_cli(capsys, "gapscan", "--jobs", jobs, "--out", report, c3_file)
        assert code == 1 and out == ""
        assert err == f"usage error: --jobs must be at least 1, got {jobs}\n"
        assert not os.path.exists(report)
    # a negative budget is a usage error on every verb, not a budget error
    for verb in (["solve", "--cops", "1"], ["copnum"], ["gap"], ["width", "--measure", "dpw"],
                 ["gapscan"], ["hard", "fvs"]):
        code, out, err = run_cli(capsys, *verb, "--state-budget", "-1", c3_file)
        assert code == 1 and out == "", verb
        assert err == "usage error: argument --state-budget: must be at least 0, got -1\n"
    code, out, err = run_cli(capsys, "gapscan", "--random", "-5", "--n", "3")
    assert code == 1 and out == ""
    assert err == "usage error: argument --random: must be at least 0, got -5\n"
    code, out, err = run_cli(capsys, "copnum", "--state-budget", "x", c3_file)
    assert code == 1 and out == ""
    assert err == "usage error: argument --state-budget: invalid int value: 'x'\n"
    # one source per scan: a second one is refused before --out is opened
    for extra in (["--random", "3"], [c3_file]):
        code, out, err = run_cli(capsys, "gapscan", "--exhaustive", "--n", "3", *extra,
                                 "--out", report)
        assert code == 1 and out == ""
        assert err.startswith("usage error: gapscan takes one source, got --exhaustive and ")
        assert err.count("\n") == 1
        assert not os.path.exists(report)
    code, out, err = run_cli(capsys, "gapscan", "--random", "2", "--n", "3", c3_file)
    assert code == 1
    assert err == "usage error: gapscan takes one source, got --random and graph files\n"


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    code, _, err = run_cli(capsys, "copnum", str(bad))
    assert code == 2
    assert "self-loop" in err
    code, _, _ = run_cli(capsys, "copnum", str(tmp_path / "missing.edges"))
    assert code == 2
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "copnum", str(binary))
    assert code == 2
    assert "is not UTF-8 text" in err
    # a vertex count past MAX_VERTICES, declared or implied by an id, is
    # refused before any per-vertex table is allocated
    for name, text, message in (
        ("huge_n.edges", "n 300000000",
         "line 1: vertex count 300000000 exceeds the limit of 1048576\n"),
        ("huge_id.edges", "0 1\n0 1000000000\n",
         "line 2: vertex id in (0,1000000000) exceeds the limit of 1048576 vertices\n"),
        # more digits than int() converts
        ("long_id.edges", "n 3\n0 " + "1" * 5000 + "\n",
         "line 2: vertex id in (0," + "1" * 5000 + ") exceeds declared count 3\n"),
        ("long_n.edges", "n " + "1" * 5000 + "\n",
         "line 1: vertex count " + "1" * 5000 + " exceeds the limit of 1048576\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "copnum", str(path))
        assert code == 2 and out == ""
        assert err == "parse error: " + message
    # leading zeros alone make no id too long
    zeros = tmp_path / "zeros.edges"
    zeros.write_text("0" * 5000 + "1 2\n")
    assert run_cli(capsys, "copnum", str(zeros)) == (0, "1\n", "")


# Edge-list lines from fields that parse, fields that do not, and digit
# runs on both sides of the 4,300 digits int() converts; a run's value,
# leading zeros aside, is a digit or too large, so every graph is small
EDGE_LIST_FIELDS = st.one_of(
    st.sampled_from(["n", "#", "0", "1", "2", "3", "5", "00", "0003", "-1", "+1",
                     "1_0", "\u0661", "x", "99999999"]),
    st.builds(lambda zeros, digit, count: "0" * zeros + digit * count,
              st.sampled_from([0, 2, 5000]), st.sampled_from("0159"),
              st.sampled_from([1, 4300, 4301, 5000])),
)
EDGE_LIST_TEXTS = st.lists(
    st.lists(EDGE_LIST_FIELDS, max_size=3).map(" ".join), max_size=6,
).flatmap(lambda lines: st.sampled_from(["\n", "\r\n", "\x0c"]).map(
    lambda end: end.join(lines)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=EDGE_LIST_TEXTS)
def test_edge_list_fuzz_parses_or_exits_2(tmp_path_factory, text):
    # a text parses to a graph that round-trips, or is a parse error; the
    # CLI answers the first with exit 0 and the second with exit 2 and
    # nothing on stdout, never with exit 1
    try:
        d = parse_edge_list(text)
    except EdgeListParseError:
        d = None
    else:
        assert parse_edge_list(to_edge_list(d)) == d
    path = tmp_path_factory.getbasetemp() / "fuzz.edges"
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["copnum", str(path)])
    if d is None:
        assert (code, out.getvalue()) == (2, ""), text
        assert err.getvalue().startswith("parse error: line ")
    else:
        assert (code, err.getvalue()) == (0, ""), text


def test_graph_file_lines_end_at_newline(capsys, tmp_path):
    # the file is read without newline translation: CRLF line ends parse,
    # and a lone CR stays inside its line as whitespace
    crlf = tmp_path / "crlf.edges"
    crlf.write_bytes(C3_TEXT.replace("\n", "\r\n").encode())
    assert run_cli(capsys, "copnum", str(crlf)) == (0, "2\n", "")
    cr = tmp_path / "cr.edges"
    cr.write_bytes(b"n 3\n0 1\r1 2\n2 2\n")
    code, out, err = run_cli(capsys, "copnum", str(cr))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: malformed arc line '0 1\\r1 2'\n"


def test_gapscan_random_size_limit_exit_1(capsys):
    # the first graph is drawn before the header, so nothing is written
    code, out, err = run_cli(capsys, "gapscan", "--random", "1", "--n", "513")
    assert (code, out) == (1, "")
    assert err == "error: random digraphs handle n <= 512, got 513\n"


def test_budget_exceeded_exit_3(capsys, c3_file):
    code, _, err = run_cli(capsys, "copnum", "--state-budget", "5", c3_file)
    assert code == 3
    assert "state budget" in err


def test_unsupported_variant_exit_1(capsys, c3_file):
    code, _, err = run_cli(capsys, "copnum", "--variant", "nonsense", c3_file)
    assert code == 1


def _assert_cannot_write(code, out, err, path):
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_emit_cert_unwritable_exit_1(capsys, tmp_path, c3_file):
    path = tmp_path / "missing" / "cert.json"
    code, out, err = run_cli(capsys, "copnum", "--emit-cert", str(path), c3_file)
    _assert_cannot_write(code, out, err, path)


def test_gapscan_out_unwritable_exit_1_before_scan(capsys, tmp_path, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("scanned before checking --out")

    monkeypatch.setattr("copwin.cli.gap_scan", scan)
    path = tmp_path / "missing" / "r.csv"
    code, out, err = run_cli(capsys, "gapscan", "--n", "3", "--exhaustive",
                             "--out", str(path))
    _assert_cannot_write(code, out, err, path)


def _run_to_full_device(*argv):
    """Exit code and stderr of the CLI run with stdout on /dev/full,
    where every write fails."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "copwin.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    return proc.returncode, proc.stderr


needs_full_device = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs the /dev/full device")


@needs_full_device
def test_gapscan_out_full_device_exit_1():
    code, err = _run_to_full_device("gapscan", "--exhaustive", "--n", "2", "--out", "/dev/full")
    _assert_cannot_write(code, "", err, "/dev/full")


@needs_full_device
@pytest.mark.parametrize("command", ["gapscan", "gap"])
def test_stdout_full_device_exit_1(c3_file, command):
    argv = {"gapscan": ["gapscan", "--exhaustive", "--n", "2"], "gap": ["gap", c3_file]}
    code, err = _run_to_full_device(*argv[command])
    _assert_cannot_write(code, "", err, "<stdout>")


def test_gapscan_cert_dir_on_file_exit_1(capsys, tmp_path, c3_file):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run_cli(capsys, "gapscan", "--cert-dir", str(path), c3_file)
    _assert_cannot_write(code, out, err, path)


def test_gapscan_failure_mid_scan_keeps_finished_rows(capsys, tmp_path):
    _, full, _ = run_cli(capsys, "gapscan", "--exhaustive", "--n", "2")
    second = list(enumerate_digraphs(2))[1]
    cert_dir = tmp_path / "certs"
    blocked = cert_dir / f"{graph_id_of(second)}.{VISIBLE_FAST.name}.plain.cert.json"
    blocked.mkdir(parents=True)
    report = tmp_path / "r.csv"
    code, out, err = run_cli(capsys, "gapscan", "--exhaustive", "--n", "2",
                             "--cert-dir", str(cert_dir), "--out", str(report))
    _assert_cannot_write(code, out, err, blocked)
    # the header and the first graph's row, written before the failure
    assert report.read_text() == "".join(full.splitlines(keepends=True)[:2])


def test_preflight_refusal_exit_3(capsys, c3_file):
    code, out, err = run_cli(capsys, "copnum", "--state-budget", "5", c3_file)
    assert code == 3 and out == ""
    assert err == ("error: state budget exceeded: refused before solving, "
                   "pre-flight arena estimate 48 > budget 5\n")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeat_invocations_byte_identical(capsys, tmp_path, c3_file):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "copnum", "--variant", "visible", "--json", c3_file)
        outs.append(out)
    assert outs[0] == outs[1]

    certs = []
    for i in range(2):
        path = tmp_path / f"cert{i}.json"
        run_cli(capsys, "copnum", "--variant", "inert", "--emit-cert", str(path), c3_file)
        certs.append(path.read_bytes())
    assert certs[0] == certs[1]

    scans = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "gapscan", "--variant", "visible", "--n", "3",
                            "--random", "6", "--p", "0.3", "--seed", "0")
        scans.append(out)
    assert scans[0] == scans[1]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "copwin.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("copwin ")


def test_cli_import_leaves_process_pool_unloaded():
    # only ``gapscan --jobs N`` with N > 1 needs the pool and multiprocessing
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, copwin.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# byte pin of the single-graph verbs
# ---------------------------------------------------------------------------

PIN_GRAPHS = {
    "c3.edges": C3_TEXT,
    "p3.edges": CHAIN_TEXT,
    "r6.edges": to_edge_list(random_digraph(6, 0.4, 1)),
}
PIN_VERBS = [
    ["solve", "--cops", "1"],
    ["solve", "--variant", "inert", "--monotone", "--cops", "2"],
    ["copnum"],
    ["copnum", "--variant", "invisible-fast", "--monotone"],
    ["gap"],
    ["gap", "--variant", "inert"],
    ["width", "--measure", "dagwidth"],
    ["width", "--measure", "kellywidth"],
    ["width", "--measure", "dpw"],
    ["hard", "ham"],
    ["hard", "fvs"],
    ["hard", "fas"],
    ["hard", "mes"],
]


def test_single_graph_verbs_byte_pin(capsys, tmp_path, monkeypatch):
    # one SHA-256 over argv, exit code, stdout and stderr of every
    # invocation (and the bytes of each certificate written), run in the
    # graphs' directory so that messages name relative paths
    monkeypatch.chdir(tmp_path)
    for name, text in PIN_GRAPHS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "latin1.edges").write_bytes(b"n 2\n0 1 \xe9\n")
    (tmp_path / "latin1.cert.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "folder").mkdir()
    digest = hashlib.sha256()

    def record(*argv):
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((argv, code, out, err)).encode())
        return code

    for graph in PIN_GRAPHS:
        for verb in PIN_VERBS:
            record(*verb, graph)
            record(*verb, "--json", graph)
        for variant, *flags in (("visible",), ("visible", "--monotone"),
                                ("inert", "--monotone")):
            cert = f"{graph}.{variant}{''.join(flags)}.cert.json"
            assert record("copnum", "--variant", variant, *flags,
                          "--emit-cert", cert, graph) == 0
            assert record("certify", graph, cert) == 0
            digest.update((tmp_path / cert).read_bytes())
            doc = json.loads((tmp_path / cert).read_text())
            doc["body"] = doc["body"][:-1]
            (tmp_path / cert).write_text(json.dumps(doc))
            assert record("certify", graph, cert) == 4
    for missing in ("missing.edges", "folder", "latin1.edges"):
        assert record("copnum", missing) == 2
        assert record("certify", missing, "c3.edges.visible.cert.json") == 2
    for missing in ("missing.cert.json", "folder", "latin1.cert.json"):
        assert record("certify", "c3.edges", missing) == 4
    # re-recorded when the visible kernel began sharing robber responses:
    # only the visible "states_explored" of the --json outputs changed
    assert digest.hexdigest() == "4daf0849f462e36781259ae32e9766c1d409689e7e503341b1399c3d0bd77e82"

import ast
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copwin import certificates, cli, solver
from copwin.arena import SUPPORTED_VARIANTS, VISIBLE_FAST
from copwin.certificates import Certificate, VerificationResult
from copwin.digraph import Digraph
from copwin.errors import CertificateError
from copwin.hardproblems import width_annotated_report
from copwin.lab import enumerate_digraphs, gap_scan, random_digraph
from copwin.solver import cop_number, gap, solve, verify_certificate
from copwin.width import dag_width, kelly_width
from oracles import bidirect

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
GRID3 = bidirect(9, [(v, w) for v in range(9) for w in (v + 1, v + 3)
                     if w < 9 and (w == v + 3 or v % 3 < 2)])


def test_certificates_import_no_solving_code():
    # the verifier shares no code with the kernels: its module imports
    # the game semantics, bit helpers, the graph model, the errors and
    # the package version, and nothing else of copwin
    tree = ast.parse(Path(certificates.__file__).read_text(encoding="utf-8"))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1
            if node.module is None:
                assert [a.name for a in node.names] == ["__version__"]
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "copwin"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "copwin" for a in node.names)
    assert relative == {None, "arena", "bits", "digraph", "errors"}


def test_solver_binds_the_one_verifier():
    assert solver.verify_certificate is certificates.verify_certificate
    assert solver.Certificate is certificates.Certificate


def _refuse_certificates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr(certificates.Certificate, "from_kernel", staticmethod(refuse))


@pytest.mark.parametrize("variant", SUPPORTED_VARIANTS, ids=lambda v: v.name)
def test_verdicts_build_no_certificate(monkeypatch, variant, tmp_path):
    # verdict-only callers finish, with their usual answers, when no
    # certificate can be built
    graphs = [C3, GRID3, random_digraph(5, 0.4, 7)]
    gaps = [gap(d, variant) for d in graphs]
    widths = [(dag_width(d).value, kelly_width(d).value) for d in graphs]
    rows = width_annotated_report([(str(i), d) for i, d in enumerate(graphs)])
    _refuse_certificates(monkeypatch)
    assert [gap(d, variant) for d in graphs] == gaps
    assert [(dag_width(d).value, kelly_width(d).value) for d in graphs] == widths
    assert width_annotated_report([(str(i), d) for i, d in enumerate(graphs)]) == rows
    dropped = []
    summary = gap_scan(enumerate_digraphs(3), variant, sink=dropped.append)
    assert (summary.instances, summary.solved, len(dropped)) == (64, 64, 64)
    out = tmp_path / "scan.csv"
    args = ["gapscan", "--variant", variant.name, "--exhaustive", "--n", "3", "--out", str(out)]
    assert cli.main(args) == 0
    assert len(out.read_text().splitlines()) == 65


@pytest.mark.parametrize("variant", SUPPORTED_VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("monotone", [False, True], ids=["plain", "monotone"])
def test_certificate_built_once_when_read(monkeypatch, variant, monotone):
    built = []
    build = certificates.Certificate.from_kernel

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(certificates.Certificate, "from_kernel", staticmethod(counting))
    assert solve(C3, 1, variant, monotone).certificate is None
    out = solve(C3, 2, variant, monotone)
    assert out.cops_win and built == []
    cert = out.certificate
    assert out.certificate is cert and len(built) == 1
    assert built[0] == out.kernel_win == (C3, 2, variant, monotone, out.kernel_win[-1])
    assert cert == build(*out.kernel_win)
    assert verify_certificate(C3, cert)
    # an unread outcome crosses a process boundary and builds the same bytes there
    again = pickle.loads(pickle.dumps(solve(C3, 2, variant, monotone)))
    assert again.certificate.to_json_text() == cert.to_json_text()
    assert len(built) == 2


def test_holders_read_through_to_their_outcome():
    # a width report and a scan record hold the cop-win solves, whose
    # certificates are those of a fresh solve
    mono = solve(C3, 2, VISIBLE_FAST, monotone=True).certificate
    assert dag_width(C3).outcome.certificate == mono
    records = []
    gap_scan([C3], VISIBLE_FAST, sink=records.append)
    (rec,) = records
    assert rec.plain_outcome.certificate == solve(C3, 2, VISIBLE_FAST).certificate
    assert rec.monotone_outcome.certificate == mono


# ---------------------------------------------------------------------------
# hostile certificates
# ---------------------------------------------------------------------------

# a 4-cycle with a chord: strongly connected, cop number 2 in every game
FUZZ_GRAPH = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
FUZZ_DOCS = [
    json.loads(cop_number(FUZZ_GRAPH, variant, monotone).outcome.certificate.to_json_text())
    for variant in SUPPORTED_VARIANTS for monotone in (False, True)
]

JUNK = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([2**63, -(2**64), 10**300, -(2**2000)]),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["positional", "sequence", "visible", "inert", "dpw", "copwin-certificate/1"]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-1, 5), max_size=4),
    st.recursive(st.integers(-1, 4), lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


def _paths(node, path=()):
    """Every place in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def test_fuzz_documents_verify():
    assert len(FUZZ_DOCS) == 8
    for doc in FUZZ_DOCS:
        cert = Certificate.from_json_text(json.dumps(doc))
        assert verify_certificate(FUZZ_GRAPH, cert)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(FUZZ_DOCS))), st.data())
def test_certificate_loader_fuzz(index, data):
    # a mutated certificate either replays to a VerificationResult or is
    # refused with a CertificateError; nothing else escapes
    doc = json.loads(json.dumps(FUZZ_DOCS[index]))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        drop = path and data.draw(st.booleans())
        value = None if drop else data.draw(JUNK)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        result = verify_certificate(FUZZ_GRAPH, Certificate.from_json_text(json.dumps(doc)))
    except CertificateError:
        return
    assert isinstance(result, VerificationResult)


def test_certificate_loader_refuses_overlong_numbers():
    # json refuses integers of more than 4,300 digits with a bare ValueError
    text = '{"format": "copwin-certificate/1", "k": ' + "7" * 5000 + "}"
    with pytest.raises(CertificateError, match="not valid JSON"):
        Certificate.from_json_text(text)

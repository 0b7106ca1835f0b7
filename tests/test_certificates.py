import ast
from pathlib import Path

from copwin import certificates, solver


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

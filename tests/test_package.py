"""The export list of toruspack/__init__.py against the names it binds, and
the package's exception handlers."""
import ast
from pathlib import Path

import toruspack


def _public_bindings() -> set[str]:
    tree = ast.parse(Path(toruspack.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_export_resolves():
    assert [name for name in toruspack.__all__ if not hasattr(toruspack, name)] == []
    assert len(set(toruspack.__all__)) == len(toruspack.__all__)


def test_every_public_binding_is_exported():
    assert _public_bindings() == set(toruspack.__all__)


def test_no_broad_exception_handler():
    # a handler must name the error it expects: a broad one turns a bug into
    # a result ("no realization found")
    broad = []
    for path in sorted(Path(toruspack.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or ast.unparse(t) in ("Exception", "BaseException") for t in caught):
                    broad.append(f"{path.name}:{node.lineno}")
    assert broad == []

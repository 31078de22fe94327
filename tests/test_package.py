"""The export list of toruspack/__init__.py against the names it binds, what
`import toruspack` and `toruspack solve` load, and the package's exception
handlers."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import toruspack

# modules of the catalog half, and scipy: none is loaded by the closed forms
_CATALOG_HALF = ("scipy",) + tuple(
    f"toruspack.{m}"
    for m in ("census", "embedding", "ecg", "oracle", "rigidity", "exact_lp", "geometry_embed", "report")
)


def _public_bindings() -> set[str]:
    """The names __init__ imports or assigns, plus those it imports on first
    access (its _LAZY table)."""
    tree = ast.parse(Path(toruspack.__file__).read_text())
    names = set(toruspack._LAZY)
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


def test_lazy_exports_are_their_modules_attributes():
    for name, module in toruspack._LAZY.items():
        assert getattr(toruspack, name) is getattr(importlib.import_module(f"toruspack.{module}"), name)


def test_dir_lists_every_export():
    assert set(toruspack.__all__) <= set(dir(toruspack))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'toruspack' has no attribute 'no_such_name'"):
        getattr(toruspack, "no_such_name")


def test_submodule_import_still_works():
    from toruspack import oracle

    assert oracle is sys.modules["toruspack.oracle"]


def test_lean_path_leaves_catalog_out():
    # a fresh interpreter runs `import toruspack`, then the CLI's solve: only
    # the closed-form half may load
    code = f"""
import contextlib, io, sys
import toruspack
print(sorted(m for m in {_CATALOG_HALF!r} if m in sys.modules))
from toruspack.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["solve", "--n", "4", "--v1", "1,0", "--v2", "0.3,1.1", "--json"])
print(sorted(m for m in {_CATALOG_HALF!r} if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[]"]


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


# Parameters with a default plus dataclass fields with a default, over the
# package: a default that no production caller reads is deleted, so a diff
# that adds one fails here unless it also raises the bound.
MAX_SETTABLE_VALUES = 18


def _settable_values() -> list[str]:
    found = []
    for path in sorted(Path(toruspack.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [f"{path.name}:{getattr(node, 'name', 'lambda')}.{a.arg}" for a in named]
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                found += [f"{path.name}:{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None]
    return found


def test_settable_values_ratchet():
    found = _settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, found

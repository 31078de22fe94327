"""The export list of toruspack/__init__.py against the names it binds, what
`import toruspack` and `toruspack solve` load, and the package's exception
handlers."""
import ast
import functools
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toruspack

# modules of the catalog half, numpy, scipy, and dataclasses with the inspect
# it imports: the closed forms load none
_LEFT_OUT = ("numpy", "scipy", "dataclasses", "inspect") + tuple(
    f"toruspack.{m}"
    for m in ("census", "embedding", "ecg", "oracle", "realization", "rigidity", "exact_lp", "geometry_embed",
              "report", "stream")
)
README = Path(__file__).resolve().parents[1] / "README.md"


def _public_bindings() -> set[str]:
    """The names __init__ imports or assigns."""
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


def _catalog_names() -> dict[str, str]:
    """name -> module of the catalog half's names, from the README's list
    (its lines `- `toruspack.module`: `name`, ...`)."""
    found = {}
    for module, listed in re.findall(r"^- `toruspack\.(\w+)`: (.*(?:\n  .*)*)", README.read_text(), re.M):
        found |= dict.fromkeys(re.findall(r"`(\w+)`", listed), module)
    return found


def test_catalog_names_come_from_their_modules():
    # the closed-form half is the package's only export; each catalog name
    # resolves from the module the README lists it under, and not from the
    # package
    names = _catalog_names()
    assert len(names) == 20
    for name, module in names.items():
        assert hasattr(importlib.import_module(f"toruspack.{module}"), name), (module, name)
        with pytest.raises(AttributeError, match=f"module 'toruspack' has no attribute '{name}'"):
            getattr(toruspack, name)


def test_dir_lists_every_export():
    assert set(toruspack.__all__) <= set(dir(toruspack))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'toruspack' has no attribute 'no_such_name'"):
        getattr(toruspack, "no_such_name")


def test_submodule_import_still_works():
    from toruspack import oracle

    assert oracle is sys.modules["toruspack.oracle"]


def test_lean_path_leaves_catalog_out():
    # a fresh interpreter runs `import toruspack`, then the CLI's solve of a
    # disguised basis (so the reduction runs): only the closed-form half and
    # the standard library may load; --svg, which renders, loads numpy
    code = f"""
import contextlib, io, sys
import toruspack
print(sorted(m for m in {_LEFT_OUT!r} if m in sys.modules))
from toruspack.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["solve", "--n", "4", "--v1=0.3,1.7", "--v2=-1.2,0.4", "--json"])
print(sorted(m for m in {_LEFT_OUT!r} if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_classify_packing_leaves_numpy_out():
    # a packing's contacts, its strut framework and the certificate checks
    # run on Python floats, and the exact LP on Python ints
    code = """
import sys
from toruspack.closed_form import optimal_centers
from toruspack.lattice import ModuliPoint
from toruspack.packing import Packing
from toruspack.rigidity import classify_packing
m = ModuliPoint(0.25, 1.3)
sol = optimal_centers(4, m)
print(classify_packing(Packing(m=m, centers=sol.centers, radius=sol.radius)))
print('numpy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["rigid-LMD", "False"]


def test_embeddings_leave_numpy_out():
    # the dart maps are byte strings and a conjugate is three translates:
    # enumeration, both filters and a packing's own embedding load no numpy
    code = """
import sys
from toruspack.census import enumerate_census
from toruspack.closed_form import optimal_centers
from toruspack.embedding import enumerate_toroidal, forbidden_face_filter, parallel_chain_filter
from toruspack.geometry_embed import embedding_from_packing
from toruspack.lattice import ModuliPoint
from toruspack.packing import Packing, contacts
found = [e for n in (3, 4) for g in enumerate_census(n).stage3 for bigons in (False, True)
         for e in enumerate_toroidal(g, bigons)]
for e in found:
    forbidden_face_filter(e), parallel_chain_filter(e)
m = ModuliPoint(0.25, 1.3)
sol = optimal_centers(4, m)
own = embedding_from_packing(*contacts(Packing(m=m, centers=sol.centers, radius=sol.radius)))
print(len(found), own.graph.vertex_count, 'numpy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines() == ["1053 4 False"]


def test_seeded_runs_leave_numpy_random_out(tmp_path):
    # the pipeline's and verify's seeded draws come from toruspack.stream
    code = f"""
import sys
from toruspack.report import run_pipeline, verify_run
run_pipeline(3, {str(tmp_path)!r})
print('numpy.random' in sys.modules)
verify_run(2, 1, 0, 5)
print('numpy.random' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines() == ["False", "False"]


def test_catalog_leaves_the_oracle_out():
    # naming the survivors realizes them (realization) and decides their
    # rigidity; the max-min oracle is the pipeline's, through report
    code = """
import sys
import toruspack.ecg
print('toruspack.realization' in sys.modules, 'toruspack.oracle' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["True False"]


def _runtime_nodes(tree: ast.AST):
    """Every node of tree at any depth, except the bodies of `if TYPE_CHECKING:`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_numpy_importers_are_pinned():
    # the modules that import numpy, at any depth (a function-level import
    # counts); the others run on the standard library alone
    importers = set()
    for path in sorted(Path(toruspack.__file__).parent.rglob("*.py")):
        for node in _runtime_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules if m):
                importers.add(path.stem)
    assert sorted(importers) == ["oracle", "realization", "render"]


# The names the benchmark harness (perfbench/) reads from the package.  Some
# are re-exports that no module of the package reads, so only this test
# notices their loss; a change to the benchmark edits this list with it.
# Packing.validate is the gate's check of every solve answer.
_BENCHMARK_NAMES = {
    "report": ("solve_report", "compare_with_closed_form", "run_pipeline"),
    "oracle": ("realize_embedding",),
    "render": ("render_packing", "FigureSpec"),
    "packing": ("Packing", "Packing.validate", "packing_from_dict", "graph_from_dict", "to_json"),
    "rigidity": ("classify_packing",),
    "closed_form": ("optimal_centers",),
    "ecg": ("identify", "expected_class"),
    "errors": ("TorusPackError",),
    "lattice": ("ModuliPoint",),
    "regions": ("boundary_curve", "region_count", "sample_boundary", "sample_interior"),
    "cli": ("main",),
}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_literal(file: str, name: str):
    """The literal a module of the benchmark assigns to name, read without
    importing the benchmark."""
    tree = ast.parse((PERFBENCH / file).read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == [name])


def test_benchmark_names_resolve():
    # the modules the benchmark's tracer imports (MODULES of perfbench/spans.py),
    # then every name it reads
    for module in _perfbench_literal("spans.py", "MODULES"):
        importlib.import_module(f"toruspack.{module}")
    assert [f"{module}.{name}" for module, names in _BENCHMARK_NAMES.items() for name in names
            if functools.reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."),
                                importlib.import_module(f"toruspack.{module}")) is None] == []


def test_benchmark_gate_agrees_with_the_package():
    # perfbench/gate.py restates the published counts, and the published
    # classes each realization verdict allows: both must match the package
    from toruspack import ecg, report

    expected = _perfbench_literal("gate.py", "EXPECTED_PIPELINE")
    for n in (3, 4):
        gate = {key: tuple(v) if isinstance(v, list) else v for key, v in expected[n].items()}
        assert gate == {key: want[n] for key, (_, want) in report._PUBLISHED_COUNTS.items()}, n
    allowed = _perfbench_literal("gate.py", "_VERDICT_CLASSES")
    for cls in {cls for cls, _ in ecg.PUBLISHED.values()}:
        text = report._VERDICT_TEXT.get(ecg.READING[cls], ecg.READING[cls])
        assert cls in next((c for prefix, c in allowed.items() if text.startswith(prefix)), set()), cls


def test_only_oracle_imports_dataclasses():
    # records are NamedTuples: a dataclass costs its import (with inspect,
    # ast, dis and tokenize) and about 1 ms to build.  ComparisonReport stays
    # one, because the benchmark's gate self-test copies it with
    # dataclasses.replace
    importers = []
    for path in sorted(Path(toruspack.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.append(path.name)
    assert importers == ["oracle.py"]


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


# Parameters with a default plus record fields with a default, over the
# package: a default that no production caller reads is deleted, so a diff
# that adds or removes one fails here unless it also edits this list.
# FigureSpec's size is its fields class's default: its __new__ adds none.
SETTABLE_VALUES = (
    "cli.py:main.argv",
    "embedding.py:enumerate_toroidal.include_bigons",
    "embedding.py:FilterVerdict.reason",
    "embedding.py:FilterVerdict.witness",
    "packing.py:extract_graph.tol",
    "packing.py:contacts.tol",
    "packing.py:validate.tol",
    "render.py:_FigureFields.size",
    "report.py:run_pipeline.skip_oracle",
    "report.py:run_pipeline.strict",
    "report.py:run_pipeline.seed",
    "rigidity.py:build_framework.tol",
    "rigidity.py:classify_packing.tol",
    "solve.py:solve_report.tol",
)


def _is_record(node: ast.ClassDef) -> bool:
    return (any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            or any(ast.unparse(b) == "NamedTuple" for b in node.bases))


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
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                found += [f"{path.name}:{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None]
    return found


def test_settable_values_ratchet():
    assert _settable_values() == list(SETTABLE_VALUES)


# Module-level tolerances, slacks and floors: numeric constants whose names
# end in one of these.  Each has one row in the README's Tolerances table.
_TOLERANCE_SUFFIXES = ("_TOL", "_EPS", "_SLACK", "_FLOOR", "_FLOOR_SQ", "_CEIL", "_CLEARANCE",
                       "_MARGIN", "_WINDOW", "_SCALE", "_DENOMINATOR")


def _tolerances() -> dict[str, tuple[str, float]]:
    """name -> (module, value) of every module-level tolerance of the package."""
    found = {}
    for path in sorted(Path(toruspack.__file__).parent.rglob("*.py")):
        module = importlib.import_module(f"toruspack.{path.stem}" if path.stem != "__init__" else "toruspack")
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                value = getattr(module, name)
                if name.endswith(_TOLERANCE_SUFFIXES) and isinstance(value, (int, float)):
                    found[name] = (path.stem, float(value))
    return found


def _tolerance_table() -> list[list[str]]:
    """The cells of the README's Tolerances table, one list per row."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows]


def test_tolerance_table_lists_every_tolerance():
    # name, value and module of each row against the package: a tolerance
    # added, deleted or changed without its row fails here
    table = {row[0].strip("`"): (row[2].strip("`"), float(row[1].strip("`"))) for row in _tolerance_table()}
    assert table == _tolerances()


def test_tolerance_table_names_existing_tests():
    # the pinning tests of each row (its last cell) are defined in tests/,
    # and a row names at least one or says why its value cannot matter
    defined = {node.name for path in Path(__file__).parent.glob("test_*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    for row in _tolerance_table():
        named = re.findall(r"`(test_\w+)`", row[-1])
        assert set(named) <= defined, row
        assert not row[-1].startswith("none"), row
        assert named or "cannot matter" in row[-1], row


# Records: the package's NamedTuple and dataclass classes.
def _records() -> list[type]:
    found = []
    for path in sorted(Path(toruspack.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"toruspack.{path.stem}")
        found += [obj for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_")
                  and (hasattr(obj, "_fields") or hasattr(obj, "__dataclass_fields__"))]
    return found


_RECORDS = _records()


def _fields(cls: type) -> tuple[str, ...]:
    return cls._fields if issubclass(cls, tuple) else tuple(cls.__dataclass_fields__)


def _placeholder(cls: type):
    """An instance holding k in its field k, built past any validation."""
    values = range(len(_fields(cls)))
    return tuple.__new__(cls, values) if issubclass(cls, tuple) else cls(*values)


def test_every_record_is_found():
    assert len(_RECORDS) == 23
    assert {"ModuliPoint", "FigureSpec", "Multigraph", "ComparisonReport"} <= {
        cls.__name__ for cls in _RECORDS}


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable(cls):
    # a field can't be assigned, nor any other name but Multigraph's cached
    # canonical_form, which lives in its instance dict
    record = _placeholder(cls)
    names = [_fields(cls)[0]] + ([] if cls.__name__ == "Multigraph" else ["not_a_field"])
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_names_its_fields(cls):
    fields = ", ".join(f"{name}={k}" for k, name in enumerate(_fields(cls)))
    assert repr(_placeholder(cls)) == f"{cls.__name__}({fields})"


def test_validating_records_check_every_copy():
    # _replace builds through _make, which skips __new__ unless overridden
    from toruspack.errors import OutOfModuliStrip
    from toruspack.lattice import ModuliPoint
    from toruspack.render import FigureSpec

    with pytest.raises(OutOfModuliStrip):
        ModuliPoint(0.0, 2.0)._replace(y=float("inf"))
    with pytest.raises(OutOfModuliStrip):
        ModuliPoint._make((0.3, 0.4))
    with pytest.raises(ValueError, match="figure size"):
        FigureSpec()._replace(size=float("nan"))
    with pytest.raises(ValueError, match="figure size"):
        FigureSpec._make((0,))

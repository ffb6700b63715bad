"""Every module-level import of the package is used by its module, every
private module-level name is used somewhere in the package, in the CLI
only ``main`` reports errors, only ``multigraph`` touches the adjacency rows,
``selfheal`` swallows no ``ProtocolError``, every name the benchmark binds
exists, and growth and the mixing sampler leave ``numpy.random`` unimported.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for unused-import and unused-helper rules.  An import whose line carries
``# noqa: F401`` is exempt, and so is ``__init__.py``, whose imports are the
package's exports.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from expanderseq import analysis, cli, grower, lifts, multigraph, selfheal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expanderseq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name the tree reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for c in ast.walk(note) if note else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= referenced_names(ast.parse(c.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = referenced_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marks = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if any("# noqa: F401" in line for line in marks):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_unused_import_check_sees_plain_and_annotation_uses():
    source = (
        "from typing import Sequence, TextIO\n"
        "import numpy as np\n"
        "import os  # noqa: F401\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["line 1: TextIO"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(tree: ast.Module) -> set[str]:
    """The ``_``-prefixed, non-dunder names a module binds at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n[:1] == "_" and not (n[:2] == n[-2:] == "__")}


def unused_private_names(sources: list[str]) -> list[str]:
    """Private module-level names of ``sources`` that none of them reads."""
    trees = [ast.parse(s) for s in sources]
    defined = set().union(*map(private_definitions, trees))
    loaded = {
        node.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(defined - loaded)


def test_unused_private_name_check_sees_loads_in_other_modules():
    sources = [
        "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f(): return _A\n",
        "from .m import _B\nclass _K: pass\nprint(_B)\n_D = 4\n",
    ]
    assert unused_private_names(sources) == ["_C", "_D", "_K", "_f"]


def test_package_has_no_unused_private_names():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []


def error_reports_outside_main(source: str) -> list[str]:
    """Reads of ``stderr`` or ``EXIT_USAGE`` outside the function ``main``."""
    tree = ast.parse(source)
    main = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    inside = {id(n) for m in main for n in ast.walk(m)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        else:
            continue
        if name in ("stderr", "EXIT_USAGE") and id(node) not in inside:
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_error_report_check_sees_attributes_and_names():
    source = (
        "import sys\n"
        "EXIT_USAGE = 2\n"
        "def f():\n"
        "    print('x', file=sys.stderr)\n"
        "    return EXIT_USAGE\n"
        "def main():\n"
        "    sys.stderr.write('x')\n"
        "    return EXIT_USAGE\n"
    )
    assert error_reports_outside_main(source) == [
        "line 4: stderr", "line 5: EXIT_USAGE"]


def test_only_cli_main_writes_to_stderr_or_exits_2():
    assert error_reports_outside_main((PACKAGE / "cli.py").read_text()) == []


def swallowed_protocol_errors(source: str) -> list[str]:
    """``except`` clauses naming ``ProtocolError`` whose body does not end
    in ``raise``: an error the design rules out must fail its event."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        named = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node.type)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if "ProtocolError" in named and not isinstance(node.body[-1], ast.Raise):
            found.append(f"line {node.lineno}")
    return found


def test_swallowed_error_check_sees_names_tuples_and_attributes():
    source = (
        "try:\n    f()\nexcept ProtocolError:\n    g()\n"
        "try:\n    f()\nexcept (ValueError, sh.ProtocolError) as e:\n    g(e)\n"
        "try:\n    f()\nexcept (ScriptError, ProtocolError) as e:\n"
        "    raise type(e)('x') from e\n"
        "try:\n    f()\nexcept _NoHop:\n    g()\n"
    )
    assert swallowed_protocol_errors(source) == ["line 3", "line 7"]


def test_selfheal_swallows_no_protocol_error():
    """Only ``_NoHop``, the hop rule's two designed failures, is caught and
    handled; every other ``ProtocolError`` fails the event."""
    assert swallowed_protocol_errors((PACKAGE / "selfheal.py").read_text()) == []


ROW_INTERNALS = {"_adj", "_Row", "_new_row"}


def row_internals(source: str) -> list[str]:
    """Attributes, names and imports among ``ROW_INTERNALS`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ROW_INTERNALS:
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_row_internals_check_sees_attributes_names_and_imports():
    source = (
        "from .multigraph import _new_row\n"
        "def f(g):\n"
        "    return g._adj, multigraph._Row, _new_row({})\n"
    )
    assert row_internals(source) == [
        "line 1: _new_row", "line 3: _Row", "line 3: _adj", "line 3: _new_row"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "multigraph.py")
)
def test_only_multigraph_touches_the_rows(module):
    """Rows are built and read only by ``multigraph``, whose writers set
    both ends of every edge, so rows are symmetric by construction."""
    assert row_internals((PACKAGE / module).read_text()) == []


def test_perfbench_binds_existing_names():
    """The tracer wraps, and the child process hooks, names of the package:
    a rename fails here, naming the attribute, and not only in a traced
    benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    es = SimpleNamespace(
        analysis=analysis, cli=cli, grower=grower, lifts=lifts,
        multigraph=multigraph, selfheal=selfheal,
    )
    tracer = tracing.Tracer("names")
    try:
        tracing.install(tracer, es)
    finally:
        tracer.uninstall()
    hooks = [
        (cli, "_run_suite"), (grower, "_STATE_CACHE"), (grower, "clear_caches"),
        (selfheal.SimNetwork, "insert"), (selfheal.SimNetwork, "delete"),
    ]
    assert [f"{o.__name__}.{a}" for o, a in hooks if not hasattr(o, a)] == []


def test_grow_and_mixing_leave_numpy_random_unimported():
    """``numpy.random`` is imported lazily, and importing it costs a cold
    process about 17 ms: the mixing sampler draws from ``random`` and unpacks
    its words with numpy, so a fresh process never needs it."""
    code = (
        "import sys\n"
        "from expanderseq import analysis, cli, grower\n"
        "assert cli.main(['grow', '--d', '6', '--n', '13', '--lift-seed', '1']) == 0\n"
        "assert analysis.mixing_suite(grower.graph_at(6, 13, 1)) == 10000\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert res.stdout.splitlines()[-1] == "True False"

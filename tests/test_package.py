"""The top-level namespace, its imports and the README's library example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schubert

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.mark.parametrize("name", sorted(set(schubert.__all__) - {"__version__"}))
def test_namespace_name_is_its_home_module_object(name):
    obj = getattr(schubert, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("schubert.")
    assert getattr(home, name) is obj
    assert name in dir(schubert)


def test_namespace_rejects_unknown_names():
    assert schubert.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        schubert.no_such_name
    assert not hasattr(schubert, "freudenthal_char")
    with pytest.raises(ImportError):
        exec("from schubert import no_such_name", {})


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "schubert").glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_the_standard_library_only(path):
    # the engine has no runtime dependency: every absolute import names a
    # standard-library module or schubert itself
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    outside = {m for m in modules
               if m.split(".")[0] not in sys.stdlib_module_names | {"schubert"}}
    assert modules and not outside


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "schubert").glob("*.py")),
                         ids=lambda path: path.name)
def test_package_never_indents_through_json_dumps(path):
    # json.dump(s) with indent= runs the pure-Python encoder, one string per
    # token; reports go through report.write_json instead
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    indented = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)]
    assert not indented


# the package's files by name, the tests' and the benchmark's by their folder
@pytest.mark.parametrize("path", sorted((ROOT / "src" / "schubert").glob("*.py"))
                         + sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "benchmarks").glob("*.py")),
                         ids=lambda path: path.name if path.parent.name == "schubert"
                         else f"{path.parent.name}/{path.name}")
def test_package_lines_fit_in_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > 100] == []


# the engine's layers, lowest first: a module imports only modules before it
LAYERS = ("rootsys", "charring", "weyl", "coxeter", "cohomology", "report", "cli")
# (module, function, imported module): the one engine import inside a
# function, so that verify and sweep never load the character ring
DEFERRED = {("cli", "cmd_demazure", "charring")}


def _engine_imports(path: Path) -> list[tuple[str | None, str]]:
    """(where, module) for each `from .module import` or `from . import
    module` in path: where is None at module level, else the name (or
    kind) of the top-level statement holding the import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.level:
                where = None if node is stmt else getattr(stmt, "name", type(stmt).__name__)
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found += [(where, name) for name in names if name in LAYERS]
    return found


def test_engine_layers_name_every_module():
    modules = {path.stem for path in (ROOT / "src" / "schubert").glob("*.py")}
    assert modules == {"__init__", *LAYERS}


@pytest.mark.parametrize("name", LAYERS)
def test_engine_imports_are_top_level_and_point_down(name):
    below = LAYERS[:LAYERS.index(name)]
    imports = _engine_imports(ROOT / "src" / "schubert" / f"{name}.py")
    wrong = [(where, module) for where, module in imports if module not in below
             or where is not None and (name, where, module) not in DEFERRED]
    assert wrong == []
    assert {(name, *found) for found in imports if found[0]} == {
        row for row in DEFERRED if row[0] == name}


def test_benchmark_tracer_finds_every_name_it_wraps():
    # trace_entry.install looks each name it wraps up with getattr, so a
    # renamed or deleted engine name fails here, not in every traced op
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import trace_entry; trace_entry.install(trace_entry.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

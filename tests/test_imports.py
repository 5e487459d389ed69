"""Each command loads only the modules it uses.

A cold start of the CLI compiles every module it imports, since the
package is often run without cached bytecode.  So `cli` imports no module
of the package, and not json, at import time: each handler imports what it
uses in its body.  lattice, which `eta` and `extremal` load alone, reads
coordinates without linalg.  No module of the package imports
dataclasses, which brings in inspect, ast, dis and tokenize, so no
command loads it.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import floer_workbench
from floer_workbench import cli

PACKAGE = pathlib.Path(floer_workbench.__file__).parent


def _imported(node) -> list:
    """Names of the modules an import statement loads, relative ones
    prefixed with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "." * node.level + (node.module or "")
    if node.module is None:  # from . import x loads the submodule x
        return [base + alias.name for alias in node.names]
    return [base]


def _import_time_imports(tree):
    """Import statements that run when the module is imported: those
    outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _eager_cli_imports(path: pathlib.Path) -> list:
    found = []
    for node in _import_time_imports(ast.parse(path.read_text(), str(path))):
        for name in _imported(node):
            if (name.startswith(".") and name != ".") or name.split(".")[0] in (
                    "floer_workbench", "json"):
                found.append("%s:%d: imports %s at import time" % (path, node.lineno, name))
    return found


def _dataclasses_imports(path: pathlib.Path) -> list:
    return ["%s:%d: imports dataclasses" % (path, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(name.split(".")[0] == "dataclasses" for name in _imported(node))]


def test_guard_finds_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import json\n"
                     "from . import lattice\n"
                     "if True:\n"
                     "    from .homology import pair\n"
                     "import floer_workbench.fixtures\n"
                     "from dataclasses import dataclass\n"
                     "\n"
                     "def handler():\n"
                     "    import json\n"
                     "    from . import polyid\n"
                     "    import dataclasses\n")
    assert _eager_cli_imports(probe) == [
        "%s:%d: imports %s at import time" % (probe, line, name)
        for line, name in ((6, "floer_workbench.fixtures"), (5, ".homology"),
                           (3, ".lattice"), (2, "json"))]
    assert _dataclasses_imports(probe) == ["%s:7: imports dataclasses" % probe,
                                           "%s:12: imports dataclasses" % probe]


def test_cli_imports_no_package_module_at_import_time():
    found = _eager_cli_imports(PACKAGE / "cli.py")
    assert not found, "\n".join(found)


def test_no_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) == 10
    found = [hit for path in modules for hit in _dataclasses_imports(path)]
    assert not found, "\n".join(found)


BASE = {"complexes", "fixtures", "linalg"}

# package modules loaded by one run of each command
LOADED = [
    (["validate", "--fixture", "Pplus"], BASE),
    (["homology", "--fixture", "Pplus"], BASE | {"homology"}),
    (["reduce", "--fixture", "Pplus"], BASE | {"homology"}),
    (["dualize", "--fixture", "Pplus"], BASE),
    (["connect-sum", "--a", "Pplus", "--b", "Pminus"],
     BASE | {"connect_sum", "invariants"}),
    (["disjoint-union", "--a", "NilpotentLadder:1", "--b", "NilpotentLadder:2"],
     BASE | {"connect_sum", "homology", "invariants"}),
    # d = 0 on the ladders, so nothing is reduced and homology is not needed
    (["phi", "--fixture", "NilpotentLadder:2"], BASE | {"invariants"}),
    (["h", "--fixture", "Pplus"], BASE | {"homology", "invariants"}),
    (["eta", "--class", "w0"], {"lattice"}),
    (["extremal", "--class", "w0"], {"lattice"}),
    (["verify-sum-bound", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2"],
     BASE | {"connect_sum", "invariants"}),
    (["poly-identities", "--max-n", "2"], {"polyid"}),
    (["fixtures"], BASE),
]


def _loaded_modules(*args) -> set:
    """Every module a fresh interpreter run with args imports, read from
    its -X importtime lines on stderr."""
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def startup_modules():
    """What the interpreter loads before any program runs (site and what
    it imports), which no command can avoid."""
    return _loaded_modules("-c", "pass")


def test_every_command_is_covered():
    assert sorted(argv[0] for argv, _ in LOADED) == sorted(cli.COMMAND_TABLE)


@pytest.mark.parametrize("argv, expected", LOADED, ids=[argv[0] for argv, _ in LOADED])
def test_each_command_loads_only_its_modules(startup_modules, argv, expected):
    loaded = _loaded_modules("-m", "floer_workbench.cli", *argv) - startup_modules
    package = {name.split(".", 1)[1] for name in loaded
               if name.startswith("floer_workbench.")}
    assert package == expected
    assert "json" not in loaded
    assert "dataclasses" not in loaded


def test_json_reports_load_json(startup_modules):
    loaded = _loaded_modules("-m", "floer_workbench.cli", "eta", "--class", "w0",
                             "--json") - startup_modules
    assert {"json", "floer_workbench.lattice"} <= loaded
    assert "dataclasses" not in loaded

"""Tuples built at their final size.

CPython builds `tuple(<genexpr>)`, and a `*<genexpr>` call argument, with
room for 10 items and then resizes it to its length.  Freed, it goes on the
free list for that final length, which keeps up to 2000 tuples of each
length; the next such call takes a new 10-slot tuple.  So every call whose
tuple ends at another length leaves one more block allocated, and a long
run of jobs holds megabytes that no object uses.  A list comprehension
builds the items first, so `tuple([...])` and `f(*[...])` allocate the
tuple at its final length and reuse what they free.
"""

import ast
import contextlib
import gc
import io
import pathlib
import sys

import pytest

import floer_workbench
from floer_workbench import cli


def _resized_tuples(path: pathlib.Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and len(node.args) == 1 and isinstance(node.args[0], ast.GeneratorExp)):
            found.append("%s:%d: tuple(<genexpr>)" % (path, node.lineno))
        for arg in node.args:
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                found.append("%s:%d: *<genexpr> argument" % (path, node.lineno))
    return found


def test_guard_finds_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = tuple(i for i in range(3))\n"
                     "b = max(*(i for i in range(3)))\n"
                     "c = tuple([i for i in range(3)]) + (max(*[1, 2]),)\n")
    assert _resized_tuples(probe) == ["%s:1: tuple(<genexpr>)" % probe,
                                      "%s:2: *<genexpr> argument" % probe]


def test_no_tuple_is_built_from_a_generator():
    package = pathlib.Path(floer_workbench.__file__).parent
    found = [hit for path in sorted(package.glob("*.py"))
             for hit in _resized_tuples(path)]
    assert not found, "\n".join(found)


def _phi():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["phi", "--fixture", "NilpotentLadder:8"])


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="counts CPython's allocated blocks")
def test_repeated_jobs_hold_no_more_blocks():
    assert _phi() == 0  # parser and other one-time state
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(200):
        assert _phi() == 0
    # one resized tuple per job would add up to 200 blocks; the resizing
    # calls that linalg, complexes and fixtures made on this path added 4352
    assert sys.getallocatedblocks() - before < 1000

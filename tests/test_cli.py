import hashlib
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from floer_workbench import cli, connect_sum, fixtures, lattice, polyid
from floer_workbench.linalg import RatMatrix
from test_connect_sum import union_dims_oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# command table coverage


DOMAIN_MODULES = ("complexes", "homology", "connect_sum", "invariants",
                  "fixtures", "lattice", "polyid")


def public_functions(modname):
    module = importlib.import_module("floer_workbench." + modname)
    out = set()
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.add("%s.%s" % (modname, name))
    return out


def test_every_operation_has_exactly_one_command():
    """The command table partitions the public operation surface."""
    table_entries = [op for ops in cli.COMMAND_TABLE.values() for op in ops]
    assert len(table_entries) == len(set(table_entries)), "duplicate assignment"
    expected = set()
    for modname in DOMAIN_MODULES:
        expected |= public_functions(modname)
    assert set(table_entries) == expected


def test_command_table_matches_parser_and_handlers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    commands = set(sub.choices)
    assert commands == set(cli.COMMAND_TABLE)
    assert commands == set(cli._HANDLERS)


def test_table_names_resolve_to_callables():
    for ops in cli.COMMAND_TABLE.values():
        for dotted in ops:
            modname, funcname = dotted.split(".")
            module = importlib.import_module("floer_workbench." + modname)
            assert callable(getattr(module, funcname))


def _bench_module(name):
    """bench/<name>.py as it stands, with the modules it imports beside it."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


def test_benchmark_layer_names_are_public_operations():
    """Every span and counter the benchmark's layer metrics read, other than
    the counters derived from results and argparse's parse_args, names a
    public function or method of the package, so deleting one fails here
    and not only in the benchmark's self-check."""
    layers = _bench_module("layers")
    names = {n for table in (layers.SELF_MS, layers.COUNTS)
             for group in table.values() for n in group}
    names |= {n for num, den, _ in layers.RATIOS.values() for n in (num, den)}
    names -= layers.DERIVED_COUNTERS | {"cli.parse_args"}
    assert len(names) > 40
    for dotted in sorted(names):
        modname, *path = dotted.split(".")
        obj = importlib.import_module("floer_workbench." + modname)
        for part in path:
            assert not part.startswith("_") or part.endswith("__"), dotted
            obj = getattr(obj, part, None)
        assert callable(obj) and obj.__module__ == "floer_workbench." + modname, dotted


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(capsys):
    code, out, err = run(capsys, "validate", "--fixture", "Pplus")
    assert code == 0
    assert "valid: true" in out
    assert err == ""


def test_exit_one_on_domain_failure(tmp_path, capsys):
    doc = tmp_path / "bad.fx"
    doc.write_text("kind\n  admissible\ngenerators\n  a 0\n  b 1\n"
                   "differential\n  a b 1\nu\ndelta\ndelta_prime\n")
    code, out, err = run(capsys, "validate", "--file", str(doc))
    assert code == 1
    assert "valid: false" in out


def test_exit_one_on_negative_level(capsys):
    code, out, err = run(capsys, "verify-sum-bound",
                         "--a", "TrefoilLikeSynthetic",
                         "--b", "TrefoilLikeSynthetic",
                         "--c", "NilpotentLadder:2", "--n", "2")
    assert code == 1
    assert "no bound" in err


def test_exit_two_on_usage_errors(capsys):
    assert run(capsys, "validate", "--fixture", "Zzz")[0] == 2
    assert run(capsys, "validate")[0] == 2
    assert run(capsys, "eta", "--class", "1,2,3")[0] == 2
    assert run(capsys, "phi", "--file", "/no/such/file")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_exit_two_on_non_utf8_file(tmp_path, capsys):
    doc = tmp_path / "binary.fx"
    doc.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", "--file", str(doc))
    assert code == 2
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("max_n", ["-5", "0", "two"])
def test_poly_identities_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run(capsys, "poly-identities", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert "--max-n" in err


# sha256 of stdout as printed while the identities were expanded over
# Fraction coefficients, with each power rebuilt by repeated products
@pytest.mark.parametrize("argv, digest", [
    ((), "f705d405a048a3f34e68afc81af85271c5af28a568f1145c310cb8412b1b4c2c"),
    (("--max-n", "7"),
     "d8d7d87fc60f6c52ca4a907b4ecbc28abd1554178d8acb800c62b8fa48923d3a"),
    (("--max-n", "5", "--json"),
     "77cf90210bf183b2bf85aa1d13b742e9224a9e717401ebdff3c681f87b77e1e9"),
])
def test_poly_identities_bytes_are_unchanged(capsys, argv, digest):
    code, out, err = run(capsys, "poly-identities", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_poly_identities_refuses_max_n_above_cap(capsys, monkeypatch):
    calls = []

    def fake(n):
        calls.append(n)
        return polyid.TelescopeReport(n=n, corrected_ok=True, printed_ok=False)

    monkeypatch.setattr(polyid, "verify_telescoping", fake)
    monkeypatch.setattr(polyid, "verify_triple_identity", lambda n: True)
    cap = cli.MAX_N_CAP
    for max_n in (cap + 1, 1000):
        code, out, err = run(capsys, "poly-identities", "--max-n", str(max_n))
        assert (code, out) == (1, "")
        assert err == "error: --max-n %d is above the cap of %d\n" % (max_n, cap)
        assert calls == []
    code, out, err = run(capsys, "poly-identities", "--max-n", str(cap))
    assert (code, err) == (0, "")
    assert calls == list(range(1, cap + 1))


@pytest.mark.parametrize("n", ["-1", "0", "two"])
def test_verify_sum_bound_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "verify-sum-bound", "--a", "NilpotentLadder:2",
                         "--b", "NilpotentLadder:2", "--n", n)
    assert code == 2
    assert out == ""
    assert "--n" in err


# ---------------------------------------------------------------------------
# reports


def test_reports_are_self_describing(capsys):
    _, out, _ = run(capsys, "phi", "--fixture", "Pplus", "--u-param", "2")
    assert "u-param 2" in out
    assert "mode: minus" in out
    assert "class: rho4" in out


def test_phi_minus_report_shape(capsys):
    code, out, _ = run(capsys, "phi", "--fixture", "Pplus")
    assert code == 0
    assert "span-dim: 1" in out
    assert "nilpotent-on-cyclic-subspace: false" in out
    assert "filtration-order: none" in out


def test_phi_plus_mode(capsys):
    code, out, _ = run(capsys, "phi", "--fixture", "TrefoilLikeSynthetic",
                       "--mode", "plus")
    assert code == 0
    assert "mode: plus" in out
    assert "agree: true" in out


def test_h_report(capsys):
    code, out, _ = run(capsys, "h", "--fixture", "nPplusModel:3")
    assert code == 0
    assert "h: -3" in out
    assert "mutual-triviality: true" in out


def test_connect_sum_report(capsys):
    code, out, _ = run(capsys, "connect-sum", "--a", "Pplus", "--b", "Pplus",
                       "--homology")
    assert code == 0
    assert "homology-dims: 0:2 4:2" in out


def test_eta_report_nonzero(capsys):
    code, out, _ = run(capsys, "eta", "--class", "w0", "--blocks", "1")
    assert code == 0
    assert "count: 16" in out


def test_eta_non_extremal_warning_is_one_plain_line(capsys):
    # twice, since Python's own warning filter would show a repeat only once
    for _ in range(2):
        code, out, err = run(capsys, "eta", "--class", "2,2,0,0,0,0,0,0")
        assert code == 0
        assert "count: 240" in out
        assert err == "warning: eta evaluated at a non-extremal vector\n"


def test_eta_counts_w0_6_without_listing(capsys):
    code, out, err = run(capsys, "eta", "--class", "w0^6")
    assert code == 0
    assert err == ""
    assert "vectors: 16777216\ncount: 16777216\nall-in-class: true\n" in out


def test_eta_list_prints_exact_coordinates(capsys):
    code, out, _ = run(capsys, "eta", "--class", "halfsum", "--list")
    assert code == 0
    assert out.endswith("vector 0: " + " ".join(["-1/2"] * 8) + "\n"
                        "vector 1: " + " ".join(["1/2"] * 8) + "\n")
    code, out, _ = run(capsys, "eta", "--class", "0,0,0,0,0,0,-1,1", "--list")
    assert code == 0
    assert out.endswith("vector 0: 0 0 0 0 0 0 -1 1\n"
                        "vector 1: 0 0 0 0 0 0 1 -1\n")
    code, out, _ = run(capsys, "eta", "--class=-3/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2",
                       "--list")
    assert code == 0
    assert ": -3/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2\n" in out
    assert ": 3/2 -1/2 -1/2 -1/2 -1/2 -1/2 -1/2 -1/2\n" in out


def test_sum_bound_refusal_exits_one(capsys):
    code, out, err = run(capsys, "verify-sum-bound", "--a", "NilpotentLadder:3",
                         "--b", "NilpotentLadder:1", "--n", "2")
    assert code == 1
    assert out == ""
    assert err == "error: (u^2 - 4)^2 does not vanish on the left factor\n"


def test_disjoint_union_checks_samples_against_one_solver(capsys, monkeypatch):
    # every cycle of the reduced union passes the check (connect_sum's
    # docstring), so the samples are counted from ranks and no solver is built
    homology = importlib.import_module("floer_workbench.homology")
    built = []

    class CountedSolver(connect_sum.LinearSolver):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(connect_sum, "LinearSolver", CountedSolver)
    monkeypatch.setattr(homology, "LinearSolver", CountedSolver)
    code, out, _ = run(capsys, "disjoint-union", "--a", "NilpotentLadder:2",
                       "--b", "NilpotentLadder:2")
    assert code == 0
    assert "kernel-symmetry-samples: 6\n" in out
    assert "kernel-symmetry-all-true: true\n" in out
    assert built == []


def test_disjoint_union_validates_each_factor_once(capsys, monkeypatch):
    # the union requires the loaded factors valid; ladders have d = 0, so
    # no reduced factor is built and nothing else is validated
    from floer_workbench import complexes

    seen, loaded = [], []
    validate, load = complexes.validate, cli._load_factor
    monkeypatch.setattr(complexes, "validate", lambda data: seen.append(data) or validate(data))
    monkeypatch.setattr(cli, "_load_factor",
                        lambda *args: loaded.append(load(*args)) or loaded[-1])
    code, _, _ = run(capsys, "disjoint-union", "--a", "NilpotentLadder:2",
                     "--b", "NilpotentLadder:3", "--homology")
    assert code == 0
    assert [data for data in seen if any(data is f for f, _ in loaded)] == [f for f, _ in loaded]
    assert len(seen) == len({id(data) for data in seen}) == 2


def test_file_documents_are_validated_once(tmp_path, capsys, monkeypatch):
    # parse validates each document and marks it, so require_valid on the
    # loaded factor does not validate it again
    from floer_workbench import complexes, fixtures

    paths = []
    for i, spec in enumerate(("NilpotentLadder:2", "NilpotentLadder:3")):
        path = tmp_path / ("factor%d.fx" % i)
        path.write_text(fixtures.serialize(fixtures.builtin(spec)))
        paths.append(str(path))
    seen = []
    validate = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda data: seen.append(data) or validate(data))
    code, _, _ = run(capsys, "disjoint-union", "--file-a", paths[0],
                     "--file-b", paths[1], "--homology")
    assert code == 0
    assert len(seen) == len({id(data) for data in seen}) == 2
    seen.clear()
    code, _, _ = run(capsys, "homology", "--file", paths[0])
    assert code == 0
    assert len(seen) == 1


def test_disjoint_union_with_acyclic_factor_checks_nothing(tmp_path, capsys):
    # d p = q leaves no homology, so the reduced union has no generators
    doc = tmp_path / "acyclic.txt"
    doc.write_text("# floer-workbench fixture\nkind\n  admissible\n"
                   "generators\n  p 1\n  q 0\ndifferential\n  p q 1\n"
                   "u\ndelta\ndelta_prime\n")
    code, out, err = run(capsys, "disjoint-union", "--file-a", str(doc),
                         "--b", "NilpotentLadder:2", "--homology")
    assert code == 0
    assert err == ""
    assert "homology-dims: none\n" in out
    assert "kernel-symmetry-samples: 0\n" in out
    assert "kernel-symmetry-all-true: true\n" in out


def _count_homology_calls(monkeypatch):
    """Sizes of the complexes homology() is called on, through any caller."""
    module = importlib.import_module("floer_workbench.homology")
    sizes = []
    original = module.homology

    def counting(cx):
        sizes.append(cx.size)
        return original(cx)

    monkeypatch.setattr(module, "homology", counting)
    return sizes


@pytest.mark.parametrize("argv", [
    ["homology", "--fixture", "nPplusModel:3"],
    ["connect-sum", "--a", "Pplus", "--b", "TrefoilLikeSynthetic", "--homology"],
    ["connect-sum", "--a", "Pplus", "--b", "TrefoilLikeSynthetic", "--search"],
])
def test_dimension_reports_run_no_homology_bases(capsys, monkeypatch, argv):
    sizes = _count_homology_calls(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert sizes == []


def test_disjoint_union_homology_dims_add_no_homology_call(capsys, monkeypatch):
    # ladders have d = 0, so neither factor is reduced and homology() never
    # runs; --homology reads the union's rank counts, which are taken anyway
    sizes = _count_homology_calls(monkeypatch)
    argv = ["disjoint-union", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:3"]
    assert run(capsys, *argv)[0] == 0
    without = list(sizes)
    del sizes[:]
    code, out, _ = run(capsys, *(argv + ["--homology"]))
    assert code == 0
    assert "homology-dims: " in out
    assert sizes == without == []


LADDER_UNIONS = [["disjoint-union", "--a", "NilpotentLadder:%d" % a,
                  "--b", "NilpotentLadder:%d" % b] + extra
                 for a in range(1, 9) for b in range(1, 9)
                 for extra in ([], ["--homology"])]


def _seeded_file_unions(rng, count):
    """Write count pairs of admissible documents with d != 0 to the current
    directory; the union argv of each pair, with and without --homology."""
    argvs = []
    for i in range(count):
        paths = []
        while len(paths) < 2:
            data = fixtures.random_admissible(rng, max_gens=8)
            if not data.complex.differential.is_zero():
                paths.append("u%d%s.fx" % (i, "ab"[len(paths)]))
                with open(paths[-1], "w") as fh:
                    fh.write(fixtures.serialize(data))
        argv = ["disjoint-union", "--file-a", paths[0], "--file-b", paths[1]]
        argvs += [argv, argv + ["--homology"]]
    return argvs


def _outcomes_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(("%s\0%s\0%s\0%d\n" % (" ".join(argv), out, err, code)).encode())
    return digest.hexdigest()


# sha256 of every argv, stdout, stderr and exit code, recorded while both
# factors were reduced and a second union built for the samples
@pytest.mark.parametrize("kind, digest", [
    ("ladders", "d6a4f18a942ae6d0b1c95615796ace45661b49fa17c97e12cd07b67ca5797619"),
    ("files", "fd7240ed50d4de2ceca51d2a0cebd269551227b79ce9d3625d44744fc1733bea"),
], ids=["ladders", "files"])
def test_disjoint_union_bytes_are_unchanged(tmp_path, capsys, monkeypatch, kind, digest):
    monkeypatch.chdir(tmp_path)
    argvs = (LADDER_UNIONS if kind == "ladders"
             else _seeded_file_unions(random.Random(20), 16))
    assert _outcomes_digest(capsys, argvs) == digest


def _count_union_work(monkeypatch):
    """Calls of disjoint_union_complex and of reduce_to_homology, from cli."""
    homology = importlib.import_module("floer_workbench.homology")
    calls = {"union": 0, "reduce": 0}
    union, reduce = connect_sum.disjoint_union_complex, homology.reduce_to_homology

    def counting_union(a, b):
        calls["union"] += 1
        return union(a, b)

    def counting_reduce(data):
        calls["reduce"] += 1
        return reduce(data)

    monkeypatch.setattr(connect_sum, "disjoint_union_complex", counting_union)
    monkeypatch.setattr(homology, "reduce_to_homology", counting_reduce)
    return calls


@pytest.mark.parametrize("homology", [False, True])
def test_disjoint_union_of_reduced_factors_builds_one_union(capsys, monkeypatch,
                                                            homology):
    # a factor with d = 0 is its own homology, so nothing is reduced and
    # the one union is built on the loaded factors
    calls = _count_union_work(monkeypatch)
    argv = ["disjoint-union", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:3"]
    code, out, _ = run(capsys, *(argv + ["--homology"] * homology))
    assert code == 0
    assert "kernel-symmetry-samples: 6\n" in out
    assert calls == {"union": 1, "reduce": 0}


def test_disjoint_union_reduces_factors_with_a_differential(tmp_path, capsys,
                                                            monkeypatch):
    # factors with d != 0 are reduced, and only their reductions are united
    paths = []
    rng = random.Random(4)
    while len(paths) < 2:
        data = fixtures.random_admissible(rng)
        if not data.complex.differential.is_zero():
            path = tmp_path / ("factor%d.fx" % len(paths))
            path.write_text(fixtures.serialize(data))
            paths.append(str(path))
    calls = _count_union_work(monkeypatch)
    code, out, _ = run(capsys, "disjoint-union", "--file-a", paths[0],
                       "--file-b", paths[1])
    assert code == 0
    assert "kernel-symmetry-all-true: true\n" in out
    assert calls == {"union": 1, "reduce": 2}


def test_connect_sum_search_assembles_once(capsys, monkeypatch):
    # one assembly certifies the reported config from its orbit verdict and
    # ranks one representative per accepted gauge orbit
    calls, assemblies, ranked, restricted = [], [], [], []
    build = connect_sum.connected_sum_complex
    init = connect_sum._Assembly.__init__
    homology_module = importlib.import_module("floer_workbench.homology")
    row_rank = homology_module._row_rank
    restrict = RatMatrix.restrict_columns
    model = fixtures.builtin("TrefoilLikeSynthetic")
    blocks = len(build(model, model).total.dims_by_degree())

    def counting_init(self, *args, **kwargs):
        assemblies.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(connect_sum, "connected_sum_complex",
                        lambda *args, **kwargs: calls.append(1) or build(*args, **kwargs))
    monkeypatch.setattr(connect_sum._Assembly, "__init__", counting_init)
    monkeypatch.setattr(homology_module, "_row_rank",
                        lambda rows: ranked.append(1) or row_rank(rows))
    monkeypatch.setattr(RatMatrix, "restrict_columns",
                        lambda m, cols: restricted.append(1) or restrict(m, cols))
    code, out, _ = run(capsys, "connect-sum", "--a", "TrefoilLikeSynthetic",
                       "--b", "TrefoilLikeSynthetic", "--search", "--homology")
    assert code == 0
    assert "accepted-configs: 32\n" in out
    assert "dims-invariant-across-configs: true\n" in out
    assert calls == []
    assert len(assemblies) == 1
    assert blocks == 4
    assert len(ranked) == 4 * blocks  # 32 accepted configs, 4 orbits
    assert restricted == []


def test_fixtures_refuses_a_nilpotent_order_above_the_cap(capsys):
    code, out, err = run(capsys, "fixtures", "--random", "nilpotent", "--order", "101")
    assert (code, out) == (1, "")
    assert err == "error: order 101 is above the cap of 100\n"
    assert fixtures.NILPOTENT_ORDER_CAP == 100


def test_connect_sum_refuses_a_sum_above_the_cap(capsys):
    # nPplusModel:2000 (a sphere of 4000 generators) with Pplus: 20002
    code, out, err = run(capsys, "connect-sum", "--a", "nPplusModel:2000",
                         "--b", "Pplus", "--search")
    assert (code, out) == (1, "")
    assert err == "error: the sum complex would have 20002 generators, above the cap of 20000\n"


def test_fixture_order_above_the_cap_exits_one_before_building(capsys, monkeypatch):
    monkeypatch.setattr(fixtures, "_ladder", lambda *args, **kw: pytest.fail("built"))
    for argv in (["connect-sum", "--a", "nPplusModel:99999", "--b", "Pplus"],
                 ["fixtures", "--emit", "NilpotentLadder:%d" % (fixtures.ORDER_CAP + 1)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.endswith("above the cap of %d\n" % fixtures.ORDER_CAP)


def _over(command, name="NilpotentLadder"):
    return "%s:%d" % (name, cli.ORDER_CAPS[command] + 1)


@pytest.mark.parametrize("argv, spec", [
    (["phi", "--fixture", _over("phi")], _over("phi")),
    (["phi", "--fixture", "nPplusModel:400", "--mode", "plus"], "nPplusModel:400"),
    (["h", "--fixture", _over("h", "nPplusModel")], _over("h", "nPplusModel")),
    (["h", "--fixture", "NilpotentLadder:400"], "NilpotentLadder:400"),
    (["verify-sum-bound", "--a", "NilpotentLadder:2", "--b", _over("verify-sum-bound")],
     _over("verify-sum-bound")),
    (["verify-sum-bound", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2",
      "--c", "NilpotentLadder:200"], "NilpotentLadder:200"),
])
def test_orders_above_a_command_cap_are_refused_at_once(argv, spec):
    # each of these ran for 10 s or more before the caps
    proc = subprocess.run([sys.executable, "-m", "floer_workbench.cli", *argv],
                          capture_output=True, env=_cli_env(), timeout=20)
    command = argv[0]
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == ("error: %s has order %s, above the %s cap of %d\n"
                                    % (spec, spec.split(":")[1], command,
                                       cli.ORDER_CAPS[command]))


@pytest.mark.parametrize("argv", [
    ["phi", "--fixture", "nPplusModel:%d" % cli.ORDER_CAPS["phi"]],
    ["h", "--fixture", "NilpotentLadder:%d" % cli.ORDER_CAPS["h"]],
    ["verify-sum-bound", "--a", "NilpotentLadder:%d" % cli.ORDER_CAPS["verify-sum-bound"],
     "--b", "NilpotentLadder:16", "--c", "NilpotentLadder:1"],
])
def test_orders_at_a_command_cap_are_built(capsys, monkeypatch, argv):
    # the cap admits its own order: the first fixture gets built
    def build(*args, **kwargs):
        raise ValueError("built")

    monkeypatch.setattr(fixtures, "_ladder", build)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: built\n")


def test_command_caps_admit_every_benchmark_job(tmp_path):
    workloads = _bench_module("workloads")
    checked = 0
    for name in workloads.WORKLOADS:
        jobs, _ = workloads.JOB_LISTS[name](workloads.build_inputs(name, 7, str(tmp_path)))
        for job in jobs:
            if job.argv[0] in cli.ORDER_CAPS:
                specs = [v for k, v in zip(job.argv, job.argv[1:])
                         if k in ("--fixture", "--a", "--b", "--c")]
                cli._check_orders(job.argv[0], *specs)
                checked += len(specs)
    assert checked > 10


def test_order_above_the_fixture_cap_keeps_its_message(capsys):
    code, out, err = run(capsys, "phi", "--fixture",
                         "NilpotentLadder:%d" % (fixtures.ORDER_CAP + 1))
    assert (code, out) == (1, "")
    assert err.endswith("above the cap of %d\n" % fixtures.ORDER_CAP)


def test_signs_starting_with_minus_need_the_equals_form(capsys):
    argv = ["connect-sum", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2"]
    code, out, err = run(capsys, *argv, "--signs=-1,1,1,1,-1", "--search", "--homology")
    assert code == 0 and err == ""
    assert "signs: -1 +1 +1 +1 -1\n" in out
    assert "accepted-configs: 32\n" in out
    code, _, err = run(capsys, *argv, "--signs", "-1,1,1,1,-1")
    assert code == 2 and "expected one argument" in err


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in (["validate", "--fixture", "Pplus"], ["extremal", "--class", "w0"],
                 ["nonsense"], ["validate", "--fixture", "Pplus"]):
        run(capsys, *argv)
    assert built == [1]


@pytest.mark.parametrize("argv", [
    ["nonsense"],
    ["verify-sum-bound", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2",
     "--n", "0"],
])
def test_usage_errors_repeat_identically(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_PARSER", None)
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 2 and first[1] == ""
    assert "usage: floer-workbench" in first[2]
    assert second == first


def test_extremal_class_minimum_search_is_capped(capsys, monkeypatch):
    # the block's own doubled norm is 128; its class minimum is closed
    # form, so the answer comes at once with no search
    budgets = []
    search = lattice._block_class_members

    def recorded(wb, budget_q):
        budgets.append(budget_q)
        return search(wb, budget_q)

    monkeypatch.setattr(lattice, "_block_class_members", recorded)
    code, out, _ = run(capsys, "extremal", "--class", "8,8,0,0,0,0,0,0")
    assert code == 0
    assert "extremal: false\n" in out
    assert budgets == []


def test_eta_list_refused_above_cap(capsys):
    code, out, err = run(capsys, "eta", "--class", "w0^6", "--list")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "16777216" in err and "65536" in err


def test_lattice_jobs_search_each_distinct_block_once(capsys, monkeypatch):
    budgets = []
    search = lattice._block_class_members

    def recorded(wb, budget_q):
        budgets.append(budget_q)
        return search(wb, budget_q)

    monkeypatch.setattr(lattice, "_block_class_members", recorded)
    # one block repeated 16 times; class minima are closed form
    code, out, _ = run(capsys, "extremal", "--class", "w0^16")
    assert code == 0
    assert "extremal: true\n" in out
    assert budgets == []
    # the members up to the closed-form minimum, once for the three blocks
    code, out, _ = run(capsys, "eta", "--class", "w0^3", "--list")
    assert code == 0
    assert out.count("\nvector ") == 4096
    assert budgets == [16]


def reference_list_report(capsys, spec, as_json):
    """eta --list as formatted one coordinate at a time: the report of the
    count job followed by each enumerated vector's coordinates."""
    json_flag = ["--json"] if as_json else []
    code, header, _ = run(capsys, "eta", "--class=" + spec, *json_flag)
    assert code == 0
    vectors = lattice.congruent_vectors(lattice.parse_vector(spec))
    rows = [[str(Fraction(c, 2)) for c in v.doubled] for v in vectors]
    if as_json:
        payload = json.loads(header)
        for i, row in enumerate(rows):
            payload["vector %d" % i] = row
        return json.dumps(payload, indent=2) + "\n"
    return header + "".join("vector %d: %s\n" % (i, " ".join(row))
                            for i, row in enumerate(rows))


def test_eta_list_matches_per_coordinate_formatting(capsys):
    # w0^2, halfsum^3, and a root block beside a half-integer norm-4 block
    for spec in ("w0^2", "halfsum^3",
                 "0,0,0,0,0,0,-1,1,-3/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2"):
        for as_json in (False, True):
            json_flag = ["--json"] if as_json else []
            code, out, err = run(capsys, "eta", "--class=" + spec, "--list", *json_flag)
            assert code == 0 and err == ""
            assert out == reference_list_report(capsys, spec, as_json), (spec, as_json)


def _cli_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_dense_self_union_homology_does_not_hang(tmp_path):
    # a 7200-generator union whose full-size ranks took about 58 s; the
    # union of the reduced factors has the same homology
    rng = random.Random(7)
    data = fixtures.random_admissible(rng, max_gens=60)
    while data.size != 60 or data.complex.differential.is_zero():
        data = fixtures.random_admissible(rng, max_gens=60)
    path = tmp_path / "dense.fx"
    path.write_text(fixtures.serialize(data))
    proc = subprocess.run(
        [sys.executable, "-m", "floer_workbench.cli", "disjoint-union", "--file-a",
         str(path), "--file-b", str(path), "--homology"],
        capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert proc.returncode == 0
    assert proc.stderr == ""
    dims = union_dims_oracle(data, data)
    assert "generators: 7200\n" in proc.stdout
    assert ("homology-dims: %s\n" % " ".join("%d:%d" % rd for rd in sorted(dims.items()))
            in proc.stdout)


def test_largest_self_sum_search_does_not_hang():
    # 19404 generators under SUM_GENERATOR_CAP; its degree blocks peel, where
    # the forward elimination alone took about 3 s
    spec = "nPplusModel:49"
    proc = subprocess.run(
        [sys.executable, "-m", "floer_workbench.cli", "connect-sum", "--a", spec,
         "--b", spec, "--search", "--homology"],
        capture_output=True, text=True, env=_cli_env(), timeout=2)
    assert proc.returncode == 0
    assert "homology-dims: 0:98 4:98\n" in proc.stdout
    assert "accepted-configs: 32\n" in proc.stdout


def test_eta_refuses_oversized_class_without_hanging():
    # its one block would need every class member up to norm 128
    proc = subprocess.run(
        [sys.executable, "-m", "floer_workbench.cli", "eta", "--class",
         "8,8,0,0,0,0,0,0"], capture_output=True, env=_cli_env(), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == (b"error: the class needs block members up to "
                           b"|v^2| = 128, beyond the 32 that can be searched\n")


def test_eta_lists_at_the_cap_without_hanging():
    # w0^4 holds LIST_CAP = 65536 vectors, the largest listing allowed
    proc = subprocess.run(
        [sys.executable, "-m", "floer_workbench.cli", "eta", "--class", "w0^4",
         "--list"], capture_output=True, env=_cli_env(), timeout=5)
    assert proc.returncode == 0 and proc.stderr == b""
    vectors = [line for line in proc.stdout.decode().splitlines()
               if line.startswith("vector ")]
    assert len(vectors) == 65536
    assert vectors[0] == "vector 0: " + " ".join(["-1 -1 -1 -1 0 0 0 0"] * 4)
    assert vectors[-1] == "vector 65535: " + " ".join(["1 1 1 1 0 0 0 0"] * 4)


def test_eta_refuses_oversized_power_without_building_it():
    # w0^999999999 would be a tuple of 8 * 10^9 coordinates
    for spec, power in (("w0^999999999", 999999999), ("zero^2049", 2049)):
        proc = subprocess.run(
            [sys.executable, "-m", "floer_workbench.cli", "eta", "--class", spec],
            capture_output=True, env=_cli_env(), timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (b"error: power %d is above the cap of 2048 blocks\n"
                               % power)


def test_eta_reports_the_largest_power_in_full(capsys):
    # 16^2048 has 2467 digits, under the 4300 that Python prints
    code, out, err = run(capsys, "eta", "--class", "w0^2048")
    assert (code, err) == (0, "")
    assert "\ncount: %d\nall-in-class: true\n" % 16 ** 2048 in out


def test_eta_list_json_bytes_are_unchanged():
    # sha256 of the report as printed before lists of coordinate texts
    # passed through --json formatting unchanged
    proc = subprocess.run(
        [sys.executable, "-m", "floer_workbench.cli", "eta", "--class", "w0^3",
         "--list", "--json"], capture_output=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(proc.stdout) == 1002546
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "cd37634fa930433d98b55ec7ab82ae7ef530b82d187e4bfa81722c9ed3ea32ce")


def test_closed_stdout_exits_one_without_traceback():
    # about 270 KB of report, more than a pipe buffers, so writes must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "floer_workbench.cli", "eta", "--class", "w0^3",
         "--list"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.readline() == b"command: eta\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no ignored-exception notice


def test_rationals_never_decimal(capsys):
    _, out, _ = run(capsys, "verify-sum-bound",
                    "--a", "TrefoilLikeSynthetic",
                    "--b", "TrefoilLikeSynthetic")
    assert "pairing: 1/2" in out
    assert "0.5" not in out


def test_json_carries_same_data(capsys):
    _, text, _ = run(capsys, "extremal", "--class", "w0")
    _, blob, _ = run(capsys, "extremal", "--class", "w0", "--json")
    payload = json.loads(blob)
    assert payload["command"] == "extremal"
    assert payload["extremal"] is True
    assert payload["min-charge-k"] == 1
    for line in text.strip().splitlines():
        key, value = line.split(": ", 1)
        assert key in payload


def test_documents_round_trip_through_cli(tmp_path, capsys):
    _, doc, _ = run(capsys, "fixtures", "--emit", "NilpotentLadder:3")
    path = tmp_path / "ladder.fx"
    path.write_text(doc)
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0
    assert "valid: true" in out


def test_random_document_generation_deterministic(capsys):
    _, first, _ = run(capsys, "fixtures", "--random", "nilpotent",
                      "--order", "2", "--seed", "11")
    _, second, _ = run(capsys, "fixtures", "--random", "nilpotent",
                       "--order", "2", "--seed", "11")
    assert first == second
    assert "# psi" in first
    _, third, _ = run(capsys, "fixtures", "--random", "nilpotent",
                      "--order", "2", "--seed", "12")
    assert third != first


def test_byte_identical_reruns(capsys):
    invocations = [
        ("validate", "--fixture", "Pminus"),
        ("homology", "--fixture", "NilpotentLadder:2"),
        ("reduce", "--fixture", "Pplus"),
        ("dualize", "--fixture", "Pminus"),
        ("connect-sum", "--a", "Pplus", "--b", "Pplus", "--search"),
        ("disjoint-union", "--a", "NilpotentLadder:1", "--b",
         "NilpotentLadder:2", "--homology"),
        ("phi", "--fixture", "TrefoilLikeSynthetic"),
        ("h", "--fixture", "Pminus"),
        ("eta", "--class", "w0", "--list"),
        ("extremal", "--class", "root"),
        ("verify-sum-bound", "--a", "TrefoilLikeSynthetic", "--b",
         "TrefoilLikeSynthetic", "--c", "TrefoilLikeSynthetic"),
        ("poly-identities", "--max-n", "2"),
        ("fixtures",),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


def test_eta_bytes_stable_across_worker_counts(capsys):
    outputs = {run(capsys, "eta", "--class", "w0^2", "--list", *workers)
               for workers in ((), (), ("--workers", "1"), ("--workers", "5"))}
    assert len(outputs) == 1


def test_descent_obstruction_maps_to_domain_error(tmp_path, capsys):
    doc = tmp_path / "obstructed.fx"
    doc.write_text(
        "kind\n  homology_sphere\n"
        "generators\n  a1 1\n  b4 4\n  c5 5\n"
        "differential\n  c5 b4 -1\n"
        "u\n  a1 c5 1\n"
        "delta\n  a1 2\n"
        "delta_prime\n  b4 1\n")
    code, out, _ = run(capsys, "validate", "--file", str(doc))
    assert code == 0, out
    code, _, err = run(capsys, "reduce", "--file", str(doc))
    assert code == 1
    assert "descend" in err or "descent" in err


@pytest.mark.parametrize("argv, flags", [
    (("disjoint-union", "--a", "NilpotentLadder:1", "--file-a", "X",
      "--b", "NilpotentLadder:1"), "--a or --file-a"),
    (("connect-sum", "--a", "Pplus", "--b", "Pplus", "--file-b", "X"),
     "--b or --file-b"),
    (("verify-sum-bound", "--a", "NilpotentLadder:1", "--b", "NilpotentLadder:1",
      "--c", "NilpotentLadder:1", "--file-c", "X"), "--c or --file-c"),
    (("homology", "--fixture", "Pplus", "--file", "X"), "--fixture or --file"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_two_sources_for_one_input_name_its_flags(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "usage error: pass %s, not both\n" % flags


def test_connect_sum_usage_requires_factors(capsys):
    code, _, err = run(capsys, "connect-sum", "--a", "Pplus")
    assert code == 2
    assert "right factor" in err


# ---------------------------------------------------------------------------
# --json bytes, generator cap, degree tokens


# sha256 of stdout, recorded while cli imported json and every module at
# its own import
@pytest.mark.parametrize("argv, digest", [
    (("validate", "--fixture", "Pplus"),
     "4445585cd9c1bdaf559f0af77962b515d451d945f6189f46d222bf6bad87dca5"),
    (("homology", "--fixture", "NilpotentLadder:2"),
     "e94acf259c1cdbef2e1acc3729c92f65984ee863787d5a53b0f47b95882ce28f"),
    (("reduce", "--fixture", "TrefoilLikeSynthetic"),
     "b44374338dcf94924cfb8967a89b5f43100f99168ba70c939b2b4b4757eedbe4"),
    (("dualize", "--fixture", "Pplus"),
     "8c2c06d5634f1dc90273e340f815bb2a080cb35cddba894e13d7dad722347134"),
    (("connect-sum", "--a", "Pplus", "--b", "Pminus", "--homology"),
     "98d6fdc3f333e8d14d0e0ed1a77bcf7976fe97bc135be077359fc4663d510ca1"),
    (("disjoint-union", "--a", "NilpotentLadder:1", "--b", "NilpotentLadder:2",
      "--homology"),
     "c7463001aca089c599eb8990ed917f3ca496ae41484807bc7dfe3d3b3b5b3c1b"),
    (("phi", "--fixture", "TrefoilLikeSynthetic"),
     "0fc92b77446548bff90a1958da5c321c298c7338dd3e977ea4d414a658b80031"),
    (("h", "--fixture", "Pplus"),
     "69baf31d02bed2b32f1f0dfc4221f7c76dd30031ed1a5e92ee9846e20433e190"),
    (("eta", "--class", "w0^2", "--list"),
     "841eb26d293132dedfd8bc25e26f445b022e8f4703e2247e59edc7ad76ec46c2"),
    (("extremal", "--class", "w0^2"),
     "d53b55c9ef4971368b4731fe47259f5802b833d0e2d97469e6589c951f215a9e"),
    (("verify-sum-bound", "--a", "NilpotentLadder:2", "--b", "NilpotentLadder:2"),
     "4cd11bca62e6c388c9fd78d116a48d2c0e599fff7ea20dd1c6dc8901b54a0849"),
    (("poly-identities", "--max-n", "3"),
     "f89791e19ada1190e2a5344a9f014fd0e7415cf798ce02192fafb5fc779e5af3"),
    (("fixtures",),
     "e92504a5aee4666ae83bbb01d65d52709a01050041d8250945a83e056bdbaef5"),
    (("fixtures", "--emit", "Pplus"),
     "ddfb3b1d56ca8587c5992e1414ae18c988d34a1ca76650cabd00b99024ac34db"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_json_bytes_are_unchanged(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eta_help_states_the_lattice_caps():
    assert cli.LATTICE_CAPS == {"power": lattice.POWER_CAP, "list": lattice.LIST_CAP}


def test_document_above_the_generator_cap_is_refused_at_once(tmp_path):
    # 60000 generators, each with a differential and a u line to read
    count = 3 * fixtures.GENERATOR_CAP
    doc = tmp_path / "huge.fx"
    doc.write_text("kind\n  admissible\ngenerators\n"
                   + "".join(["  g%d %d\n" % (i, i % 8) for i in range(count)])
                   + "differential\n"
                   + "".join(["  g%d g%d 1\n" % (i + 1, i) for i in range(0, count - 1, 8)])
                   + "u\n" + "".join(["  g%d g%d 1\n" % (i, i) for i in range(count)])
                   + "delta\ndelta_prime\n")
    proc = subprocess.run([sys.executable, "-m", "floer_workbench.cli", "validate",
                           "--file", str(doc)],
                          capture_output=True, env=_cli_env(), timeout=20)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (
        "error: line %d, column 3: more than the %d generators a document may "
        "declare\n" % (fixtures.GENERATOR_CAP + 4, fixtures.GENERATOR_CAP))


def test_generator_cap_admits_every_benchmark_document(tmp_path):
    workloads = _bench_module("workloads")
    paths = set()
    for name in workloads.WORKLOADS:
        jobs, _ = workloads.JOB_LISTS[name](workloads.build_inputs(name, 7, str(tmp_path)))
        paths |= {v for job in jobs for k, v in zip(job.argv, job.argv[1:])
                  if k.startswith("--file")}
    assert len(paths) > 10
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            assert fixtures.parse(fh.read()).size <= fixtures.GENERATOR_CAP


@pytest.mark.parametrize("token", ["--1", "²", "-²"])
def test_degree_tokens_int_refuses_exit_one_with_their_place(tmp_path, capsys, token):
    doc = tmp_path / "degree.fx"
    doc.write_text("kind\n  admissible\ngenerators\n  a 0\n  b %s\n"
                   "differential\nu\ndelta\ndelta_prime\n" % token, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(doc))
    assert (code, out) == (1, "")
    assert err == ("error: line 5, column 5: degree must be an integer, got %r\n"
                   % (token,))

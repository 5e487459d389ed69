"""Command line surface.

Thirteen subcommands, each a thin wrapper over module operations, emitting
deterministic key: value reports (or the same data as JSON with --json).
Rationals are always printed exactly, never as decimals.

Exit status: 0 success, 1 domain error (a named invariant or precondition
failed), 2 usage error (bad arguments, unknown fixture, unreadable file).

Each command loads only the modules it uses: a handler imports them in its
body, and this module imports nothing of the package at import time, nor
json until a --json report is written.  So `eta` and `extremal` load
only lattice, `poly-identities` only polyid, and no command pays for the
modules of another.  Every domain error is a ValueError, so main
maps exit codes without importing the modules that raise them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

# Where each public operation is surfaced.  One home per operation; shared
# plumbing (validation, fixture loading) naturally also runs elsewhere.
COMMAND_TABLE = {
    "validate": ("complexes.validate", "complexes.require_valid",
                 "complexes.u_chain_residual", "fixtures.parse"),
    "homology": ("homology.cycle_basis", "homology.boundary_basis",
                 "homology.euler_characteristic_mod2"),
    "reduce": ("homology.reduce_to_homology", "homology.homology",
               "homology.class_coordinates"),
    "dualize": ("complexes.dualize", "complexes.structurally_equal"),
    "connect-sum": ("connect_sum.connected_sum_complex", "connect_sum.sign_search"),
    "disjoint-union": ("connect_sum.disjoint_union_complex",
                       "connect_sum.kernel_symmetry_check"),
    "phi": ("invariants.phi_span", "invariants.phi_filtration",
            "invariants.phi_report", "invariants.nilpotency_order",
            "invariants.n_map"),
    "h": ("invariants.h_invariant", "invariants.triangular_independence",
          "homology.pair"),
    "eta": ("lattice.eta", "lattice.congruent_vectors", "lattice.same_class",
            "lattice.norm", "lattice.parse_vector", "lattice.require_member"),
    "extremal": ("lattice.is_extremal", "lattice.is_member",
                 "lattice.min_charge_k", "lattice.from_coords", "lattice.zero",
                 "lattice.concat"),
    "verify-sum-bound": ("connect_sum.verify_sum_bound",
                         "connect_sum.build_pair_cycle",
                         "connect_sum.build_triple_cycle"),
    "poly-identities": ("polyid.verify_telescoping", "polyid.verify_triple_identity"),
    "fixtures": ("fixtures.fixture_names", "fixtures.builtin",
                 "fixtures.split_fixture_spec", "fixtures.fixture_description",
                 "fixtures.distinguished_generators", "fixtures.serialize",
                 "fixtures.random_admissible", "fixtures.random_homology_sphere",
                 "fixtures.random_valid", "fixtures.random_nilpotent_phi"),
}


# largest builtin fixture order each command takes; at the cap one run
# takes about 1 s as a subprocess (Python 3.11, 2 shared CPUs), with
# verify-sum-bound's triple mode the slowest use of its cap
ORDER_CAPS = {"phi": 200, "h": 180, "verify-sum-bound": 48}

# largest --max-n poly-identities takes; the telescoping checks for
# n = 1..N make about N^4/24 term products, and N = 60 took 0.9 s as a
# subprocess (Python 3.11, 2 CPUs), N = 80 took 2.4 s
MAX_N_CAP = 60

# lattice.POWER_CAP and lattice.LIST_CAP, which eta's help states, repeated
# so that building the parser does not import lattice; a test keeps them equal
LATTICE_CAPS = {"power": 2048, "list": 16 ** 4}


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value) if value else "none"
    return str(value)  # a Fraction prints exactly, as 'p' or 'p/q'


# element types _json_value returns unchanged
_JSON_NATIVE = (str, int, bool, type(None))


def _json_value(value):
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        # a listed vector's coordinate texts pass through in one check
        if all(type(v) in _JSON_NATIVE for v in value):
            return value
        return [_json_value(v) for v in value]
    return str(value)


def _dims(dims: dict):
    items = [(r, d) for r, d in sorted(dims.items()) if d]
    if not items:
        return None
    return ["%d:%d" % (r, d) for r, d in items]


def _homology_dims(cx) -> dict:
    """Homology dimensions by residue from ranks alone; no basis is built."""
    from .homology import _rank_counts
    cycles, boundaries = _rank_counts(cx)
    return {r: cycles[r] - boundaries[r] for r in cycles}


class Report:
    def __init__(self, command: str):
        self.pairs = [("command", command)]
        self.document = None

    def add(self, key: str, value) -> "Report":
        self.pairs.append((key, value))
        return self

    def emit(self, as_json: bool) -> None:
        out = sys.stdout
        if as_json:
            import json
            payload = {k: _json_value(v) for k, v in self.pairs}
            if self.document is not None:
                payload["document"] = self.document
            out.write(json.dumps(payload, indent=2) + "\n")
            return
        for key, value in self.pairs:
            out.write("%s: %s\n" % (key, _fmt(value)))
        if self.document is not None:
            out.write("\n" + self.document)


# ---------------------------------------------------------------------------
# shared loading


def _load_data(fixture, path, u_param, check=True, flags=("--fixture", "--file")):
    """Returns (data, source description); flags name the two options."""
    from . import fixtures
    if fixture and path:
        raise UsageError("pass %s or %s, not both" % flags)
    if fixture:
        data = fixtures.builtin(fixture, u_param=u_param)
        return data, "fixture %s (u-param %d)" % (fixture, u_param)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read %s: %s" % (path, exc)) from None
        return fixtures.parse(text, check=check), "file %s" % path
    raise UsageError("pass --fixture NAME or --file PATH")


def _load_input(args, check=True):
    return _load_data(args.fixture, args.file, args.u_param, check=check)


def _load_factor(label, args, letter):
    """The factor that --LETTER or --file-LETTER names."""
    spec, path = getattr(args, letter), getattr(args, "file_" + letter)
    if not spec and not path:
        raise UsageError("missing %s factor: pass a fixture spec or a document path"
                         % label)
    return _load_data(spec, path, args.u_param, flags=("--" + letter, "--file-" + letter))


def _check_orders(command: str, *specs) -> None:
    """Refuse, before any fixture is built, a builtin order above the
    command's cap; a spec builtin would refuse is refused as it would be."""
    from . import fixtures
    cap = ORDER_CAPS[command]
    for spec in specs:
        order = fixtures._checked(spec)[0] if spec else 0
        if order > cap:
            raise ValueError("%s has order %d, above the %s cap of %d"
                             % (spec, order, command, cap))


def _generator_index(data, name: str) -> int:
    try:
        return data.complex.index_of(name)
    except (KeyError, ValueError):
        raise UsageError("no generator named %r; have %s"
                         % (name, " ".join(data.complex.names))) from None


def _class_vector(spec: str):
    """The lattice.LatticeVector that --class names."""
    from . import lattice
    try:
        return lattice.parse_vector(spec)
    except lattice.PowerTooLarge:
        raise  # a well-formed request beyond the stated size: exit 1
    except ValueError as exc:  # LatticeError is a ValueError
        raise UsageError("bad --class %r: %s" % (spec, exc)) from None


def _parse_signs(text: str):
    """The connect_sum.SignConfig that --signs names."""
    from .connect_sum import SignConfig
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise UsageError("--signs takes five comma-separated values, e.g. 1,1,1,1,-1")
    try:
        return SignConfig(*[int(p) for p in parts])
    except ValueError as exc:
        raise UsageError("bad --signs: %s" % exc) from None


# ---------------------------------------------------------------------------
# command handlers


def cmd_validate(args) -> int:
    from . import complexes
    data, source = _load_input(args, check=False)
    rep = Report("validate")
    rep.add("source", source)
    rep.add("kind", data.kind.value)
    rep.add("generators", data.size)
    rep.add("dims", _dims(data.complex.dims_by_degree()))
    result = complexes.validate(data)
    rep.add("u-chain-residual-zero",
            all(v.invariant != "u-chain-relation" for v in result.violations))
    rep.add("valid", result.ok)
    for v in result.violations:
        rep.add("violation " + v.invariant, v.detail)
    rep.emit(args.json)
    return 0 if result.ok else 1


def cmd_homology(args) -> int:
    from . import complexes
    from .homology import _rank_counts, euler_characteristic_mod2
    data, source = _load_input(args)
    complexes.require_valid(data)
    cycles, boundaries = _rank_counts(data.complex)
    dims = {r: cycles[r] - boundaries[r] for r in cycles}
    rep = Report("homology")
    rep.add("source", source)
    rep.add("dims", _dims(dims))
    rep.add("total-dim", sum(dims.values()))
    for r in range(8):
        if cycles[r] or boundaries[r]:
            rep.add("degree %d" % r, "cycles %d boundaries %d homology %d"
                    % (cycles[r], boundaries[r], dims[r]))
    rep.add("euler-by-parity", euler_characteristic_mod2(dims))
    rep.emit(args.json)
    return 0


def cmd_reduce(args) -> int:
    from . import fixtures
    from .homology import reduce_to_homology
    data, source = _load_input(args)
    reduced = reduce_to_homology(data)
    rep = Report("reduce")
    rep.add("source", source)
    rep.add("kind", reduced.kind.value)
    rep.add("dims", _dims(reduced.complex.dims_by_degree()))
    rep.add("generators", reduced.size)
    rep.document = fixtures.serialize(reduced)
    rep.emit(args.json)
    return 0


def cmd_dualize(args) -> int:
    from . import complexes, fixtures
    data, source = _load_input(args)
    dual = complexes.dualize(data)
    rep = Report("dualize")
    rep.add("source", source)
    rep.add("kind", dual.kind.value)
    rep.add("dims", _dims(dual.complex.dims_by_degree()))
    rep.add("involution-exact", complexes.dualize(dual) == data)
    rep.add("self-dual", complexes.structurally_equal(dual, data))
    rep.document = fixtures.serialize(dual)
    rep.emit(args.json)
    return 0


def cmd_connect_sum(args) -> int:
    from . import connect_sum
    a, desc_a = _load_factor("left", args, "a")
    b, desc_b = _load_factor("right", args, "b")
    signs = _parse_signs(args.signs) if args.signs else None
    if args.search:
        # homology dimensions are constant on each gauge orbit of configs,
        # so one representative per accepted orbit is ranked
        built, accepted, totals = connect_sum._search(
            a, b, signs or connect_sum.DEFAULT_SIGNS)
        orbit_dims = {key: _homology_dims(total) for key, total in totals.items()}
        dims = orbit_dims[connect_sum._orbit_class(built.signs)]
    else:
        built = connect_sum.connected_sum_complex(a, b, signs=signs)
        dims = _homology_dims(built.total) if args.homology else None
    rep = Report("connect-sum")
    rep.add("left", desc_a)
    rep.add("right", desc_b)
    rep.add("summands", [str(t) for t in built.shape])
    rep.add("generators", built.total.size)
    rep.add("signs", ["%+d" % s for s in built.signs.as_tuple()])
    if args.homology:
        rep.add("homology-dims", _dims(dims))
    if args.search:
        rep.add("accepted-configs", len(accepted))
        for i, cfg in enumerate(accepted):
            rep.add("config %d" % i, ["%+d" % s for s in cfg.as_tuple()])
        rep.add("dims-invariant-across-configs",
                len({tuple(sorted(d.items())) for d in orbit_dims.values()}) == 1)
    rep.emit(args.json)
    return 0


def cmd_disjoint_union(args) -> int:
    from . import connect_sum
    from .homology import _rank_counts
    a, desc_a = _load_factor("left", args, "a")
    b, desc_b = _load_factor("right", args, "b")
    # the full union's refusals, then one union of the reduced factors; each
    # reading below is a theorem proved in the connect_sum docstring
    connect_sum._require_union_factors(a, b)
    built = connect_sum.disjoint_union_complex(_reduced_first(a)[0],
                                               _reduced_first(b)[0])
    cycles, boundaries = _rank_counts(built.total)
    rep = Report("disjoint-union")
    rep.add("left", desc_a)
    rep.add("right", desc_b)
    rep.add("generators", 2 * a.size * b.size)
    rep.add("extended-u-commutes", True)
    if args.homology:
        rep.add("homology-dims", _dims({r: cycles[r] - boundaries[r] for r in cycles}))
    # up to six cycles of the reduced union, each of which passes the check
    rep.add("kernel-symmetry-samples", min(6, sum(cycles.values())))
    rep.add("kernel-symmetry-all-true", True)
    rep.emit(args.json)
    return 0


def _reduced_first(data):
    """(data with a zero differential, whether it had to be reduced)."""
    if data.complex.differential.is_zero():
        return data, False
    from .homology import reduce_to_homology
    return reduce_to_homology(data), True


def cmd_phi(args) -> int:
    from . import fixtures, invariants
    _check_orders("phi", args.fixture)
    data, source = _load_input(args)
    data, reduced = _reduced_first(data)
    class_name = args.cls
    if class_name is None:
        if not args.fixture:
            raise UsageError("--class is required for file input")
        role = "vector" if args.mode == "minus" else "functional"
        class_name = fixtures.distinguished_generators(args.fixture).get(role)
        if class_name is None:
            raise UsageError("fixture %s has no distinguished %s; pass --class"
                             % (args.fixture, role))
    idx = _generator_index(data, class_name)
    start = {idx: Fraction(1)}
    u0 = data.u if args.mode == "minus" else data.u.transpose()
    report = invariants.phi_report(u0, start)
    rep = Report("phi")
    rep.add("source", source)
    rep.add("reduced-first", reduced)
    rep.add("mode", args.mode)
    rep.add("class", class_name)
    rep.add("span-dim", report.span_dim)
    rep.add("nilpotent-on-cyclic-subspace", report.nilpotent_on_cycle)
    rep.add("filtration-order", report.filtration_order)
    rep.add("agree", report.agree)
    try:
        rep.add("nilpotency-order-global",
                invariants.nilpotency_order(invariants.n_map(data.u)))
    except invariants.NotNilpotent:
        rep.add("nilpotency-order-global", None)
    rep.emit(args.json)
    return 0


def cmd_h(args) -> int:
    from . import invariants
    from .homology import pair
    _check_orders("h", args.fixture)
    data, source = _load_input(args)
    data, reduced = _reduced_first(data)
    result = invariants.h_invariant(data)
    rep = Report("h")
    rep.add("source", source)
    rep.add("reduced-first", reduced)
    rep.add("dim-functional-span", result.dim_functional_span)
    rep.add("dim-vector-span", result.dim_vector_span)
    rep.add("h", result.h)
    rep.add("mutual-triviality", result.mutual_triviality)
    if not result.mutual_triviality:
        sys.stderr.write("warning: both spans are nonzero; genuine data "
                         "should have at least one trivial\n")
    alpha = dict(data.delta_prime)
    rep.add("delta-on-delta-prime", pair(data.delta, alpha))
    u2 = data.u @ data.u
    rep.add("delta-on-u2-delta-prime", pair(data.delta, u2.apply(alpha)))
    rep.add("triangular-independence-bound",
            invariants.triangular_independence(data.delta, alpha, data.u))
    rep.emit(args.json)
    return 0


def cmd_eta(args) -> int:
    from . import lattice
    w = _class_vector(args.cls)
    if args.blocks is not None and w.blocks != args.blocks:
        raise UsageError("--blocks %d does not match the %d-block class"
                         % (args.blocks, w.blocks))
    lattice.require_member(w)
    rep = Report("eta")
    rep.add("class", args.cls)
    rep.add("blocks", w.blocks)
    rep.add("norm", lattice.norm(w))
    result, listed = lattice._eta_members(w, args.list)
    if not result.extremal:
        sys.stderr.write("warning: eta evaluated at a non-extremal vector\n")
    rep.add("vectors", int(result.count))
    rep.add("count", result.count)
    rep.add("all-in-class", result.all_in_class)
    for i, coords in enumerate(_vector_coords(listed, args.json)):
        rep.add("vector %d" % i, coords)
    rep.emit(args.json)
    return 0


class _MemberTexts(dict):
    """Block member -> its coordinates as the report prints them, each
    member formatted on first use: one string for the text report, the
    per-coordinate list for --json."""

    def __init__(self, as_json: bool):
        super().__init__()
        self.as_json = as_json

    def __missing__(self, block):
        # doubled coordinates: c/2 is an integer when c is even
        coords = [str(c // 2) if c % 2 == 0 else "%d/2" % c for c in block]
        text = self[block] = coords if self.as_json else " ".join(coords)
        return text


def _vector_coords(listed, as_json: bool) -> list:
    """Each listed vector's coordinates as the report prints them.

    listed holds tuples of block members.  They repeat a few members many
    times, so each distinct member is formatted once and a vector is
    joined from its blocks' texts.
    """
    text = _MemberTexts(as_json).__getitem__
    if as_json:
        return [sum(map(text, members), []) for members in listed]
    return [" ".join(map(text, members)) for members in listed]


def cmd_extremal(args) -> int:
    from . import lattice
    w = _class_vector(args.cls)
    rep = Report("extremal")
    rep.add("class", args.cls)
    rep.add("blocks", w.blocks)
    rep.add("member", lattice.is_member(w))
    rep.add("norm", lattice.norm(w))
    rep.add("extremal", lattice.is_extremal(w))
    try:
        rep.add("min-charge-k", lattice.min_charge_k(w))
    except lattice.LatticeError:
        rep.add("min-charge-k", None)
    rep.emit(args.json)
    return 0


def _bound_factor(label, args, letter):
    from . import fixtures
    data, _ = _load_factor(label, args, letter)
    data, _ = _reduced_first(data)
    spec, functional_name = getattr(args, letter), getattr(args, "functional_" + letter)
    f = None
    if functional_name:
        f = {_generator_index(data, functional_name): Fraction(1)}
    elif data.delta:
        f = dict(data.delta)
    elif spec:
        name = fixtures.distinguished_generators(spec).get("functional")
        if name is not None:
            f = {_generator_index(data, name): Fraction(1)}
    if f is None:
        raise UsageError("%s factor has no boundary functional; pass "
                         "--functional-%s GENERATOR" % (label, label[0]))
    return data, f


def cmd_verify_sum_bound(args) -> int:
    from . import connect_sum
    _check_orders("verify-sum-bound", args.a, args.b, args.c)
    a, fa = _bound_factor("left", args, "a")
    b, fb = _bound_factor("right" if not args.c and not args.file_c else "middle",
                          args, "b")
    c = fc = None
    if args.c or args.file_c:
        c, fc = _bound_factor("right", args, "c")
    result = connect_sum.verify_sum_bound(a, b, c, n=args.n, fa=fa, fb=fb, fc=fc)
    rep = Report("verify-sum-bound")
    rep.add("mode", result.mode)
    rep.add("n", result.n)
    rep.add("orders", list(result.orders))
    rep.add("level", result.level)
    rep.add("cycle-ok", result.cycle_ok)
    rep.add("pairing", result.pairing)
    rep.add("witness-values", list(result.witness_values))
    rep.add("expected", result.expected)
    rep.add("product-matches", result.product_matches)
    rep.add("nonzero", result.nonzero)
    rep.emit(args.json)
    return 0 if (result.cycle_ok and result.product_matches) else 1


def cmd_poly_identities(args) -> int:
    from . import polyid
    if args.max_n > MAX_N_CAP:
        raise ValueError("--max-n %d is above the cap of %d" % (args.max_n, MAX_N_CAP))
    rep = Report("poly-identities")
    rep.add("max-n", args.max_n)
    all_ok = True
    for n in range(1, args.max_n + 1):
        t = polyid.verify_telescoping(n)
        rep.add("telescoping n=%d corrected" % n, t.corrected_ok)
        rep.add("telescoping n=%d printed" % n, t.printed_ok)
        all_ok = all_ok and t.corrected_ok
    for n in range(1, min(args.max_n, 3) + 1):
        ok = polyid.verify_triple_identity(n)
        rep.add("triple n=%d" % n, ok)
        all_ok = all_ok and ok
    rep.emit(args.json)
    return 0 if all_ok else 1


def _emit_document(rep: Report, document: str, as_json: bool) -> int:
    """Raw document on stdout in text mode so output redirects to a
    loadable file; the full report shape is still available with --json."""
    if as_json:
        rep.document = document
        rep.emit(True)
    else:
        sys.stdout.write(document)
    return 0


def cmd_fixtures(args) -> int:
    from . import fixtures
    rep = Report("fixtures")
    if args.emit:
        name, order = fixtures.split_fixture_spec(args.emit)
        rep.add("fixture", args.emit)
        rep.add("u-param", args.u_param)
        if order is not None:
            rep.add("order", order)
        data = fixtures.builtin(args.emit, u_param=args.u_param)
        return _emit_document(rep, fixtures.serialize(data), args.json)
    if args.random:
        import random as _random
        rng = _random.Random(args.seed)
        rep.add("random", args.random)
        rep.add("seed", args.seed)
        trailer = "# generated: %s seed %d\n" % (args.random, args.seed)
        if args.random == "admissible":
            data = fixtures.random_admissible(rng)
        elif args.random == "sphere":
            data = fixtures.random_homology_sphere(rng)
        elif args.random == "valid":
            data = fixtures.random_valid(rng)
        else:  # nilpotent
            if args.order is None:
                raise UsageError("--random nilpotent needs --order K")
            data, psi = fixtures.random_nilpotent_phi(rng, args.order)
            names = data.complex.names
            pairs = ["%s:%s" % (names[i], psi[i]) for i in sorted(psi)]
            rep.add("psi", pairs)
            trailer += "# psi %s\n" % " ".join(pairs)
        return _emit_document(rep, fixtures.serialize(data) + trailer, args.json)
    names = fixtures.fixture_names()
    if args.describe:
        base, _ = fixtures.split_fixture_spec(args.describe)
        if base not in names:
            raise UsageError("unknown fixture %r" % (args.describe,))
        names = [base]
    rep.add("fixtures", names)
    for name in names:
        rep.add(name, fixtures.fixture_description(name))
        spec = name + ":1" if name in ("nPplusModel", "NilpotentLadder") else name
        roles = fixtures.distinguished_generators(spec)
        rep.add(name + "-distinguished",
                ["%s=%s" % (k, v if v else "none") for k, v in sorted(roles.items())])
    rep.emit(args.json)
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _add_input_args(p):
    p.add_argument("--fixture", help="builtin fixture name, e.g. Pplus or NilpotentLadder:2")
    p.add_argument("--file", help="path to a fixture document")
    p.add_argument("--u-param", type=int, default=0,
                   help="unconstrained u entry for the P fixtures (default 0)")
    p.add_argument("--json", action="store_true", help="structured output")


def _add_pair_args(p, third=False):
    p.add_argument("--a", help="left factor fixture spec")
    p.add_argument("--b", help="right factor fixture spec")
    p.add_argument("--file-a", help="left factor document path")
    p.add_argument("--file-b", help="right factor document path")
    if third:
        p.add_argument("--c", help="third factor fixture spec")
        p.add_argument("--file-c", help="third factor document path")
    p.add_argument("--u-param", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _capped(command: str) -> str:
    return "Builtin fixture orders above %d are refused." % ORDER_CAPS[command]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floer-workbench",
        description="exact chain-level calculator for u-equipped graded complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural invariants of one input")
    _add_input_args(p)

    p = sub.add_parser("homology", help="graded homology of one input")
    _add_input_args(p)

    p = sub.add_parser("reduce", help="reduce to homology-level data")
    _add_input_args(p)

    p = sub.add_parser("dualize", help="orientation-reversal dual")
    _add_input_args(p)

    p = sub.add_parser("connect-sum", help="four-summand sum complex")
    _add_pair_args(p)
    p.add_argument("--signs", help="five signs, e.g. 1,1,1,1,-1; write "
                   "--signs=-1,1,1,1,-1 when the first is negative")
    p.add_argument("--search", action="store_true",
                   help="enumerate every sign configuration that squares to zero")
    p.add_argument("--homology", action="store_true", help="include homology dims")

    p = sub.add_parser("disjoint-union", help="two-summand union complex")
    _add_pair_args(p)
    p.add_argument("--homology", action="store_true", help="include homology dims")

    p = sub.add_parser("phi", help="span and filtration readings of phi",
                       description=_capped("phi"))
    _add_input_args(p)
    p.add_argument("--class", dest="cls", help="generator name (default: distinguished)")
    p.add_argument("--mode", choices=("plus", "minus"), default="minus",
                   help="minus pairs a vector, plus a functional")

    p = sub.add_parser("h", help="signed span difference of reduced data",
                       description=_capped("h"))
    _add_input_args(p)

    p = sub.add_parser("eta", help="congruent-vector count in the E8-block lattice")
    p.add_argument("--class", dest="cls", required=True,
                   help="w0, w0^n, zero^n (n at most %d), or comma-separated "
                        "coordinates; write --class=-1,... when the first is "
                        "negative" % LATTICE_CAPS["power"])
    p.add_argument("--blocks", type=int, help="expected block count (checked)")
    p.add_argument("--list", action="store_true",
                   help="list the vectors; refused for a class of more than %d"
                        % LATTICE_CAPS["list"])
    p.add_argument("--workers", type=int,
                   help="accepted and ignored: the search runs in one thread; "
                        "kept for existing scripts and due to be removed")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("extremal", help="extremality and minimal charge index")
    p.add_argument("--class", dest="cls", required=True,
                   help="as for eta; write --class=-1,... when the first "
                        "coordinate is negative")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-sum-bound", help="kernel cycle pairing at the shifted level",
                       description=_capped("verify-sum-bound"))
    _add_pair_args(p, third=True)
    p.add_argument("--n", type=_positive_int, help="nilpotency exponent (default: inferred)")
    p.add_argument("--functional-l", dest="functional_a", help="left functional generator")
    p.add_argument("--functional-m", dest="functional_b", help="middle/right functional generator")
    p.add_argument("--functional-r", dest="functional_c", help="right functional generator")

    p = sub.add_parser("poly-identities", help="telescoping and triple identities")
    p.add_argument("--max-n", type=_positive_int, default=5,
                   help="check n = 1..N, N at most %d (default 5)" % MAX_N_CAP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fixtures", help="list, emit, or generate fixture documents")
    p.add_argument("--describe", help="show one fixture")
    p.add_argument("--emit", help="print a builtin as a document")
    p.add_argument("--random", choices=("admissible", "sphere", "valid", "nilpotent"),
                   help="generate a random document")
    p.add_argument("--order", type=int, help="order for --random nilpotent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--u-param", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "reduce": cmd_reduce,
    "dualize": cmd_dualize,
    "connect-sum": cmd_connect_sum,
    "disjoint-union": cmd_disjoint_union,
    "phi": cmd_phi,
    "h": cmd_h,
    "eta": cmd_eta,
    "extremal": cmd_extremal,
    "verify-sum-bound": cmd_verify_sum_bound,
    "poly-identities": cmd_poly_identities,
    "fixtures": cmd_fixtures,
}


# built by main's first call, not at import, and reused by later calls in
# the process: parse_args keeps no state in the parser between calls
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = _HANDLERS[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send the interpreter's final flush
        # to devnull so it cannot raise again (see the `signal` module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except KeyError as exc:
        # a FixtureError comes from fixtures, so fixtures is loaded by then
        fixtures = sys.modules.get(__package__ + ".fixtures")
        if fixtures is None or not isinstance(exc, fixtures.FixtureError):
            raise
        sys.stderr.write("usage error: %s\n" % (exc.args[0] if exc.args else exc,))
        return 2
    except ValueError as exc:  # every domain error of the package is one
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

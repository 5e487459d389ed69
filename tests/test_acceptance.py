"""Acceptance gate: eleven criteria, one pass/fail line each.

Every test prints a single summary line and asserts both the checked
property and its runtime budget.  Run with -s (or read captured output on
failure) to see the lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from floer_workbench.complexes import dualize, u_chain_residual, validate
from floer_workbench.connect_sum import (
    _u_differences,
    build_triple_cycle,
    connected_sum_complex,
    disjoint_union_complex,
    sign_search,
    verify_sum_bound,
)
from floer_workbench.fixtures import (
    builtin,
    fixture_names,
    parse,
    random_admissible,
    random_homology_sphere,
    random_nilpotent_phi,
    random_valid,
    serialize,
)
from floer_workbench.homology import homology, reduce_to_homology
from floer_workbench.invariants import h_invariant, phi_filtration, phi_span
from floer_workbench.lattice import (
    concat,
    eta,
    from_coords,
    is_extremal,
    min_charge_k,
    norm,
    parse_vector,
    same_class,
)
from floer_workbench.linalg import RatMatrix, kernel_basis, vector
from floer_workbench import cli
from markowitz import markowitz_rank


def nonzero_dims(space) -> dict:
    """The nonzero homology dimensions of a GradedVectorSpace, by residue."""
    return {r: n for r, n in sorted(space.dims.items()) if n}


def conclude(num, started, budget, ok, detail):
    elapsed = time.monotonic() - started
    status = "pass" if ok and elapsed < budget else "fail"
    print("criterion %d %s: %s [%.2fs, budget %ds]"
          % (num, status, detail, elapsed, budget))
    assert ok, detail
    assert elapsed < budget, "budget exceeded: %.2fs" % elapsed


def unit(data, name):
    return {data.complex.index_of(name): Fraction(1)}


def test_criterion_01_fixture_validity():
    started = time.monotonic()
    ok = True
    for spec in ("Pplus", "Pminus"):
        data = builtin(spec)
        ok = ok and validate(data).ok
        ok = ok and u_chain_residual(data).is_zero()
    conclude(1, started, 1, ok,
             "both sphere fixtures valid with exact chain relation")


def test_criterion_02_small_connected_sums():
    started = time.monotonic()
    built = connected_sum_complex(builtin("Pplus"), builtin("Pplus"))
    dims = nonzero_dims(homology(built.total))
    ok = dims == {0: 2, 4: 2}
    # iterate through the reduced model fixtures: summing the n-fold model
    # with one more sphere must give the (n+1)-fold answer, which is exactly
    # the dimension profile of the next model
    for n in (2, 3, 4):
        model = builtin("nPplusModel:%d" % (n - 1))
        grown = connected_sum_complex(model, builtin("Pplus"))
        got = nonzero_dims(homology(grown.total))
        ok = ok and got == {0: n, 4: n}
        next_model = builtin("nPplusModel:%d" % n)
        ok = ok and next_model.complex.dims_by_degree() == got
    conclude(2, started, 10, ok,
             "pair sum dims {0:2,4:2}; iteration reaches {0:4,4:4}")


def test_criterion_03_stabilization():
    started = time.monotonic()
    rng = random.Random(20240601)
    checked = 0
    ok = True
    for u_param in (0, 1, 2):
        sphere = builtin("Pplus", u_param=u_param)
        for _ in range(7):
            y = random_admissible(rng)
            before = nonzero_dims(homology(y.complex))
            built = connected_sum_complex(y, sphere)
            ok = ok and nonzero_dims(homology(built.total)) == before
            checked += 1
    ok = ok and checked >= 20
    conclude(3, started, 30, ok,
             "%d random sums with the sphere left dims unchanged" % checked)


def union_dims_oracle(a, b):
    """Graded kernel/cokernel dimensions of the cross map, computed on the
    factor homologies instead of the union complex."""
    ra, rb = reduce_to_homology(a), reduce_to_homology(b)
    na, nb = ra.size, rb.size
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    index = {p: k for k, p in enumerate(pairs)}
    deg = {p: (ra.complex.degrees[p[0]] + rb.complex.degrees[p[1]]) % 8
           for p in pairs}
    entries = {}
    for col, (i, j) in enumerate(pairs):
        for r in range(na):
            c = ra.u[(r, i)]
            if c:
                key = (index[(r, j)], col)
                entries[key] = entries.get(key, Fraction(0)) + c
        for r in range(nb):
            c = rb.u[(r, j)]
            if c:
                key = (index[(i, r)], col)
                entries[key] = entries.get(key, Fraction(0)) - c
    phi = RatMatrix(len(pairs), len(pairs),
                    {k: v for k, v in entries.items() if v})

    def block(rows_deg, cols_deg):
        cols = [k for k, p in enumerate(pairs) if deg[p] == cols_deg]
        rows = [k for k, p in enumerate(pairs) if deg[p] == rows_deg]
        sub = RatMatrix(len(rows), len(cols),
                        {(ri, ci): phi[(r, c)]
                         for ci, c in enumerate(cols)
                         for ri, r in enumerate(rows)
                         if (r, c) in phi.entries})
        return sub, len(rows)

    dims = {}
    for r in range(8):
        ker_block, _ = block((r - 4) % 8, r)
        coker_block, nrows = block((r - 3) % 8, (r + 1) % 8)
        total = len(kernel_basis(ker_block)) + nrows - markowitz_rank(coker_block.entries)
        if total:
            dims[r] = total
    return dims


def test_criterion_04_disjoint_union_decomposition():
    started = time.monotonic()
    rng = random.Random(20240602)
    ok = True
    for _ in range(50):
        a = random_admissible(rng, max_gens=6)
        b = random_admissible(rng, max_gens=6)
        built = disjoint_union_complex(a, b)
        ok = ok and nonzero_dims(homology(built.total)) == union_dims_oracle(a, b)
    conclude(4, started, 30, ok,
             "50 random unions match the kernel/cokernel oracle")


def test_criterion_05_sign_family():
    started = time.monotonic()
    rng = random.Random(20240603)
    inputs = []
    for _ in range(4):
        inputs.append((random_homology_sphere(rng), random_homology_sphere(rng)))
    for _ in range(2):
        inputs.append((random_admissible(rng, max_gens=5),
                       random_homology_sphere(rng)))
    for _ in range(2):
        inputs.append((random_homology_sphere(rng),
                       random_admissible(rng, max_gens=5)))
    for _ in range(2):
        inputs.append((random_admissible(rng, max_gens=5),
                       random_admissible(rng, max_gens=5)))
    ok = len(inputs) == 10
    shapes = set()
    for a, b in inputs:
        accepted = sign_search(a, b)
        ok = ok and accepted
        dims_seen = set()
        for cfg in accepted:
            built = connected_sum_complex(a, b, signs=cfg)
            shapes.add(built.shape)
            d = built.total.differential
            ok = ok and (d @ d).is_zero()
            dims_seen.add(tuple(sorted(
                nonzero_dims(homology(built.total)).items())))
        ok = ok and len(dims_seen) == 1
    ok = ok and {(1, 2, 3, 4), (1, 2, 4), (1, 3, 4), (1, 4)} <= shapes
    conclude(5, started, 30, ok,
             "square-zero and dim-invariance across all accepted signs, "
             "all four shapes")


def test_criterion_06_phi_equivalence():
    started = time.monotonic()
    rng = random.Random(20240604)
    seen = set()
    ok = True
    for i in range(200):
        order = 1 + i % 4
        data, psi = random_nilpotent_phi(rng, order)
        span = phi_span(data.u, psi)
        filt = phi_filtration(data.u, psi)
        ok = ok and span == filt
        seen.add(filt)
    ok = ok and {1, 2, 3, 4} <= seen
    conclude(6, started, 10, ok,
             "span equals filtration on 200 nilpotent samples, orders 1-4")


def test_criterion_07_triple_bound_engine():
    started = time.monotonic()
    ok = True
    applicable = 0
    positive_base_case = False
    for n in (1, 2):
        for ks in itertools.product((1, 2, 3), repeat=3):
            if max(ks) > n or sum(ks) < 2 * n + 1:
                continue
            a, b, c = (builtin("NilpotentLadder:%d" % k) for k in ks)
            wa = vector({a.complex.index_of("z1"): 1})
            wb = vector({b.complex.index_of("z1"): 1})
            wc = vector({c.complex.index_of("z1"): 1})
            alpha = build_triple_cycle(a, b, c, wa, wb, wc, n)
            ok = ok and not _u_differences((a, b, c), alpha)
            report = verify_sum_bound(
                a, b, c, n=n,
                fa=unit(a, "z%d" % ks[0]),
                fb=unit(b, "z%d" % ks[1]),
                fc=unit(c, "z%d" % ks[2]))
            ok = ok and report.level == sum(ks) - 2 * n - 1
            ok = ok and report.cycle_ok and report.product_matches
            expected = Fraction(1, 4)
            for value in report.witness_values:
                expected *= value
            ok = ok and report.pairing == expected and report.pairing != 0
            if n == 1 and ks == (1, 1, 1):
                positive_base_case = report.pairing > 0
            applicable += 1
    ok = ok and applicable == 5 and positive_base_case
    conclude(7, started, 60, ok,
             "%d admissible (k,k',k'',n) combinations, nonzero quarter-product"
             " pairings" % applicable)


def test_criterion_08_polynomial_identities():
    started = time.monotonic()
    from floer_workbench.polyid import verify_telescoping, verify_triple_identity
    ok = True
    printed = []
    for n in range(1, 6):
        report = verify_telescoping(n)
        ok = ok and report.corrected_ok
        printed.append(report.printed_ok)
    triple_ok = all(verify_triple_identity(n) for n in (1, 2, 3))
    ok = ok and triple_ok
    conclude(8, started, 5, ok,
             "telescoping corrected exact for n<=5 (as-printed: %s), triple "
             "identity exact for n<=3" % printed)


def test_criterion_09_lattice():
    started = time.monotonic()
    w0 = parse_vector("w0")
    ok = min_charge_k(w0) == 1
    ok = ok and is_extremal(w0)
    base = eta(w0)
    ok = ok and base.count == 16 and base.count != 0
    for n in (2, 3):
        stacked = concat(*([w0] * n))
        ok = ok and eta(stacked, keep_vectors=False).count == base.count ** n

    # naive grid brute force, one block; a point of another doubled squared
    # length cannot have w0's norm, so its vector is never built
    target = norm(w0)
    target_q = sum(c * c for c in w0.doubled)
    found = 0
    for parity in (0, 1):
        coords = [c for c in range(-4, 5) if abs(c % 2) == parity]
        for combo in itertools.product(coords, repeat=8):
            if sum(combo) % 4 != 0 or sum(c * c for c in combo) != target_q:
                continue
            v = from_coords([Fraction(c, 2) for c in combo])
            if norm(v) == target and same_class(v, w0):
                found += 1
    ok = ok and found == len(base.vectors) == 16
    conclude(9, started, 120, ok,
             "min charge 1, extremal, count 16 with 16^n multiplicativity, "
             "grid agreement")


def test_criterion_10_h_invariant():
    started = time.monotonic()
    plus = builtin("Pplus")
    minus = builtin("Pminus")
    ok = h_invariant(plus).h == -1
    ok = ok and h_invariant(dualize(plus)).h == 1
    ok = ok and h_invariant(minus).h == 1
    for n in (1, 2, 3, 4):
        ok = ok and h_invariant(builtin("nPplusModel:%d" % n)).h == -n
    conclude(10, started, 5, ok,
             "h(P+)=-1, dual and P- give +1, models give -n for n<=4")


def test_criterion_11_io(capsys):
    started = time.monotonic()
    ok = True
    for name in fixture_names():
        try:
            data = builtin(name)
        except KeyError:
            data = builtin(name + ":2")
        ok = ok and parse(serialize(data)) == data
    rng = random.Random(20240605)
    for _ in range(100):
        data = random_valid(rng)
        ok = ok and parse(serialize(data)) == data

    def capture(argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    for argv in (
        ("homology", "--fixture", "NilpotentLadder:2"),
        ("connect-sum", "--a", "Pplus", "--b", "Pminus", "--search"),
        ("phi", "--fixture", "TrefoilLikeSynthetic", "--json"),
    ):
        ok = ok and capture(argv) == capture(argv)
    runs = {capture(("eta", "--class", "w0^2", "--list")) for _ in range(3)}
    ok = ok and len(runs) == 1
    payload = json.loads(capture(("h", "--fixture", "Pplus", "--json"))[1])
    ok = ok and payload["h"] == -1
    conclude(11, started, 10, ok,
             "round trips for fixtures plus 100 random documents, "
             "byte-stable reports")

import itertools
import random
from fractions import Fraction

import pytest

from floer_workbench import cli, connect_sum
from floer_workbench.complexes import GradedComplex
from floer_workbench.connect_sum import (
    DEFAULT_SIGNS,
    SignConfig,
    SignSearchError,
    _u_differences,
    build_pair_cycle,
    build_triple_cycle,
    connected_sum_complex,
    disjoint_union_complex,
    kernel_symmetry_check,
    sign_search,
    verify_sum_bound,
)
from floer_workbench.fixtures import (
    builtin,
    random_admissible,
    random_homology_sphere,
    random_nilpotent_phi,
    serialize,
)
from floer_workbench.homology import (_degree_blocks, _rank_counts, cycle_basis,
                                      homology, reduce_to_homology)
from floer_workbench.invariants import NotNilpotent, n_map
from floer_workbench.linalg import (
    RatMatrix,
    _int_product,
    _row_rank,
    dot,
    kernel_basis,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
)
from cycle_reference import (reference_pair_cycle, reference_shifted_pairing,
                             reference_triple_cycle)
from union_reference import extended_u
from markowitz import markowitz_rank
from square_terms import (constraint_terms, signed_square, square_terms,
                          term_verdicts)


def nonzero_dims(space) -> dict:
    """The nonzero homology dimensions of a GradedVectorSpace, by residue."""
    return {r: n for r, n in sorted(space.dims.items()) if n}


def ladder(k):
    return builtin("NilpotentLadder:%d" % k)


def unit_functional(data, name):
    return {data.complex.index_of(name): Fraction(1)}


# ---------------------------------------------------------------------------
# shape and differential structure


def test_sphere_pair_has_four_summands():
    built = connected_sum_complex(builtin("Pplus"), builtin("Pplus"))
    assert built.shape == (1, 2, 3, 4)
    assert built.total.size == 12  # 4 + 2 + 2 + 4
    d = built.total.differential
    assert (d @ d).is_zero()


def test_mixed_pair_drops_one_theta_summand():
    sphere = builtin("Pplus")
    adm = ladder(1)
    left = connected_sum_complex(adm, sphere)   # theta of the left is absent
    assert left.shape == (1, 2, 4)
    right = connected_sum_complex(sphere, adm)  # theta of the right is absent
    assert right.shape == (1, 3, 4)
    for built in (left, right):
        d = built.total.differential
        assert (d @ d).is_zero()


def test_admissible_pair_keeps_only_tensor_summands():
    built = connected_sum_complex(ladder(1), ladder(2))
    assert built.shape == (1, 4)
    d = built.total.differential
    assert (d @ d).is_zero()


def test_shifted_summand_degrees():
    a = builtin("Pplus")
    built = connected_sum_complex(a, a)
    cx = built.total
    for idx in range(built.offsets[3], built.offsets[4]):
        base = cx.names[idx].split(".", 1)[1]
        l_name, r_name = base.split(".")
        dl = a.complex.degrees[a.complex.index_of(l_name)]
        dr = a.complex.degrees[a.complex.index_of(r_name)]
        assert cx.degrees[idx] == (dl + dr + 3) % 8


def _tag_by_name(name):
    if name.startswith("shift."):
        return 4
    if name.endswith(".theta"):
        return 2
    if name.startswith("theta."):
        return 3
    return 1


def _u_on_left_by_name(built):
    """u (x) I on S1 and S4, placed by generator names alone."""
    pos = {name: p for p, name in enumerate(built.total.names)}
    an, bn = built.left.complex.names, built.right.complex.names
    ent = {}
    for (r, c), v in built.left.u.entries.items():
        for y in bn:
            for prefix in ("", "shift."):
                ent[pos["%s%s.%s" % (prefix, an[r], y)],
                    pos["%s%s.%s" % (prefix, an[c], y)]] = v
    return ent


def test_summand_layout_matches_generator_names():
    """shape, offsets and extended_u agree with the names."""
    rng = random.Random(77)
    makers = (lambda: random_admissible(rng, max_gens=5),
              lambda: random_homology_sphere(rng))
    built_all = []
    for _ in range(6):
        for left, right in itertools.product(makers, repeat=2):
            built_all.append(connected_sum_complex(left(), right()))
    unions = []
    for _ in range(12):
        a = random_admissible(rng, max_gens=5)
        b = random_admissible(rng, max_gens=5)
        unions.append(disjoint_union_complex(a, b))
        unions.append(disjoint_union_complex(reduce_to_homology(a),
                                             reduce_to_homology(b)))
    shapes = set()
    for built in built_all + unions:
        tags = [_tag_by_name(name) for name in built.total.names]
        assert built.shape == tuple(sorted(set(tags)))
        shapes.add(built.shape)
        for t in range(1, 5):
            assert list(range(built.offsets[t - 1], built.offsets[t])) == [
                p for p, g in enumerate(tags) if g == t]
    for built in unions:
        if built.shape == (1, 4):
            assert extended_u(built).entries == _u_on_left_by_name(built)
    # the four connected-sum shapes, unions, and an empty union left by a
    # factor with zero homology
    assert shapes == {(1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4), ()}


def test_p_plus_pair_homology_dims():
    built = connected_sum_complex(builtin("Pplus"), builtin("Pplus"))
    assert nonzero_dims(homology(built.total)) == {0: 2, 4: 2}


def test_model_iteration_grows_linearly():
    sphere = builtin("Pplus")
    for n in (1, 2, 3):
        built = connected_sum_complex(builtin("nPplusModel:%d" % n), sphere)
        dims = nonzero_dims(homology(built.total))
        assert dims == {0: n + 1, 4: n + 1}


def test_stabilization_preserves_homology():
    """Summing with the 2-generator sphere model never changes dims."""
    rng = random.Random(1001)
    for u_param in (0, 1, 2):
        sphere = builtin("Pplus", u_param=u_param)
        for _ in range(7):
            y = random_admissible(rng)
            before = nonzero_dims(homology(y.complex))
            built = connected_sum_complex(y, sphere)
            assert nonzero_dims(homology(built.total)) == before


# ---------------------------------------------------------------------------
# sign families


def test_sign_config_validation():
    with pytest.raises(ValueError):
        SignConfig(2, 1, 1, 1, 1)
    assert DEFAULT_SIGNS.as_tuple() == (1, 1, 1, 1, -1)


def test_records_keep_their_fields_repr_and_properties():
    """The six records, now named tuples: fields, repr, the derived
    properties, SignConfig's defaults and +-1 check, and no assignment."""
    from floer_workbench.homology import GradedVectorSpace
    from floer_workbench.invariants import HReport, PhiReport, h_invariant
    assert repr(DEFAULT_SIGNS) == "SignConfig(s12=1, s13=1, s14=1, s24=1, s34=-1)"
    assert SignConfig(s13=-1).as_tuple() == (1, -1, 1, 1, -1)
    assert type(DEFAULT_SIGNS.as_tuple()) is tuple
    for bad in ((0,), (1, 1, 1, 1, "1"), (1, 1, 1, 1, -2)):
        with pytest.raises(ValueError, match="signs must be"):
            SignConfig(*bad)
    built = connected_sum_complex(builtin("Pplus"), builtin("Pminus"))
    assert built._fields == ("left", "right", "total", "signs", "offsets")
    assert built.shape == (1, 2, 3, 4) and built.signs is DEFAULT_SIGNS
    a = ladder(2)
    report = verify_sum_bound(a, a, fa=unit_functional(a, "z2"), fb=unit_functional(a, "z2"))
    assert report._fields == ("mode", "n", "orders", "level", "cycle_ok", "pairing",
                              "witness_values", "expected", "product_matches")
    assert report.nonzero is bool(report.pairing)
    phi = PhiReport(3, True, 3, True)
    assert (phi.phi, repr(phi)) == (3, "PhiReport(span_dim=3, nilpotent_on_cycle=True, "
                                       "filtration_order=3, agree=True)")
    assert h_invariant(builtin("Pplus")) == HReport(0, 1, -1, True)
    assert repr(h_invariant(builtin("Pplus"))) == (
        "HReport(dim_functional_span=0, dim_vector_span=1, h=-1, mutual_triviality=True)")
    space = homology(builtin("Pplus").complex)
    assert GradedVectorSpace._fields == ("dims", "representatives", "cycles", "boundaries")
    assert sum(space.dims.values()) == 2
    for record, name in ((DEFAULT_SIGNS, "s12"), (built, "signs"), (report, "n"),
                         (phi, "agree"), (space, "dims")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_sign_search_on_delta_free_pair_accepts_everything():
    # with delta = 0 on both factors the two constraint products never
    # activate, so the whole family squares to zero
    accepted = sign_search(builtin("Pplus"), builtin("Pplus"))
    assert len(accepted) == 32
    assert accepted[0] == SignConfig(1, 1, 1, 1, 1)
    assert DEFAULT_SIGNS in accepted


def test_sign_search_with_active_constraints():
    rng = random.Random(321)
    found = 0
    for _ in range(12):
        a = random_homology_sphere(rng)
        b = random_homology_sphere(rng)
        if not (a.delta and a.delta_prime and b.delta and b.delta_prime):
            continue
        found += 1
        accepted = sign_search(a, b)
        assert len(accepted) == 8
        assert DEFAULT_SIGNS in accepted
        for cfg in accepted:
            s12, s13, s14, s24, s34 = cfg.as_tuple()
            assert s12 * s24 == s14
            assert s13 * s34 == -s14
    assert found >= 5


def test_dims_invariant_across_accepted_signs():
    rng = random.Random(555)
    inputs = []
    for _ in range(6):
        inputs.append((random_admissible(rng), builtin("Pplus")))
    for _ in range(4):
        inputs.append((random_homology_sphere(rng),
                       random_homology_sphere(rng)))
    for a, b in inputs:
        accepted = sign_search(a, b)
        assert accepted
        dims_seen = set()
        for cfg in accepted:
            built = connected_sum_complex(a, b, signs=cfg)
            d = built.total.differential
            assert (d @ d).is_zero()
            dims_seen.add(tuple(sorted(homology(built.total).dims.items())))
        assert len(dims_seen) == 1


def test_rejected_signs_fail_square_zero():
    rng = random.Random(88)
    a = b = None
    while True:
        a = random_homology_sphere(rng)
        b = random_homology_sphere(rng)
        if a.delta and a.delta_prime and b.delta and b.delta_prime:
            break
    accepted = set(cfg.as_tuple() for cfg in sign_search(a, b))
    for tup in itertools.product((1, -1), repeat=5):
        if tup in accepted:
            built = connected_sum_complex(a, b, signs=SignConfig(*tup))
            d = built.total.differential
            assert (d @ d).is_zero()
        else:
            with pytest.raises(SignSearchError):
                connected_sum_complex(a, b, signs=SignConfig(*tup))


def seeded_pairs(seed, per_shape=4):
    """Factor pairs of all four summand shapes: sphere or admissible on each
    side, plus builtin spheres with no, one or both boundary functionals."""
    rng = random.Random(seed)
    make = {"s": random_homology_sphere, "a": lambda r: random_admissible(r, max_gens=5)}
    pairs = []
    for shape in ("ss", "sa", "as", "aa"):
        for _ in range(per_shape):
            pairs.append((make[shape[0]](rng), make[shape[1]](rng)))
    spheres = [builtin("Pplus"), builtin("TrefoilLikeSynthetic"), builtin("nPplusModel:2")]
    pairs += [(a, b) for a in spheres for b in spheres]
    pairs += [(builtin("Pminus"), ladder(2)), (ladder(2), builtin("nPplusModel:1"))]
    return pairs


def full_square_accepted(a, b):
    """The configs whose differential, built by one assembly of a and b,
    squares to zero as a full-size product."""
    asm = connect_sum._assembly(a, b, Fraction(2))
    accepted = []
    for tup in itertools.product((1, -1), repeat=5):
        d = asm.differential(SignConfig(*tup))
        if (d @ d).is_zero():
            accepted.append(SignConfig(*tup))
    return accepted


def test_sign_search_matches_full_square_oracle():
    # the oracle builds each configuration's differential and squares it
    for a, b in seeded_pairs(2024):
        expected = full_square_accepted(a, b)
        assert sign_search(a, b) == expected


def test_sum_block_ranks_match_oracles():
    """_row_rank on d's rows of each degree, as _rank_counts takes them,
    against rank-nullity through kernel_basis and the Markowitz oracle on
    the column block: the nPplusModel:k self-sums, which peel completely,
    and the orbit totals of seeded searches of all four summand shapes."""
    totals = []
    for k in range(1, 13):
        model = builtin("nPplusModel:%d" % k)
        totals.append(connected_sum_complex(model, model).total)
    shapes = set()
    for a, b in seeded_pairs(2718, per_shape=2):
        built, _, orbit_totals = connect_sum._search(a, b, DEFAULT_SIGNS)
        shapes.add(built.shape)
        totals += orbit_totals.values()
    assert shapes == {(1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)}
    blocks = 0
    for cx in totals:
        d = cx.differential
        rows = d._row_view()
        for r, cols in _degree_blocks(cx).items():
            below = [line for i, line in rows.items() if cx.degrees[i] == (r - 1) % 8]
            block = d.restrict_columns(cols)
            assert (_row_rank(below) == len(cols) - len(kernel_basis(block))
                    == markowitz_rank(block.entries))
            blocks += 1
    assert blocks > 150


def test_search_totals_match_full_construction_and_homology():
    """Every accepted config of pairs of all four summand shapes: one
    assembly's differential gives connected_sum_complex's total complex, and
    the rank counts agree with homology()'s canonical bases."""
    configs = 0
    for a, b in seeded_pairs(31, per_shape=2):
        asm = connect_sum._assembly(a, b, Fraction(2))
        for cfg in sign_search(a, b):
            total = GradedComplex(asm.names, asm.degrees, asm.differential(cfg))
            assert total == connected_sum_complex(a, b, signs=cfg).total
            assert_rank_counts_match_bases(total)
            configs += 1
    assert configs >= 200


def assert_rank_counts_match_bases(cx):
    cycles, boundaries = _rank_counts(cx)
    space = homology(cx)
    for r in range(8):
        assert cycles[r] == len(space.cycles[r])
        assert boundaries[r] == len(space.boundaries[r])
        assert cycles[r] - boundaries[r] == space.dims[r]


def brute_force_accepted(terms):
    """Each of the 32 configs' signed sum of the square terms, formed anew."""
    accepted = []
    for cfg in itertools.product((1, -1), repeat=5):
        signs = dict(zip(connect_sum.SIGN_NAMES, cfg))
        square = {}
        for m, t in terms.items():
            sign = 1
            for name in m:
                sign *= signs[name]
            square = vec_add(square, vec_scale(sign, t.entries))
        if not square:
            accepted.append(SignConfig(*cfg))
    return accepted


def test_orbit_verdicts_match_every_config():
    sizes = set()
    for a, b in seeded_pairs(4242):
        terms = square_terms(connect_sum._assembly(a, b, Fraction(2)))
        verdicts = connect_sum._orbit_verdicts(a, b)
        assert verdicts == term_verdicts(terms)
        accepted = connect_sum._accepted(verdicts)
        assert accepted == brute_force_accepted(terms)
        sizes.add(len(accepted))
    # one, two and four accepted orbits all occur
    assert sizes == {8, 16, 32}


def zero_generator_factors(seed, count=3):
    """Reductions of acyclic admissible factors: no generators at all."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        reduced = reduce_to_homology(random_admissible(rng, max_gens=5))
        if reduced.size == 0:
            found.append(reduced)
    return found


def test_orbit_verdicts_match_the_full_square_on_all_configs():
    """The factor-level verdict against d @ d of every one of the 32
    configurations, on pairs of all four shapes, builtins with u_param != 0
    and zero-generator factors against spheres with both functionals, where
    the active term has nothing to act on."""
    spheres = [x for x in (random_homology_sphere(random.Random(s)) for s in range(40))
               if x.delta and x.delta_prime][:3]
    zeros = zero_generator_factors(606)
    builtins = [builtin(name, u_param=c) for name in ("Pplus", "Pminus")
                for c in (1, -3, Fraction(1, 2))]
    builtins += [builtin("TrefoilLikeSynthetic"), builtin("nPplusModel:2")]
    pairs = seeded_pairs(5150, per_shape=2)
    pairs += [(x, y) for x in builtins for y in builtins[::2]]
    pairs += [pair for x in spheres for y in builtins for pair in ((x, y), (y, x))]
    pairs += [(z, x) for z in zeros for x in spheres + builtins[:2]]
    pairs += [(x, z) for z in zeros for x in spheres + builtins[:2]]
    pairs += [(z, w) for z in zeros[:2] for w in zeros[:2]]
    rejected = 0
    for a, b in pairs:
        accepted = full_square_accepted(a, b)
        assert connect_sum._accepted(connect_sum._orbit_verdicts(a, b)) == accepted
        rejected += 32 - len(accepted)
    assert len(spheres) == 3 and rejected >= 100


def gauge(cfg, rep, offsets):
    """g_t per generator: the summand signs conjugating D(rep) to D(cfg)."""
    g = (1, cfg.s12 * rep.s12, cfg.s13 * rep.s13, cfg.s14 * rep.s14)
    assert cfg.s24 * rep.s24 == g[1] * g[3]
    assert cfg.s34 * rep.s34 == g[2] * g[3]
    return [g[t] for t in range(4) for _ in range(offsets[t], offsets[t + 1])]


def test_accepted_configs_are_gauge_conjugates_of_their_representative():
    """D(s) = G D(rep) G entry for entry, and every accepted config has its
    representative's rank counts, which match homology()'s bases."""
    conjugated = 0
    for a, b in seeded_pairs(77, per_shape=2):
        asm = connect_sum._assembly(a, b, Fraction(2))
        built, accepted, totals = connect_sum._search(a, b, DEFAULT_SIGNS)
        assert accepted == sign_search(a, b)
        reps = {}
        for cfg in accepted:
            reps.setdefault(connect_sum._orbit_class(cfg), cfg)
        assert set(totals) == set(reps)
        for cfg in accepted:
            rep = reps[connect_sum._orbit_class(cfg)]
            rep_total = totals[connect_sum._orbit_class(cfg)]
            assert rep_total.differential == asm.differential(rep)
            g = gauge(cfg, rep, asm.offsets)
            expected = {(r, c): g[r] * g[c] * v
                        for (r, c), v in rep_total.differential.entries.items()}
            assert asm.differential(cfg).entries == expected
            total = GradedComplex(asm.names, asm.degrees, asm.differential(cfg))
            assert _rank_counts(total) == _rank_counts(rep_total)
            assert_rank_counts_match_bases(total)
            conjugated += cfg != rep
    assert conjugated >= 150


def test_search_certifies_the_reported_config_like_the_full_square():
    for a, b in seeded_pairs(2024, per_shape=1):
        accepted = full_square_accepted(a, b)
        for tup in itertools.product((1, -1), repeat=5):
            cfg = SignConfig(*tup)
            if cfg in accepted:
                built = connect_sum._search(a, b, cfg)[0]
                assert built.total == connected_sum_complex(a, b, signs=cfg).total
                assert built.signs == cfg
            else:
                with pytest.raises(SignSearchError, match="does not square"):
                    connect_sum._search(a, b, cfg)


def test_sum_complexes_above_the_cap_are_refused_before_assembly(monkeypatch):
    # nPplusModel:k has 2k generators, so with Pplus the sum has 10k + 2
    built = []
    original = connect_sum._Assembly
    monkeypatch.setattr(connect_sum, "_Assembly",
                        lambda *args, **kwargs: built.append(args) or original(*args, **kwargs))
    pplus = builtin("Pplus")
    with pytest.raises(ValueError, match="20002 generators, above the cap of 20000"):
        connected_sum_complex(builtin("nPplusModel:2000"), pplus)
    with pytest.raises(ValueError, match="above the cap"):
        sign_search(pplus, builtin("nPplusModel:2000"))
    ladder = builtin("NilpotentLadder:2")
    # NilpotentLadder:k has 2k generators and a union 2 na nb
    with pytest.raises(ValueError, match="20016 generators, above the cap"):
        disjoint_union_complex(builtin("NilpotentLadder:1251"), ladder)
    assert built == []
    assert connected_sum_complex(builtin("nPplusModel:1999"), pplus).total.size == 19992
    assert len(built) == 1


def test_sign_search_builds_no_differential(monkeypatch):
    calls = []
    original = connect_sum._Assembly.differential

    def counting(self, signs):
        calls.append(signs)
        return original(self, signs)

    monkeypatch.setattr(connect_sum._Assembly, "differential", counting)
    a, b = seeded_pairs(7, per_shape=1)[0]
    assert a.delta and a.delta_prime and b.delta and b.delta_prime
    assert len(sign_search(a, b)) == 8
    assert calls == []
    connected_sum_complex(a, b)
    assert calls == [DEFAULT_SIGNS]


def test_square_terms_are_the_two_constraints():
    """T_{s14} = P_A - P_B, T_{s12,s24} = P_B and T_{s13,s34} = P_A, the
    module docstring's proof, checked at full size."""
    allowed = {frozenset({"s14"}), frozenset({"s12", "s24"}), frozenset({"s13", "s34"})}
    both_active = 0
    for a, b in seeded_pairs(99):
        asm = connect_sum._assembly(a, b, Fraction(2))
        terms = square_terms(asm)
        assert set(terms) <= allowed
        if a.delta and a.delta_prime and b.delta and b.delta_prime:
            both_active += 1
            assert set(terms) == allowed
        p_a, p_b = constraint_terms(a, b, asm.size, asm.offsets)
        zero = RatMatrix.zero(asm.size, asm.size)
        assert terms.get(frozenset({"s14"}), zero) == p_a - p_b
        assert terms.get(frozenset({"s12", "s24"}), zero) == p_b
        assert terms.get(frozenset({"s13", "s34"}), zero) == p_a
        for cfg in (DEFAULT_SIGNS, SignConfig(1, 1, 1, 1, 1)):
            d = asm.differential(cfg)
            assert (signed_square(terms, cfg) or zero) == d @ d
    assert both_active >= 3


# ---------------------------------------------------------------------------
# disjoint union


def union_dims_oracle(a, b):
    """Graded ker/coker dimensions of the cross map on factor homologies."""
    ra, rb = reduce_to_homology(a), reduce_to_homology(b)
    na, nb = ra.size, rb.size
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    deg = {p: (ra.complex.degrees[p[0]] + rb.complex.degrees[p[1]]) % 8
           for p in pairs}
    phi_entries = {}
    for col, (i, j) in enumerate(pairs):
        for r in range(na):
            c = ra.u[(r, i)]
            if c:
                phi_entries[(pairs.index((r, j)), col)] = \
                    phi_entries.get((pairs.index((r, j)), col), Fraction(0)) + c
        for r in range(nb):
            c = rb.u[(r, j)]
            if c:
                key = (pairs.index((i, r)), col)
                phi_entries[key] = phi_entries.get(key, Fraction(0)) - c
    phi = RatMatrix(len(pairs), len(pairs),
                    {k: v for k, v in phi_entries.items() if v})

    def graded_block(rows_deg, cols_deg):
        cols = [k for k, p in enumerate(pairs) if deg[p] == cols_deg]
        rows = [k for k, p in enumerate(pairs) if deg[p] == rows_deg]
        sub = RatMatrix(len(rows), len(cols),
                        {(ri, ci): phi[(r, c)]
                         for ci, c in enumerate(cols)
                         for ri, r in enumerate(rows) if (r, c) in phi.entries})
        return sub, len(cols), len(rows)

    dims = {}
    for r in range(8):
        ker_block, ncols, _ = graded_block((r - 4) % 8, r)
        ker_dim = len(kernel_basis(ker_block))
        coker_block, _, nrows = graded_block((r - 3) % 8, (r + 1) % 8)
        coker_dim = nrows - markowitz_rank(coker_block.entries)
        if ker_dim + coker_dim:
            dims[r] = ker_dim + coker_dim
    return dims


def test_union_requires_admissible():
    with pytest.raises(ValueError):
        disjoint_union_complex(builtin("Pplus"), ladder(1))


def test_union_homology_matches_kernel_cokernel_oracle():
    rng = random.Random(777)
    for _ in range(50):
        a = random_admissible(rng)
        b = random_admissible(rng)
        built = disjoint_union_complex(a, b)
        d = built.total.differential
        assert (d @ d).is_zero()
        assert nonzero_dims(homology(built.total)) == union_dims_oracle(a, b)


def _acyclic_admissible(rng):
    """An admissible factor with d != 0 whose reduction has no generators."""
    while True:
        data = random_admissible(rng, max_gens=5)
        if not reduce_to_homology(data).size:
            return data


def union_theorem_pairs(seed):
    """Admissible pairs for the statements disjoint-union reports without
    building the full union: seeded factors, acyclic factors, which reduce
    to no generators, and ladders built with u_param 1 and 2."""
    rng = random.Random(seed)
    pairs = [(random_admissible(rng, max_gens=8), random_admissible(rng, max_gens=8))
             for _ in range(48)]
    acyclic = _acyclic_admissible(rng)
    pairs += [(acyclic, random_admissible(rng, max_gens=6)), (ladder(2), acyclic),
              (acyclic, acyclic)]
    pairs += [(builtin("NilpotentLadder:%d" % k, u_param=p),
               builtin("NilpotentLadder:%d" % kk, u_param=p))
              for p in (1, 2) for k, kk in ((1, 3), (2, 2))]
    return pairs


def test_extended_u_is_chain_map():
    """disjoint-union prints extended-u-commutes as a theorem; u (x) I
    commutes with d on every full union, also by the integer products the
    CLI used to compare."""
    rng = random.Random(31)
    pairs = [(random_admissible(rng), random_admissible(rng)) for _ in range(15)]
    for a, b in pairs + union_theorem_pairs(41):
        built = disjoint_union_complex(a, b)
        ue = extended_u(built)
        d = built.total.differential
        assert (d @ ue - ue @ d).is_zero()
        assert _int_product(d, ue) == _int_product(ue, d)


def test_cli_union_dims_are_the_full_unions(tmp_path, capsys):
    """The dims disjoint-union reads off the reduced factors' union are the
    rank counts of the full union."""
    for i, (a, b) in enumerate(union_theorem_pairs(43)):
        paths = []
        for side, data in (("a", a), ("b", b)):
            paths.append(tmp_path / ("%d%s.fx" % (i, side)))
            paths[-1].write_text(serialize(data))
        assert cli.main(["disjoint-union", "--file-a", str(paths[0]),
                         "--file-b", str(paths[1]), "--homology"]) == 0
        out = capsys.readouterr().out
        cycles, boundaries = _rank_counts(disjoint_union_complex(a, b).total)
        dims = [(r, cycles[r] - boundaries[r]) for r in range(8)]
        want = " ".join("%d:%d" % rd for rd in dims if rd[1]) or "none"
        assert "homology-dims: %s\n" % want in out
        assert "generators: %d\n" % (2 * a.size * b.size) in out


def test_extended_u_squares_to_four_on_p_type_factors():
    # with u^2 = 4 on both factors the extended action satisfies
    # (u~)^2 = 4 on the plain tensor summand
    data = ladder(1)
    n_map = data.u @ data.u - RatMatrix.identity(data.size).scale(4)
    assert (n_map @ n_map).is_zero()  # order 1: u^2 = 4 exactly
    built = disjoint_union_complex(data, data)
    ue = extended_u(built)
    sq = ue @ ue
    four = RatMatrix.identity(built.total.size).scale(4)
    for idx in range(built.offsets[1]):
        col = sq.column(idx)
        assert col == four.column(idx)


def test_extended_u_rejects_other_shapes():
    built = connected_sum_complex(builtin("Pplus"), builtin("Pplus"))
    with pytest.raises(ValueError):
        extended_u(built)


def test_kernel_symmetry_on_reduced_cycles():
    """On the union of reduced factors every S1 difference that
    kernel_symmetry_check tests is zero, so no cycle can fail it."""
    rng = random.Random(2024)
    pairs = [(random_admissible(rng), random_admissible(rng)) for _ in range(12)]
    checked = 0
    for a, b in pairs + union_theorem_pairs(47):
        ra, rb = reduce_to_homology(a), reduce_to_homology(b)
        built = disjoint_union_complex(ra, rb)
        nb, o4 = rb.size, built.offsets[3]
        for r in range(8):
            for z in cycle_basis(built.total, r):
                z1 = {divmod(p, nb): v for p, v in z.items() if p < o4}
                assert _u_differences((ra, rb), z1) == {}
                assert kernel_symmetry_check(built, [z])
                checked += 1
    assert checked >= 200


def test_kernel_symmetry_rejects_non_cycles():
    a = reduce_to_homology(ladder(2))
    built = disjoint_union_complex(a, a)
    # a pure tensor chain outside ker of the cross map is not a cycle here
    target = None
    ue_cols = built.total.differential
    for idx in range(built.offsets[1]):
        z = {idx: Fraction(1)}
        if ue_cols.apply(z):
            target = z
            break
    assert target is not None
    with pytest.raises(ValueError):
        kernel_symmetry_check(built, [target])


def test_kernel_symmetry_accepts_empty_chain():
    built = disjoint_union_complex(ladder(1), ladder(1))
    assert kernel_symmetry_check(built, [{}])


def _u_on_right_by_name(built):
    """I (x) u' on S1 and on S4, placed by generator names alone."""
    pos = {name: p for p, name in enumerate(built.total.names)}
    an, bn = built.left.complex.names, built.right.complex.names
    parts = []
    for prefix in ("", "shift."):
        ent = {}
        for (r, c), v in built.right.u.entries.items():
            for x in an:
                ent[pos["%s%s.%s" % (prefix, x, bn[r])],
                    pos["%s%s.%s" % (prefix, x, bn[c])]] = v
        parts.append(RatMatrix(built.total.size, built.total.size, ent))
    return parts


def _is_boundary_by_rank(built, w):
    """w lies in the image of d: the degree block's rank does not grow
    when w joins its columns (Markowitz elimination, not linalg's)."""
    if not w:
        return True
    degrees = built.total.degrees
    (t,) = {degrees[p] for p in w}
    cols = [c for c, deg in enumerate(degrees) if deg == (t + 1) % 8]
    d = built.total.differential
    block = {(r, k): v for k, c in enumerate(cols) for r, v in d.column(c).items()}
    grown = dict(block)
    grown.update(((r, len(cols)), v) for r, v in w.items())
    return markowitz_rank(block) == markowitz_rank(grown)


def test_kernel_symmetry_matches_rank_oracle():
    """On unreduced unions the placements of u can disagree in homology;
    single cycles and whole lists must get the oracle's answer."""
    rng = random.Random(5)
    answers, list_answers = [], set()
    for _ in range(200):
        built = disjoint_union_complex(random_admissible(rng, max_gens=5),
                                       random_admissible(rng, max_gens=5))
        u_left = RatMatrix(built.total.size, built.total.size,
                           _u_on_left_by_name(built))
        right1, right4 = _u_on_right_by_name(built)
        shifted = {p for p, name in enumerate(built.total.names)
                   if name.startswith("shift.")}
        cycles = [z for r in range(8) for z in cycle_basis(built.total, r)]
        want = []
        for z in cycles:
            w_left = u_left.apply(z)
            w_right = vec_add(right1.apply(z), right4.apply(z))
            # the mixed placement: I (x) u' on S1, u (x) I on S4
            w_mixed = vec_add(right1.apply(z),
                              {p: v for p, v in w_left.items() if p in shifted})
            want.append(_is_boundary_by_rank(built, vec_sub(w_left, w_mixed))
                        and _is_boundary_by_rank(built, vec_sub(w_mixed, w_right)))
        assert [kernel_symmetry_check(built, [z]) for z in cycles] == want
        assert kernel_symmetry_check(built, cycles) == all(want)
        answers += want
        list_answers.add(all(want))
    assert answers.count(False) == 219 and len(answers) == 3106
    assert list_answers == {True, False}


def test_kernel_symmetry_tests_one_s1_difference_per_cycle(monkeypatch):
    """d z4 = X z1 makes the S4 difference a boundary exactly when the S1
    difference is one, so each cycle costs one query: its S1 difference
    (u (x) I - I (x) u') z1, placed on S1.  Dropping the S1 difference and
    keeping the S4 one instead fails here."""
    queried = []
    original = connect_sum.LinearSolver.contains

    def recording(self, target):
        queried.append(target)
        return original(self, target)

    monkeypatch.setattr(connect_sum.LinearSolver, "contains", recording)
    rng = random.Random(5)
    checked = nonzero = 0
    for _ in range(30):
        built = disjoint_union_complex(random_admissible(rng, max_gens=5),
                                       random_admissible(rng, max_gens=5))
        u_left = RatMatrix(built.total.size, built.total.size,
                           _u_on_left_by_name(built))
        right1, _ = _u_on_right_by_name(built)
        o4 = built.offsets[3]
        for z in (z for r in range(8) for z in cycle_basis(built.total, r)):
            z1 = {p: v for p, v in z.items() if p < o4}
            want = vec_sub(u_left.apply(z1), right1.apply(z1))
            del queried[:]
            kernel_symmetry_check(built, [z])
            assert queried == [want]
            checked += 1
            nonzero += bool(want)
    assert checked >= 300 and nonzero >= 50


# ---------------------------------------------------------------------------
# pairing machinery


def test_pair_cycle_lands_in_kernel():
    for k, kp in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        a, b = ladder(k), ladder(kp)
        n = max(k, kp)
        wa = vector({a.complex.index_of("z1"): 1})
        wb = vector({b.complex.index_of("z1"): 1})
        alpha = build_pair_cycle(a, b, wa, wb, n)
        assert alpha, "empty cycle for orders %d, %d" % (k, kp)
        # membership in ker(u x 1 - 1 x u): flatten the tensor-index cycle
        # into the plain-tensor summand, where the union differential is
        # exactly the cross map into the shifted summand
        built = disjoint_union_complex(a, b)
        flat = {i * b.size + j: v for (i, j), v in alpha.items()}
        assert built.total.differential.apply(flat) == {}


def test_triple_cycle_condition_exact():
    for n, ks in [(1, (1, 1, 1)), (2, (2, 2, 2)), (2, (1, 2, 2))]:
        a, b, c = (ladder(k) for k in ks)
        wa = vector({a.complex.index_of("z1"): 1})
        wb = vector({b.complex.index_of("z1"): 1})
        wc = vector({c.complex.index_of("z1"): 1})
        alpha = build_triple_cycle(a, b, c, wa, wb, wc, n)
        assert alpha
        assert not _u_differences((a, b, c), alpha)


def _random_vector(rng, data, degree):
    v = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
         for i in data.complex.indices_in_degree(degree)}
    return {i: q for i, q in v.items() if q} or {i: Fraction(1) for i in v}




def _oracle_factors(rng):
    """Seeded ladders (orders <= 6), random_nilpotent_phi data with
    rational u, and TrefoilLikeSynthetic, in a fixed mix."""
    pool = [ladder(rng.randint(1, 6)) for _ in range(4)]
    pool += [random_nilpotent_phi(rng, rng.randint(1, 4))[0] for _ in range(3)]
    pool.append(builtin("TrefoilLikeSynthetic"))
    return pool


def test_pair_cycle_matches_reference_builder():
    rng = random.Random(1401)
    pool = _oracle_factors(rng)
    nonzero = 0
    for a, b in itertools.product(pool, repeat=2):
        wa = a.u.apply(_random_vector(rng, a, 5))  # has a u-preimage
        wb = _random_vector(rng, b, 1)
        for n in (1, rng.randint(2, 6)):
            alpha = build_pair_cycle(a, b, wa, wb, n)
            assert alpha == reference_pair_cycle(a, b, wa, wb, n)
            nonzero += bool(alpha)
    assert nonzero >= 100


def test_triple_cycle_matches_reference_builder():
    rng = random.Random(1402)
    pool = _oracle_factors(rng)
    nonzero = 0
    for _ in range(24):
        a, b, c = (rng.choice(pool) for _ in range(3))
        wa, wb, wc = (_random_vector(rng, d, 1) for d in (a, b, c))
        for n in (1, rng.randint(2, 6)):
            alpha = build_triple_cycle(a, b, c, wa, wb, wc, n)
            assert alpha == reference_triple_cycle(a, b, c, wa, wb, wc, n)
            nonzero += bool(alpha)
    t = builtin("TrefoilLikeSynthetic")
    w = {t.complex.index_of("y1"): Fraction(1)}
    assert build_triple_cycle(t, t, t, w, w, w, 1) == \
        reference_triple_cycle(t, t, t, w, w, w, 1)
    assert nonzero >= 25


def test_verify_pair_bound_values():
    # level = k + k' - n - 1 with n = max order; the pairing must be half
    # the product of the two witness evaluations
    for k, kp in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)]:
        a, b = ladder(k), ladder(kp)
        result = verify_sum_bound(a, b, fa=unit_functional(a, "z%d" % k),
                                  fb=unit_functional(b, "z%d" % kp))
        assert result.mode == "pair"
        assert result.orders == (k, kp)
        assert result.level == k + kp - result.n - 1
        assert result.cycle_ok
        assert result.product_matches
        assert result.pairing == Fraction(1, 2) * result.witness_values[0] \
            * result.witness_values[1]
        assert result.nonzero


def test_verify_triple_bound_sweep():
    """Criterion sweep: k, k', k'' <= 3 and n <= 2 with every factor's
    nilpotency order at most n; applicable exactly when the level
    k + k' + k'' - 2n - 1 is non-negative."""
    applicable = inapplicable = 0
    for n in (1, 2):
        for ks in itertools.product((1, 2, 3), repeat=3):
            if max(ks) > n:
                continue  # (u^2-4)^n != 0 on some factor
            a, b, c = (ladder(k) for k in ks)
            functionals = dict(zip(
                ("fa", "fb", "fc"),
                (unit_functional(d, "z%d" % k) for d, k in ((a, ks[0]),
                                                            (b, ks[1]),
                                                            (c, ks[2])))))
            level = sum(ks) - 2 * n - 1
            if level < 0:
                inapplicable += 1
                with pytest.raises(ValueError):
                    verify_sum_bound(a, b, c, n=n, **functionals)
                continue
            applicable += 1
            result = verify_sum_bound(a, b, c, n=n, **functionals)
            assert result.mode == "triple"
            assert result.level == level
            assert result.cycle_ok
            assert result.product_matches
            assert result.nonzero
            expected = Fraction(1, 4) * result.witness_values[0] \
                * result.witness_values[1] * result.witness_values[2]
            assert result.pairing == expected
    assert applicable == 5
    assert inapplicable == 4


def test_triple_example_pattern():
    # three order-1 factors at n = 1: level 0 and a positive pairing
    a = builtin("TrefoilLikeSynthetic")
    result = verify_sum_bound(a, a, a)
    assert result.n == 1
    assert result.level == 0
    assert result.pairing == 1
    assert result.witness_values == (4, 1, 1)
    assert result.nonzero


def test_sum_bound_rejects_negative_level():
    a, b, c = ladder(1), ladder(1), ladder(2)
    with pytest.raises(ValueError):
        verify_sum_bound(a, b, c, n=2,
                         fa=unit_functional(a, "z1"),
                         fb=unit_functional(b, "z1"),
                         fc=unit_functional(c, "z2"))


def test_sum_bound_refuses_n_below_a_factors_nilpotency_order():
    # (u^2 - 4) has order 3 on ladder(3), and Pminus's is not nilpotent
    b = ladder(1)
    for a, fa in ((ladder(3), "z3"), (builtin("Pminus"), "rho1")):
        with pytest.raises(ValueError) as info:
            verify_sum_bound(a, b, n=2, fa=unit_functional(a, fa),
                             fb=unit_functional(b, "z1"))
        assert str(info.value) == "(u^2 - 4)^2 does not vanish on the left factor"


def test_sum_bound_library_refuses_negative_n():
    a, b = ladder(2), ladder(1)
    with pytest.raises(ValueError) as info:
        verify_sum_bound(a, b, n=-1, fa=unit_functional(a, "z2"),
                         fb=unit_functional(b, "z1"))
    assert str(info.value) == "negative power"


def test_sum_bound_orders_each_factor_once(monkeypatch):
    """With n inferred, each factor's odd N is built and ordered once; a
    non-nilpotent factor still fails in the inference step."""
    calls = []
    order = connect_sum.nilpotency_order

    def counted(m):
        calls.append(m)
        return order(m)

    monkeypatch.setattr(connect_sum, "nilpotency_order", counted)
    a, b = ladder(2), ladder(3)
    result = verify_sum_bound(a, b, fa=unit_functional(a, "z2"),
                              fb=unit_functional(b, "z3"))
    assert result.n == 3
    assert len(calls) == 2
    pminus = builtin("Pminus")
    with pytest.raises(NotNilpotent):
        verify_sum_bound(pminus, ladder(1), fa=unit_functional(pminus, "rho1"))


def test_sum_bound_never_shifts_the_tensor(monkeypatch):
    """The only slot applications on the tensor are the cycle check's,
    2(m - 1) of them whatever the level: N^level is pulled back onto the
    last functional instead."""
    calls = []
    apply = connect_sum._factor_apply
    monkeypatch.setattr(connect_sum, "_factor_apply",
                        lambda op, axis, t: calls.append(axis) or apply(op, axis, t))
    levels = set()
    for ks in ((3, 3), (5, 5), (4, 6), (2, 2, 2), (4, 4, 4), (6, 6, 5)):
        datas = [ladder(k) for k in ks]
        fs = {name: unit_functional(d, "z%d" % k)
              for name, d, k in zip(("fa", "fb", "fc"), datas, ks)}
        calls.clear()
        result = verify_sum_bound(*datas, **fs)
        assert result.cycle_ok and result.product_matches
        assert len(calls) == 2 * (len(ks) - 1)
        levels.add(result.level)
    assert levels == {1, 2, 3, 4}


def test_sum_bound_pairing_matches_the_tensor_shift(monkeypatch):
    """The pulled-back pairing and witness values against N applied to the
    tensor and to the witnesses, on seeded pairs and triples of ladders,
    random_nilpotent_phi factors and TrefoilLikeSynthetic, n <= 6, with
    random degree-1 functionals."""
    rng = random.Random(3103)
    pool = _oracle_factors(rng)
    built = []
    for name in ("build_pair_cycle", "build_triple_cycle"):
        monkeypatch.setattr(connect_sum, name,
                            lambda *args, build=getattr(connect_sum, name):
                            built.append((args, build(*args))) or built[-1][1])
    checked = {2: 0, 3: 0}
    nonzero = 0
    for _ in range(80):
        m = rng.choice((2, 3))
        datas = [rng.choice(pool) for _ in range(m)]
        fs = [_random_vector(rng, d, 1) for d in datas]
        n = rng.choice((None, rng.randint(1, 6)))
        try:
            result = verify_sum_bound(*datas, n=n, **dict(zip(("fa", "fb", "fc"), fs)))
        except ValueError:
            continue
        args, alpha = built[-1]
        assert result.pairing == reference_shifted_pairing(datas, fs, alpha, result.level)
        witnesses = list(args[m:2 * m])
        if m == 3:  # the triple's first value carries u^2 on its witness
            witnesses[0] = datas[0].u.apply(datas[0].u.apply(witnesses[0]))
        values = []
        for data, f, w, k in zip(datas, fs, witnesses, result.orders):
            n_op = n_map(data.u)
            for _ in range(k - 1):
                w = n_op.apply(w)
            values.append(dot(f, w))
        assert result.witness_values == tuple(values)
        assert result.cycle_ok and result.product_matches
        checked[m] += 1
        nonzero += result.nonzero
    assert min(checked.values()) >= 10 and nonzero >= 20


def test_sum_bound_reduces_inputs_first():
    # a sphere input with a differential must be reduced internally
    rng = random.Random(606)
    a = builtin("TrefoilLikeSynthetic")
    result = verify_sum_bound(a, a)
    assert result.pairing == Fraction(1, 2)

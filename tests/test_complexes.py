import hashlib
import random
from fractions import Fraction

import pytest

from floer_workbench.complexes import (
    FloerData,
    GradedComplex,
    InvalidDataError,
    Kind,
    dualize,
    require_valid,
    structurally_equal,
    u_chain_residual,
    validate,
)
from floer_workbench.fixtures import (builtin, random_admissible,
                                     random_homology_sphere, random_valid)
from floer_workbench.linalg import RatMatrix, vector


def two_gen(deg_a, deg_b, diff_entries=None, u_entries=None,
            delta=None, delta_prime=None, kind=Kind.HOMOLOGY_SPHERE):
    cx = GradedComplex(("a", "b"), (deg_a, deg_b),
                       RatMatrix(2, 2, diff_entries or {}))
    return FloerData(
        complex=cx,
        u=RatMatrix(2, 2, u_entries or {}),
        delta=vector(delta or {}),
        delta_prime=vector(delta_prime or {}),
        kind=kind,
    )


def test_p_fixtures_validate():
    for name in ("Pplus", "Pminus"):
        report = validate(builtin(name))
        assert report.ok, str(report)


def test_generator_names_are_nonempty_and_unbroken():
    for bad in ("", " a", "a b", "a\tb", "a\u00a0b", "a\x1cb"):
        with pytest.raises(ValueError) as info:
            GradedComplex((bad,), (1,), RatMatrix.zero(1, 1))
        assert str(info.value) == \
            "generator names must be nonempty and contain no spaces"
    for good in ("x0_1", "shift.a.b"):
        assert GradedComplex((good,), (1,), RatMatrix.zero(1, 1)).names == (good,)


def test_u_chain_residual_zero_on_fixtures():
    for name in ("Pplus", "Pminus", "TrefoilLikeSynthetic"):
        assert u_chain_residual(builtin(name)).is_zero()


def test_u_chain_relation_with_correction_term():
    # generators a1 (deg 1), b4 (deg 4), c5 (deg 5) with delta(a1) = 2 and
    # delta_prime = b4: the correction (1/2) delta_prime.delta sends a1 to
    # b4, and the commutator du - ud must cancel it exactly.  Here
    # u(a1) = c5 and d(c5) = -b4 give (du - ud)(a1) = -b4.
    names = ("a1", "b4", "c5")
    degrees = (1, 4, 5)
    d = RatMatrix(3, 3, {(1, 2): Fraction(-1)})
    cx = GradedComplex(names, degrees, d)
    delta, delta_prime = vector({0: 2}), vector({1: 1})

    u = RatMatrix(3, 3, {(2, 0): Fraction(1)})
    data = FloerData(cx, u, delta, delta_prime, Kind.HOMOLOGY_SPHERE)
    assert u_chain_residual(data).is_zero()
    assert validate(data).ok, str(validate(data))

    broken = FloerData(cx, RatMatrix.zero(3, 3), delta, delta_prime,
                       Kind.HOMOLOGY_SPHERE)
    residual = u_chain_residual(broken)
    assert residual[(1, 0)] == Fraction(1)
    report = validate(broken)
    assert any(v.invariant == "u-chain-relation" for v in report.violations)


def test_validate_names_each_violation():
    bad_diff = two_gen(0, 1, diff_entries={(1, 0): Fraction(1)})  # raises degree
    report = validate(bad_diff)
    assert not report.ok
    assert any(v.invariant == "differential-degree" for v in report.violations)

    not_square_zero = FloerData(
        complex=GradedComplex(("a", "b", "c"), (2, 1, 0),
                              RatMatrix(3, 3, {(1, 0): Fraction(1),
                                               (2, 1): Fraction(1)})),
        u=RatMatrix.zero(3, 3),
        delta=vector({}),
        delta_prime=vector({}),
        kind=Kind.ADMISSIBLE,
    )
    report = validate(not_square_zero)
    assert any(v.invariant == "differential-squares-to-zero"
               for v in report.violations)

    bad_u = two_gen(0, 4, u_entries={(1, 1): Fraction(1)})  # degree 0, not -4
    assert any(v.invariant == "u-degree" for v in validate(bad_u).violations)

    bad_delta = two_gen(0, 4, delta={1: Fraction(1)})  # supported off degree 1
    assert any(v.invariant == "delta-support" for v in validate(bad_delta).violations)

    bad_dp = two_gen(0, 1, delta_prime={1: Fraction(2)})
    assert any(v.invariant == "delta-prime-support"
               for v in validate(bad_dp).violations)

    leaky = two_gen(1, 4, delta={0: Fraction(1)}, kind=Kind.ADMISSIBLE)
    assert any(v.invariant == "admissible-triviality"
               for v in validate(leaky).violations)


def test_require_valid_raises_with_report():
    bad = two_gen(0, 1, diff_entries={(1, 0): Fraction(1)})
    with pytest.raises(InvalidDataError) as exc:
        require_valid(bad)
    assert exc.value.report.violations


def test_require_valid_validates_each_object_once(monkeypatch):
    from floer_workbench import complexes

    seen = []
    original = complexes.validate
    monkeypatch.setattr(complexes, "validate", lambda data: seen.append(data) or original(data))
    good, twin = builtin("NilpotentLadder:2"), builtin("NilpotentLadder:2")
    assert good == twin and good is not twin
    require_valid(good)
    require_valid(good)
    assert seen == [good]
    require_valid(twin)  # equal, but another object: validated afresh
    assert len(seen) == 2 and seen[1] is twin
    bad = two_gen(0, 1, diff_entries={(1, 0): Fraction(1)})
    for _ in range(2):  # failure leaves no mark
        with pytest.raises(InvalidDataError):
            require_valid(bad)
    assert len(seen) == 4


def test_admissible_commutation():
    rng = random.Random(5150)
    for _ in range(10):
        data = random_admissible(rng)
        assert data.kind is Kind.ADMISSIBLE
        d, u = data.complex.differential, data.u
        assert (d @ u - u @ d).is_zero()
        assert validate(data).ok


def _changed(rng, data):
    """data with one entry of u or of d changed, or one entry added."""
    n, cx, u = data.size, data.complex, data.u
    change_d = rng.random() < 0.5
    entries = dict(cx.differential.entries if change_d else u.entries)
    key = (rng.choice(sorted(entries)) if entries and rng.random() < 0.7
           else (rng.randrange(n), rng.randrange(n)))
    entries[key] = entries.get(key, 0) + rng.choice((1, -1, Fraction(1, 2), Fraction(3, 7)))
    if change_d:
        cx = GradedComplex(cx.names, cx.degrees, RatMatrix(n, n, entries))
    else:
        u = RatMatrix(n, n, entries)
    return FloerData(cx, u, data.delta, data.delta_prime, data.kind)


def _chain_cases():
    """Valid data of both kinds, one-entry changes of it, and admissible
    data given a boundary functional and vector, so delta' . delta != 0."""
    rng = random.Random(1729)
    for _ in range(60):
        data = random_valid(rng)
        yield data
        for _ in range(3):
            yield _changed(rng, data)
        sphere = random_homology_sphere(rng)
        yield sphere
        yield _changed(rng, sphere)
        adm = random_admissible(rng)
        ones = [i for i, deg in enumerate(adm.complex.degrees) if deg == 1]
        fours = [i for i, deg in enumerate(adm.complex.degrees) if deg == 4]
        if ones and fours:
            yield FloerData(adm.complex, adm.u, {rng.choice(ones): Fraction(rng.randint(1, 3))},
                            {rng.choice(fours): Fraction(1, rng.randint(1, 3))}, adm.kind)


def test_chain_relations_match_the_fraction_residual():
    """The integer verdicts equal the Fraction residual's, and a failure is
    described from that residual: the texts hash as they did when both
    relations were decided on Fraction matrices."""
    from floer_workbench import complexes

    texts, verdicts = hashlib.sha256(), {True: 0, False: 0}
    checked = ("u-chain-relation", "admissible-commutation")
    for data in _chain_cases():
        got = [(v.invariant, v.detail) for v in validate(data).violations
               if v.invariant in checked]
        residual = u_chain_residual(data)
        expected = []
        complexes._matrix_zero_check(data.complex, residual, checked[0],
                                     "d u - u d + (1/2) delta_prime . delta != 0", expected)
        if data.kind is Kind.ADMISSIBLE:
            d = data.complex.differential
            complexes._matrix_zero_check(data.complex, d @ data.u - data.u @ d, checked[1],
                                         "admissible data needs d u = u d", expected)
        assert got == [(v.invariant, v.detail) for v in expected]
        verdicts[residual.is_zero()] += 1
        texts.update(repr(got).encode())
    assert min(verdicts.values()) > 50
    assert texts.hexdigest() == (
        "bf04903b22102557c9ff3f27e19be347aaec71783bbe2649087710366b2902c7")


def test_dualize_is_involution():
    rng = random.Random(600)
    for _ in range(12):
        data = random_valid(rng)
        assert dualize(dualize(data)) == data


def test_dualize_swaps_p_orientations():
    dual_plus = dualize(builtin("Pplus"))
    assert validate(dual_plus).ok
    minus = builtin("Pminus")
    # degrees match after duality: {0, 4} <-> {1, 5} under r -> 5 - r
    assert sorted(dual_plus.complex.degrees) == sorted(minus.complex.degrees)
    assert not structurally_equal(builtin("Pplus"), minus)


def test_structurally_equal_ignores_names_and_order():
    data = builtin("Pplus")
    renamed = FloerData(
        complex=GradedComplex(("first", "second"), data.complex.degrees,
                              data.complex.differential),
        u=data.u,
        delta=data.delta,
        delta_prime=data.delta_prime,
        kind=data.kind,
    )
    assert structurally_equal(data, renamed)
    assert renamed != data  # exact equality is name-sensitive


def test_dual_preserves_validity_on_spheres():
    rng = random.Random(17)
    from floer_workbench.fixtures import random_homology_sphere
    for _ in range(8):
        data = random_homology_sphere(rng)
        assert validate(data).ok
        assert validate(dualize(data)).ok

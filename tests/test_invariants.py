import random
from fractions import Fraction

import pytest

from floer_workbench.complexes import dualize
from floer_workbench.fixtures import (
    builtin,
    distinguished_generators,
    fixture_names,
    random_nilpotent_phi,
    random_valid,
)
from floer_workbench.homology import DescentObstruction, reduce_to_homology
from floer_workbench.invariants import (
    NotNilpotent,
    h_invariant,
    nilpotency_order,
    phi_filtration,
    phi_report,
    phi_span,
    triangular_independence,
)
from floer_workbench.linalg import RatMatrix, dot


def test_span_equals_filtration_on_random_nilpotent():
    """Equivalence of the two phi readings, the core property.

    200 random samples spread over nilpotency orders 1 through 4; both
    numbers must agree exactly on every sample.
    """
    rng = random.Random(1234)
    seen_orders = set()
    for i in range(200):
        order = 1 + (i % 4)
        data, psi = random_nilpotent_phi(rng, order)
        s = phi_span(data.u, psi)
        f = phi_filtration(data.u, psi)
        assert s == f, "span %d != filtration %d at order %d" % (s, f, order)
        seen_orders.add(f)
    assert {1, 2, 3, 4} <= seen_orders


def test_phi_report_carries_agreement():
    rng = random.Random(9)
    data, psi = random_nilpotent_phi(rng, 3)
    report = phi_report(data.u, psi)
    assert report.nilpotent_on_cycle
    assert report.agree is True
    assert report.span_dim == report.filtration_order == report.phi


def test_phi_report_surfaces_non_nilpotent_gate():
    # the unconstrained model entry u(rho0) = 0 leaves u^2 - 4 invertible
    # on the span of iterates, so filtration has no meaning there
    data = builtin("Pplus", u_param=0)
    idx = data.complex.index_of("rho4")
    report = phi_report(data.u, {idx: Fraction(1)})
    assert report.span_dim == 1
    assert report.nilpotent_on_cycle is False
    assert report.filtration_order is None
    assert report.agree is None
    assert report.phi == 1


def test_phi_functional_mode_matches_vector_mode_on_dual():
    # phi of a functional against transposed u equals phi of the vector on
    # the dual side; u enters only through even powers so the dual sign
    # flip is invisible
    rng = random.Random(77)
    for _ in range(20):
        data, psi = random_nilpotent_phi(rng, 2)
        vec_phi = phi_report(data.u, psi).phi
        func_phi = phi_report(data.u.transpose(), psi).phi
        dual_u = dualize(data).u
        assert func_phi == phi_report(dual_u.scale(-1), psi).phi
        assert vec_phi >= 1
        assert func_phi >= 1


def test_nilpotency_order_exact_on_ladder():
    for k in (1, 2, 3, 4):
        data = builtin("NilpotentLadder:%d" % k)
        n_map = data.u @ data.u - RatMatrix.identity(data.size).scale(4)
        assert nilpotency_order(n_map) == k


def test_nilpotency_order_rejects_invertible():
    with pytest.raises(NotNilpotent):
        nilpotency_order(RatMatrix.identity(3))


def test_trefoil_like_has_phi_one():
    data = builtin("TrefoilLikeSynthetic")
    idx = data.complex.index_of("y1")
    report = phi_report(data.u, {idx: Fraction(1)})
    assert report.phi == 1
    assert report.agree is True


def test_h_values_on_fixtures():
    assert h_invariant(builtin("Pplus")).h == -1
    assert h_invariant(builtin("Pminus")).h == 1
    for n in range(1, 5):
        assert h_invariant(builtin("nPplusModel:%d" % n)).h == -n


def test_h_mutual_triviality_flag():
    for name in ("Pplus", "Pminus", "TrefoilLikeSynthetic"):
        result = h_invariant(builtin(name))
        assert result.mutual_triviality
        assert result.h == result.dim_functional_span - result.dim_vector_span


def test_h_antisymmetry_under_duality():
    for name in ("Pplus", "Pminus"):
        data = builtin(name)
        assert h_invariant(dualize(data)).h == -h_invariant(data).h


def test_triangular_independence_counts_ladder_steps():
    # delta o (u^2-4)^i applied to alpha stays independent while the
    # ladder has depth left; the count lower-bounds the functional span
    for k in (1, 2, 3):
        data = builtin("NilpotentLadder:%d" % k)
        f = {data.complex.index_of("z%d" % k): Fraction(1)}
        alpha = {data.complex.index_of("z1"): Fraction(1)}
        bound = triangular_independence(f, alpha, data.u)
        assert bound >= 1


def test_phi_span_zero_for_zero_class():
    data = builtin("Pplus")
    assert phi_span(data.u, {}) == 0


def reference_triangular_independence(f, alpha, u0):
    """triangular_independence as it ran every evaluation, with no early
    exit for an empty f or a zero iterate of alpha."""
    u2 = u0 @ u0
    current = dict(alpha)
    for j in range(u0.rows + 1):
        if dot(f, current):
            return j + 1
        current = u2.apply(current)
    return 0


def _triangular_cases():
    """(f, alpha, u) on every builtin at orders 1-16, their duals, and
    seeded reduced data: the CLI's delta and delta_prime, each fixture's
    distinguished generators, and seeded sparse vectors."""
    datas = []
    for name in fixture_names():
        try:
            builtin(name + ":1")
            specs = ["%s:%d" % (name, k) for k in range(1, 17)]
        except (KeyError, ValueError):  # takes no order
            specs = [name]
        for spec in specs:
            data = builtin(spec)
            datas += [(spec, data), (spec, dualize(data))]
    rng = random.Random(2029)
    while len(datas) < 160:
        try:
            datas.append(("seeded", reduce_to_homology(random_valid(rng))))
        except DescentObstruction:
            pass
    for spec, data in datas:
        yield data.delta, data.delta_prime, data.u
        gens = distinguished_generators(spec) if spec != "seeded" else {}
        marked = {role: {data.complex.index_of(g): Fraction(1)}
                  for role, g in gens.items() if g in data.complex.names}
        for f in (data.delta, marked.get("functional", {})):
            for alpha in (data.delta_prime, marked.get("vector", {})):
                yield f, alpha, data.u
        n = data.size
        for _ in range(3):
            f = {i: Fraction(rng.randint(-2, 2)) for i in rng.sample(range(n), min(n, 2))}
            alpha = {i: Fraction(rng.randint(1, 3)) for i in rng.sample(range(n), min(n, 2))}
            yield {i: c for i, c in f.items() if c}, alpha, data.u


def test_triangular_independence_matches_reference_loop(monkeypatch):
    seen = set()
    cases = 0
    for f, alpha, u in _triangular_cases():
        bound = triangular_independence(f, alpha, u)
        assert bound == reference_triangular_independence(f, alpha, u)
        seen.add(min(bound, 2))
        cases += 1
    assert cases >= 500 and seen == {0, 1, 2}
    applied = []
    apply = RatMatrix.apply
    monkeypatch.setattr(RatMatrix, "apply",
                        lambda m, v: applied.append(1) or apply(m, v))
    data = builtin("nPplusModel:16")
    assert data.delta == {}
    assert triangular_independence(data.delta, data.delta_prime, data.u) == 0
    assert applied == []

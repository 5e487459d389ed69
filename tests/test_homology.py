import copy
import importlib
import random
from fractions import Fraction

import pytest

from floer_workbench.complexes import (
    FloerData,
    GradedComplex,
    Kind,
    validate,
)
from floer_workbench.connect_sum import connected_sum_complex
from floer_workbench.fixtures import builtin, random_admissible, random_valid
from floer_workbench.homology import (
    DegreeMismatch,
    DescentObstruction,
    _rank_counts,
    boundary_basis,
    class_coordinates,
    cycle_basis,
    euler_characteristic_mod2,
    homology,
    pair,
    reduce_to_homology,
)
from floer_workbench.linalg import RatMatrix, kernel_basis, vec_add, vector
from markowitz import markowitz_rank


def nonzero_dims(space) -> dict:
    """The nonzero homology dimensions of a GradedVectorSpace, by residue."""
    return {r: n for r, n in sorted(space.dims.items()) if n}


def random_graded_complex(rng, size):
    """A complex with a genuinely nonzero differential: pick degrees, then
    fill admissible entries (degree drop of one) with sparse rationals and
    square-zero enforced by nilpotent staircase layering."""
    degrees = tuple(rng.randrange(8) for _ in range(size))
    entries = {}
    # staircase: only map generator j to i < j, which combined with the
    # degree filter keeps d o d = 0 achievable by rejection
    for _ in range(200):
        entries = {}
        for j in range(size):
            for i in range(size):
                if i == j:
                    continue
                if degrees[i] != (degrees[j] - 1) % 8:
                    continue
                if rng.random() < 0.3:
                    entries[(i, j)] = Fraction(rng.randint(-2, 2))
        m = RatMatrix(size, size, {k: v for k, v in entries.items() if v})
        if (m @ m).is_zero():
            return GradedComplex(tuple("g%d" % k for k in range(size)),
                                 degrees, m)
    raise AssertionError("rejection sampling failed")


def test_p_plus_dims():
    space = homology(builtin("Pplus").complex)
    assert nonzero_dims(space) == {0: 1, 4: 1}


def test_acyclic_pair():
    cx = GradedComplex(("a", "b"), (1, 0),
                       RatMatrix(2, 2, {(1, 0): Fraction(1)}))
    assert sum(homology(cx).dims.values()) == 0


def test_dims_match_rank_nullity_oracle():
    rng = random.Random(912)
    for _ in range(10):
        cx = random_graded_complex(rng, 12)
        space = homology(cx)
        d = cx.differential
        for r in range(8):
            cols = cx.indices_in_degree(r)
            cols_up = cx.indices_in_degree(r + 1)
            # dim ker(d restricted to degree r) - dim im(d from degree r+1)
            sub = RatMatrix(cx.size, len(cols),
                            {(i, k): d[(i, j)] for k, j in enumerate(cols)
                             for i in range(cx.size) if (i, j) in d.entries})
            up = RatMatrix(cx.size, len(cols_up),
                           {(i, k): d[(i, j)] for k, j in enumerate(cols_up)
                            for i in range(cx.size) if (i, j) in d.entries})
            expected = len(kernel_basis(sub)) - markowitz_rank(up.entries)
            assert space.dims[r] == expected


def test_cycles_and_boundaries_nest():
    rng = random.Random(33)
    cx = random_graded_complex(rng, 10)
    for r in range(8):
        cycles = cycle_basis(cx, r)
        bounds = boundary_basis(cx, r)
        assert len(bounds) <= len(cycles)
        for b in bounds:
            assert cx.differential.apply(b) == {}


def test_reduce_fixed_point_and_idempotence():
    data = builtin("Pplus")
    reduced = reduce_to_homology(data)
    assert reduced.complex.differential.is_zero()
    assert nonzero_dims(homology(reduced.complex)) == {0: 1, 4: 1}
    again = reduce_to_homology(reduced)
    assert again.complex.degrees == reduced.complex.degrees
    assert again.u == reduced.u
    assert again.delta == reduced.delta
    assert again.delta_prime == reduced.delta_prime


def test_reduce_output_validates():
    rng = random.Random(4242)
    reduced_count = obstructed = 0
    for _ in range(30):
        data = random_valid(rng)
        try:
            reduced = reduce_to_homology(data)
        except DescentObstruction:
            obstructed += 1
            continue
        reduced_count += 1
        assert validate(reduced).ok, str(validate(reduced))
        assert reduced.complex.differential.is_zero()
        assert (nonzero_dims(homology(data.complex))
                == nonzero_dims(homology(reduced.complex)))
    assert reduced_count >= 10
    assert obstructed >= 1


def test_reduce_preserves_parity_euler():
    rng = random.Random(555)
    for _ in range(15):
        data = random_valid(rng)
        try:
            reduced = reduce_to_homology(data)
        except DescentObstruction:
            continue
        assert (euler_characteristic_mod2(homology(data.complex).dims)
                == euler_characteristic_mod2(reduce_dims(reduced)))


def reduce_dims(data: FloerData) -> dict:
    return homology(data.complex).dims


def test_descent_obstruction_raised():
    # valid sphere with a nonzero composite delta_prime o delta: u is not a
    # chain map (the correction term carries the relation), so reduction
    # must refuse rather than descend u
    cx = GradedComplex(("a1", "b4", "c5"), (1, 4, 5),
                       RatMatrix(3, 3, {(1, 2): Fraction(-1)}))
    data = FloerData(cx, RatMatrix(3, 3, {(2, 0): Fraction(1)}),
                     vector({0: 2}), vector({1: 1}), Kind.HOMOLOGY_SPHERE)
    assert validate(data).ok
    with pytest.raises(DescentObstruction):
        reduce_to_homology(data)


def test_delta_kills_boundaries_after_reduction():
    rng = random.Random(808)
    for _ in range(10):
        data = random_valid(rng)
        d = data.complex.differential
        pulled = d.apply_functional(data.delta)
        assert pulled == {}


def test_pair_kronecker_and_bilinearity():
    f = vector({2: 1})
    assert pair(f, vector({2: 1})) == 1
    assert pair(f, vector({1: 1})) == 0
    assert pair({}, vector({0: 5})) == 0
    rng = random.Random(99)
    for _ in range(10):
        x = vector({rng.randrange(4): Fraction(rng.randint(-3, 3))})
        c = Fraction(rng.randint(1, 5))
        assert pair(f, {k: c * v for k, v in x.items()}) == c * pair(f, x)


def test_pair_degree_guard():
    degrees = {0: 1, 1: 4}
    with pytest.raises(DegreeMismatch):
        pair(vector({0: 1}), vector({1: 1}), degrees=degrees)
    # matching degrees pass through
    assert pair(vector({0: 1}), vector({0: 2}), degrees={0: 1}) == 2


def test_class_coordinates_identifies_homologous_cycles():
    rng = random.Random(19)
    for _ in range(20):
        data = random_valid(rng)
        cx = data.complex
        space = homology(cx)
        from floer_workbench.homology import _homology_solvers
        solvers = _homology_solvers(space)
        for r in range(8):
            cycles = cycle_basis(cx, r)
            bounds = boundary_basis(cx, r)
            if not cycles or not bounds:
                continue
            z = cycles[0]
            z_moved = vec_add(z, bounds[0])
            a = class_coordinates(solvers, z, r)
            b = class_coordinates(solvers, z_moved, r)
            assert a == b
            break


def test_homology_dim_bounded_by_generators():
    rng = random.Random(64)
    for _ in range(10):
        data = random_admissible(rng)
        space = homology(data.complex)
        total = sum(space.dims.values())
        assert total <= data.size
        if data.complex.differential.is_zero():
            assert total == data.size


def _record_eliminations(monkeypatch) -> list:
    """Wrap the block restriction and the eliminators homology() calls; each
    call appends (name, number of columns of the block)."""
    module = importlib.import_module("floer_workbench.homology")
    calls = []
    for name in ("kernel_basis", "image_basis"):
        def counted(m, name=name, original=getattr(module, name)):
            calls.append((name, m.cols))
            return original(m)
        monkeypatch.setattr(module, name, counted)

    def restrict(m, cols, original=RatMatrix.restrict_columns):
        calls.append(("restrict_columns", len(cols)))
        return original(m, cols)
    monkeypatch.setattr(RatMatrix, "restrict_columns", restrict)
    return calls


def _one_pass(cx) -> list:
    """One restriction, one kernel and one image per nonempty degree block."""
    return sorted((name, n) for n in cx.dims_by_degree().values()
                  for name in ("image_basis", "kernel_basis", "restrict_columns"))


def test_homology_eliminates_each_degree_block_once(monkeypatch):
    calls = _record_eliminations(monkeypatch)
    model = builtin("nPplusModel:3")
    self_sum = connected_sum_complex(model, model).total
    ladder = builtin("NilpotentLadder:4").complex
    for cx, blocks in ((self_sum, [18, 18, 24, 24]), (ladder, [4, 4])):
        calls.clear()
        homology(cx)
        assert sorted(cx.dims_by_degree().values()) == blocks
        assert sorted(calls) == _one_pass(cx)


def test_reduce_to_homology_adds_no_second_pass(monkeypatch):
    calls = _record_eliminations(monkeypatch)
    for spec in ("nPplusModel:3", "NilpotentLadder:4"):
        data = builtin(spec)
        calls.clear()
        reduce_to_homology(data)
        assert sorted(calls) == _one_pass(data.complex)
        assert len(calls) == 6


def _assert_counts_match_bases(cx):
    """The rank counts against the canonical bases homology() builds."""
    cycles, boundaries = _rank_counts(cx)
    space = homology(cx)
    for r in range(8):
        assert cycles[r] == len(space.cycles[r])
        assert boundaries[r] == len(space.boundaries[r])
        assert cycles[r] - boundaries[r] == space.dims[r]


def test_rank_counts_match_homology_bases():
    rng = random.Random(1313)
    for _ in range(40):
        _assert_counts_match_bases(random_valid(rng).complex)
        _assert_counts_match_bases(random_admissible(rng).complex)
    for size in range(1, 13):
        _assert_counts_match_bases(random_graded_complex(rng, size))
    for spec in ("Pplus", "nPplusModel:4", "NilpotentLadder:3"):
        _assert_counts_match_bases(builtin(spec).complex)


def test_rank_counts_take_one_rank_per_block(monkeypatch):
    # one rank per nonempty degree block, on d's rows one degree below it;
    # no column block is restricted
    calls = _record_eliminations(monkeypatch)
    module = importlib.import_module("floer_workbench.homology")

    def counted(rows, original=module._row_rank):
        rows = list(rows)
        calls.append(("_row_rank", len(rows)))
        return original(rows)
    monkeypatch.setattr(module, "_row_rank", counted)
    model = builtin("nPplusModel:3")
    cx = connected_sum_complex(model, model).total
    _rank_counts(cx)
    d = cx.differential
    expected = [("_row_rank", sum(1 for r in d._row_view()
                                  if cx.degrees[r] == (deg - 1) % 8))
                for deg in cx.dims_by_degree()]
    assert sorted(calls) == sorted(expected)
    assert len(calls) == 4 and sum(n for _, n in calls) > 0


def test_self_sum_blocks_peel_without_elimination(monkeypatch):
    # every degree block of these self-sums peels completely; the forward
    # loop alone ran 108, 520 and 1300 eliminations on them
    linalg = importlib.import_module("floer_workbench.linalg")
    calls = []
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: calls.append(1))
    for k, generators in ((4, 144), (8, 544), (12, 1200)):
        model = builtin("nPplusModel:%d" % k)
        cx = connected_sum_complex(model, model).total
        cycles, boundaries = _rank_counts(cx)
        assert len(cx.degrees) == generators
        assert cycles[0] - boundaries[0] == cycles[4] - boundaries[4] == 2 * k
        assert calls == []


def test_rank_counts_leave_cached_lines_intact():
    model = builtin("nPplusModel:4")
    rng = random.Random(5)
    for cx in (connected_sum_complex(model, model).total,
               random_admissible(rng).complex, random_graded_complex(rng, 9)):
        d = cx.differential
        before = [copy.deepcopy(x) for x in (d._ints, d._row_view(), d._column_view())]
        _rank_counts(cx)
        assert [d._ints, d._row_view(), d._column_view()] == before


def test_package_attribute_is_the_homology_module():
    # the package re-exports nothing, so no function shadows the module
    import floer_workbench.homology as attribute
    assert attribute is importlib.import_module("floer_workbench.homology")

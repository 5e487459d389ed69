import copy
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from floer_workbench.linalg import (
    LinearSolver,
    RatMatrix,
    _int_product,
    _row_rank,
    dot,
    image_basis,
    invert,
    kernel_basis,
    rank,
    rational,
    rref_rows,
    solve_columns,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
)
from fraction_matmul import (
    fraction_add,
    fraction_apply,
    fraction_entries,
    fraction_image,
    fraction_kernel,
    fraction_matmul,
    fraction_restrict_columns,
    fraction_rref,
    fraction_scale,
    fraction_sub,
    fraction_transpose,
)
from markowitz import forward_rank_reference, markowitz_rank


def dense(rows):
    """The matrix with these rows of entries."""
    return RatMatrix(len(rows), len(rows[0]),
                     {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})


def to_dense(m):
    return [[m[r, c] for c in range(m.cols)] for r in range(m.rows)]


def test_rational_conversion():
    assert rational(3) == Fraction(3)
    assert rational("2/5") == Fraction(2, 5)
    assert rational(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        rational(0.5)


def _reference_rational(value):
    """rational() on strings as it read them through Fraction(str)."""
    text = value.strip()
    if not re.match(r"^-?\d+(/[1-9]\d*)?$", text):
        raise ValueError("not an exact rational literal: %r" % (value,))
    return Fraction(text)


def _outcome(fn, value):
    try:
        q = fn(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(q), q, q.numerator, q.denominator


@pytest.mark.parametrize("text", [
    "-0", "007", " 2 ", "-4/8", "3/06", "1/0", "+1", "\uff11", "\u0661\u0662/\u0663",
    "1" * 30, "-" + "9" * 30 + "/" + "7" * 29, "5" * 5000, "1/" + "3" * 5000,
    "0/5", "-12/18", "\t3/4\u3000", "1/2\n", "1.5", "1e3", "1_000", "0x10",
    "/2", "2/", "--1", "1/-2", "", " ", "\u00bd", "\u00b2",
])
def test_rational_matches_fraction_of_the_text(text):
    assert _outcome(rational, text) == _outcome(_reference_rational, text)


def test_vector_drops_zeros():
    v = vector({0: 1, 1: 0, 2: "3/4"})
    assert v == {0: Fraction(1), 2: Fraction(3, 4)}


def test_vec_arithmetic():
    a = vector({0: 1, 1: 2})
    b = vector({1: -2, 2: 5})
    assert vec_add(a, b) == {0: Fraction(1), 2: Fraction(5)}
    assert vec_sub(a, a) == {}
    assert vec_scale(Fraction(1, 2), a) == {0: Fraction(1, 2), 1: Fraction(1)}
    assert dot(a, b) == Fraction(-4)


def test_rank_hand_cases():
    assert rank(RatMatrix.identity(2)) == 2
    assert rank(RatMatrix.zero(3, 4)) == 0
    assert rank(dense([[1, 2], [2, 4]])) == 1


def test_kernel_hand_cases():
    assert kernel_basis(RatMatrix.identity(3)) == []
    assert len(kernel_basis(RatMatrix.zero(2, 2))) == 2
    (k,) = kernel_basis(dense([[1, 2], [2, 4]]))
    # proportional to (2, -1), echelon-normalized
    assert vec_scale(k[max(k)], {0: Fraction(2), 1: Fraction(-1)}) in (
        k, vec_scale(Fraction(-1), k))
    m = dense([[1, 2], [2, 4]])
    assert m.apply(k) == {}


def test_rank_nullity_random():
    rng = random.Random(20240311)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.4:
                    entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = RatMatrix(rows, cols, entries)
        ker = kernel_basis(m)
        assert markowitz_rank(m.entries) + len(ker) == cols
        for v in ker:
            assert m.apply(v) == {}


def test_rank_invariant_under_row_ops():
    rng = random.Random(77)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = {(i, j): Fraction(rng.randint(-3, 3))
                   for i in range(rows) for j in range(cols)
                   if rng.random() < 0.6}
        m = RatMatrix(rows, cols, entries)
        perm = list(range(rows))
        rng.shuffle(perm)
        scales = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                  for _ in range(rows)]
        shuffled = {(perm[i], j): scales[perm[i]] * c
                    for (i, j), c in entries.items()}
        assert rank(RatMatrix(rows, cols, shuffled)) == markowitz_rank(m.entries)


def test_rank_matches_markowitz_oracle():
    """rank counts the shared eliminator's pivots; Fraction elimination
    with Markowitz pivoting is the independent oracle."""
    rng = random.Random(6174)
    shapes = [(0, 0), (0, 4), (4, 0)] + [(rng.randint(0, 8), rng.randint(0, 8))
                                         for _ in range(297)]
    for rows, cols in shapes:
        lines = []
        while len(lines) < rows:
            kind = rng.random()
            if kind < 0.1:
                line = {}  # zero row
            elif kind < 0.25 and lines:
                line = dict(rng.choice(lines))  # duplicate row
            elif kind < 0.45 and lines:  # dependent row
                a, b = rng.choice(lines), rng.choice(lines)
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                line = vec_add(vec_scale(c, a), vec_scale(rng.randint(-2, 2), b))
            else:
                line = {j: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                        for j in range(cols) if rng.random() < 0.4}
            lines.append(line)
        m = RatMatrix(rows, cols, {(i, j): v for i, line in enumerate(lines)
                                   for j, v in line.items()})
        assert rank(m) == markowitz_rank(m.entries) <= min(rows, cols)


def test_rank_runs_forward_only(monkeypatch):
    """rank keeps no canonical basis: the back-substituting eliminator
    behind rref_rows, kernel_basis and LinearSolver never runs."""
    from floer_workbench import linalg

    def refuse(*args):
        raise AssertionError("rank went through the RREF eliminator")

    monkeypatch.setattr(linalg, "_insert", refuse)
    monkeypatch.setattr(linalg, "_reduce", refuse)
    m = dense([[0, 2, 4, 1], [0, 1, 2, 0], [3, 0, 1, 1], [3, 2, 5, 2]])
    assert rank(m) == markowitz_rank(m.entries) == 3


def _random_line(rng, cols, density):
    line = {}
    for c in cols:
        if rng.random() < density:
            line[c] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return line


def _singleton_chain(rng):
    """Rows that peel completely: row i holds column i and only columns
    below it, so the last live row always holds the largest column alone."""
    n = rng.randint(1, 12)
    rows = []
    for i in range(n):
        line = _random_line(rng, range(i), 0.5)
        line[i] = rng.choice([-3, -1, 1, 2])
        rows.append(line)
    return rows


def _dense_core(rng, n, cols):
    """n >= 2 rows holding every one of cols, some of them combinations of
    the others, so no column is a singleton."""
    rows = []
    while len(rows) < n:
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            x, y = rng.randint(1, 3), rng.choice([-2, -1, 1])
            line = {c: x * a[c] + y * b[c] for c in cols}
            if all(line.values()):
                rows.append(line)
        else:
            rows.append({c: rng.choice([-1, 1]) * rng.randint(1, 9) for c in cols})
    return rows


def _partial_peel(rng):
    """A dense core plus chain rows, each with a private column, that also
    touch the core's columns: the chain peels and the core is eliminated."""
    core_cols = list(range(rng.randint(2, 5)))
    rows = _dense_core(rng, rng.randint(2, 6), core_cols)
    for j in range(rng.randint(1, 6)):
        line = _random_line(rng, core_cols, 0.6)
        line[100 + j] = rng.randint(1, 5)
        rows.append(line)
    rng.shuffle(rows)
    return rows


def _holders(rows):
    """column -> how many of the rows hold it."""
    return Counter(c for line in rows for c in line)


def _no_singleton(rng):
    """Random rows with every column held by at least two of them."""
    rows = [_random_line(rng, range(rng.randint(1, 8)), 0.45)
            for _ in range(rng.randint(2, 9))]
    held = _holders(rows)
    rows = [{c: v for c, v in line.items() if held[c] > 1} for line in rows]
    return [line for line in rows if line]


def _duplicated(rng):
    """Rows, some of them repeated or scaled by a nonzero integer."""
    rows = [_random_line(rng, range(6), 0.4) for _ in range(rng.randint(1, 5))]
    rows = [line for line in rows if line] or [{0: 1}]
    for _ in range(rng.randint(1, 5)):
        k = rng.choice([1, 1, -1, 2, -3])
        rows.append({c: k * v for c, v in rng.choice(rows).items()})
    rng.shuffle(rows)
    return rows


PEEL_KINDS = (_singleton_chain, _partial_peel, _no_singleton, _duplicated)


def _matrix(rows):
    """The matrix with these integer rows, as wide as their largest column."""
    cols = 1 + max((c for line in rows for c in line), default=-1)
    return RatMatrix(len(rows), cols, {(r, c): v for r, line in enumerate(rows)
                                       for c, v in line.items()})


def test_peeled_rank_matches_rank_nullity_and_markowitz():
    """_row_rank against two paths that never peel: rank-nullity through
    the back-substituting kernel_basis, and the Markowitz Fraction oracle."""
    rng = random.Random(2803)
    assert _row_rank([]) == 0
    assert rank(RatMatrix.zero(0, 0)) == rank(RatMatrix.zero(3, 0)) == 0
    for kind in PEEL_KINDS:
        for _ in range(60):
            rows = kind(rng)
            m = _matrix(rows)
            k = _row_rank(rows)
            assert k == m.cols - len(kernel_basis(m)) == markowitz_rank(m.entries)
            assert rank(m) == k
            if kind is _singleton_chain:
                assert k == len(rows)
            if kind is _no_singleton:
                assert 1 not in _holders(rows).values()


def test_peeled_rank_eliminates_only_the_core(monkeypatch):
    """Singleton chains peel with no elimination.  Otherwise _row_rank runs
    exactly the eliminations of the forward loop with no peel
    (tests/markowitz.py's copy) on the rows that do not peel, in their
    order: all of them when no column is a singleton, the dense core of a
    partial peel."""
    from floer_workbench import linalg
    seen = []
    eliminate = linalg._eliminate

    def recording(row, other, pivot):
        seen.append((pivot, len(row)))
        eliminate(row, other, pivot)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    rng = random.Random(4711)
    total = 0
    for kind in PEEL_KINDS[:3]:
        for _ in range(120):
            rows = kind(rng)
            seen.clear()
            if kind is _singleton_chain:
                assert _row_rank(rows) == len(rows)
                assert seen == []
                continue
            core = [line for line in rows if max(line) < 100]  # _partial_peel's
            core_rank, expected = forward_rank_reference(core)
            assert seen == []  # the reference calls the unpatched eliminator
            assert _row_rank(rows) == core_rank + len(rows) - len(core)
            assert seen == expected
            total += len(expected)
    assert total > 400


def test_rank_leaves_cached_lines_intact():
    """The peel reads a matrix's cached integer lines and never changes
    one: the entries and both line views are as they were."""
    rng = random.Random(99)
    for kind in PEEL_KINDS:
        for _ in range(10):
            m = _matrix(kind(rng))
            before = [copy.deepcopy(x) for x in (m._ints, m._row_view(), m._column_view())]
            rank(m)
            assert [m._ints, m._row_view(), m._column_view()] == before


def test_matmul_and_power():
    m = dense([[0, 1], [4, 0]])
    sq = m @ m
    assert sq == RatMatrix.identity(2).scale(4)


def _random_sparse(rng, rows, cols, density):
    """Entries over denominators 1, 2, 3, 6 and 7, inserted in shuffled order."""
    keys = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < density]
    rng.shuffle(keys)
    return {key: Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3, 6, 7]))
            for key in keys}


def _product_cases():
    """240 seeded products plus empty shapes.  Where k >= 2, the right
    factor's row 1 is c times its row 0 and the left factor carries
    -a[r, 0] / c at (r, 1) on some rows, so those products cancel to zero
    partway through or entirely."""
    rng = random.Random(1968)
    cases = [((0, 0), (0, 0)), ((0, 3), (3, 2)), ((3, 0), (0, 4)), ((2, 3), (3, 0))]
    cases += [((rng.randint(1, 7), k), (k, rng.randint(1, 7)))
              for k in (rng.randint(1, 7) for _ in range(240))]
    for (ra, k), (_, cb) in cases:
        left = _random_sparse(rng, ra, k, rng.random())
        right = _random_sparse(rng, k, cb, rng.random())
        if k >= 2:
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 7]))
            right = {key: v for key, v in right.items() if key[0] != 1}
            right.update({(1, j): c * v for (i, j), v in list(right.items()) if i == 0})
            for r in range(ra):
                if (r, 0) in left and rng.random() < 0.7:
                    left[r, 1] = -left[r, 0] / c
        yield RatMatrix(ra, k, left), RatMatrix(k, cb, right)


def test_matmul_matches_fraction_reference():
    """The integer product keeps the Fraction loop's entries and their
    insertion order, including keys popped at zero and inserted again."""
    vanished = 0
    for a, b in _product_cases():
        got = a @ b
        assert list(got.entries.items()) == list(fraction_matmul(a.entries, b.entries).items())
        assert all(type(v) is Fraction and v for v in got.entries.values())
        vanished += len({(r, c) for (r, k) in a.entries for (kk, c) in b.entries
                         if k == kk}) - len(got.entries)
    assert vanished > 100  # the cases do exercise cancellation

    # (0, 0) gets 1/2, then -1/2 (popped), then 1/3 after (0, 1) went in
    a = RatMatrix(1, 3, {(0, 0): Fraction(1, 2), (0, 1): 1, (0, 2): Fraction(1, 3)})
    b = RatMatrix(3, 2, {(0, 0): 1, (1, 0): Fraction(-1, 2), (1, 1): 1, (2, 0): 1})
    assert list((a @ b).entries.items()) == [((0, 1), Fraction(1)),
                                             ((0, 0), Fraction(1, 3))]
    assert (a @ RatMatrix(3, 2, {(0, 0): 2, (1, 0): -1})).is_zero()


# values as the constructor reads them, non-canonical strings among them
_ODD_LITERALS = ["2/4", "-0", "0/5", "-6/4", "14/7", "3/9"]


def _seeded_raw(rng, rows, cols):
    """Constructor input over denominators 1, 2, 3, 6 and 7, inserted in
    shuffled order, with ints, zeros and non-canonical strings."""
    keys = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < 0.5]
    rng.shuffle(keys)
    raw = {}
    for key in keys:
        roll = rng.random()
        if roll < 0.15:
            raw[key] = rng.choice(_ODD_LITERALS)
        elif roll < 0.3:
            raw[key] = rng.randint(-3, 3)
        else:
            raw[key] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6, 7]))
    return raw


def _assert_matches(m, rows, cols, entries):
    """m holds exactly these Fraction entries, in this order, over the
    canonical denominator."""
    assert (m.rows, m.cols) == (rows, cols)
    assert list(m.entries.items()) == list(entries.items())
    assert all(type(v) is Fraction and v for v in m.entries.values())
    assert m.den == math.lcm(*[v.denominator for v in entries.values()])
    assert m == RatMatrix(rows, cols, entries)


def test_integer_form_matches_fraction_reference():
    """entries, ==, scale, transpose, +, -, @, restrict_columns,
    kernel_basis, image_basis, apply, apply_functional and column agree
    with the Fraction reference on 320 seeded matrices; a literal the
    constructor refuses is refused alike."""
    rng = random.Random(1968_04)
    for case in range(320):
        rows, cols, inner = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        raw, raw_b, raw_c = (_seeded_raw(rng, rows, cols), _seeded_raw(rng, rows, cols),
                             _seeded_raw(rng, cols, inner))
        if case % 40 == 0 and raw:
            raw[rng.choice(list(raw))] = "3/06"
            with pytest.raises(ValueError):
                fraction_entries(raw)
            with pytest.raises(ValueError):
                RatMatrix(rows, cols, raw)
            continue
        ref, ref_b, ref_c = fraction_entries(raw), fraction_entries(raw_b), fraction_entries(raw_c)
        m, b, c = RatMatrix(rows, cols, raw), RatMatrix(rows, cols, raw_b), RatMatrix(cols, inner, raw_c)
        _assert_matches(m, rows, cols, ref)
        # equal by value, whatever the order and spelling of the input
        respelled = {key: str(v) for key, v in reversed(list(ref.items()))}
        assert m == RatMatrix(rows, cols, respelled)
        assert (m == b) == (ref == ref_b)
        k = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 6, 7]))
        _assert_matches(m.scale(k), rows, cols, fraction_scale(ref, k))
        _assert_matches(-m, rows, cols, fraction_scale(ref, Fraction(-1)))
        _assert_matches(m.transpose(), cols, rows, fraction_transpose(ref))
        _assert_matches(m + b, rows, cols, fraction_add(ref, ref_b))
        _assert_matches(m - b, rows, cols, fraction_sub(ref, ref_b))
        _assert_matches(m - m, rows, cols, {})
        _assert_matches(m @ c, rows, inner, fraction_matmul(ref, ref_c))
        picked = rng.sample(range(cols), rng.randint(0, cols))
        _assert_matches(m.restrict_columns(picked), rows, len(picked),
                        fraction_restrict_columns(ref, picked))
        assert kernel_basis(m) == fraction_kernel(ref, cols)
        assert image_basis(m) == fraction_image(ref, cols)
        # Fraction vectors in and out, through the integer line views
        v = {j: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for j in range(cols)}
        f = {i: Fraction(rng.randint(-3, 3), rng.choice([1, 3, 7])) for i in range(rows)}
        for got, expected in ((m.apply(v), fraction_apply(ref, v)),
                              (m.apply_functional(f), fraction_apply(fraction_transpose(ref), f)),
                              *[(m.column(j), fraction_apply(ref, {j: Fraction(1)}))
                                for j in range(cols)]):
            assert got == expected and all(type(x) is Fraction for x in got.values())


def _seeded_square(rng, n, den):
    """A sparse n x n matrix with entries p/den, p in -3..3."""
    return RatMatrix(n, n, {(rng.randrange(n), rng.randrange(n)):
                            Fraction(rng.randint(-3, 3), den)
                            for _ in range(rng.randint(0, 2 * n))})


def test_integer_commutation_matches_fraction_products():
    """Both products' accumulators share den_a * den_b, so comparing them
    decides a @ b == b @ a; polynomials in one matrix give commuting pairs."""
    rng = random.Random(2718)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 7)
        den_a, den_b = rng.choice((1, 2, 3, 6, 7)), rng.choice((1, 2, 3, 6, 7))
        a = _seeded_square(rng, n, den_a)
        if rng.random() < 0.5:
            b = _seeded_square(rng, n, den_b)
        else:  # c0 + c1 a + c2 a^2, which commutes with a
            c0, c1, c2 = [Fraction(rng.randint(-3, 3), den_b) for _ in range(3)]
            b = (RatMatrix.identity(n).scale(c0) + a.scale(c1)) + (a @ a).scale(c2)
        verdict = _int_product(a, b) == _int_product(b, a)
        assert verdict == (a @ b == b @ a)
        seen[verdict] += 1
        den = a.den * b.den
        assert {k: Fraction(v, den) for k, v in _int_product(a, b).items()} == (a @ b).entries
    assert min(seen.values()) > 100


def test_rank_of_block_with_cached_integer_form():
    """A column block of a matrix whose integer row view is cached: rank
    agrees with the Fraction/Markowitz oracle on both."""
    rng = random.Random(6174)
    for m, _ in _product_cases():
        m._row_view()
        picked = rng.sample(range(m.cols), rng.randint(0, m.cols))
        block = m.restrict_columns(picked)
        assert rank(block) == markowitz_rank(block.entries)
        assert rank(m) == markowitz_rank(m.entries)


def test_internal_matrices_skip_coercion(monkeypatch):
    """Matrices built from other matrices' entries never call rational()."""
    from floer_workbench import connect_sum, fixtures, linalg

    a, b = fixtures.builtin("nPplusModel:2"), fixtures.builtin("Pplus")
    m = dense([[1, "1/2", 0], [0, 3, "-2/7"], [5, 0, 1]])
    calls = []
    original = linalg.rational
    monkeypatch.setattr(linalg, "rational", lambda v: calls.append(v) or original(v))
    m @ m
    m - m.transpose()
    m.restrict_columns([2, 0])
    asm = connect_sum._Assembly(a, b, theta_right=True, theta_left=True,
                                u_scale=Fraction(2))
    asm.differential(connect_sum.DEFAULT_SIGNS)
    assert calls == []


def test_public_constructor_checks_entries():
    with pytest.raises(TypeError):
        RatMatrix(2, 2, {(0, 0): 0.5})
    with pytest.raises(IndexError):
        RatMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        RatMatrix(-1, 2)
    assert RatMatrix(1, 2, {(0, 0): 0, (0, 1): "3/6"}).entries == {(0, 1): Fraction(1, 2)}


def test_solve_and_invert():
    m = dense([[2, 1], [1, 1]])
    b = vector({0: 3, 1: 2})
    x = solve_columns(m, b)
    assert x is not None
    assert m.apply(x) == b
    assert solve_columns(dense([[1, 2], [2, 4]]), vector({0: 0, 1: 1})) is None
    inv = invert(m)
    assert m @ inv == RatMatrix.identity(2)
    with pytest.raises(ValueError):
        invert(dense([[1, 2], [2, 4]]))


def test_image_basis_spans_columns():
    m = dense([[1, 2, 3], [0, 0, 1]])
    img = image_basis(m)
    assert len(img) == markowitz_rank(m.entries) == 2


def test_rref_rows_idempotent():
    rows = [vector({0: 2, 1: 4}), vector({0: 1, 1: 2, 2: 1})]
    once = rref_rows(rows)
    assert rref_rows(once) == once


def test_cached_line_views_match_dense():
    rng = random.Random(4096)
    for _ in range(30):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = RatMatrix(rows, cols, {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for i in range(rows) for j in range(cols)
                                   if rng.random() < 0.5})
        d = to_dense(m)
        v = {j: Fraction(rng.randint(-3, 3)) for j in range(cols) if rng.random() < 0.6}
        f = {i: Fraction(rng.randint(-3, 3)) for i in range(rows) if rng.random() < 0.6}
        for _ in range(2):  # the second pass reads the cached views
            assert m.columns() == [m.column(j) for j in range(cols)]
            for j in range(cols):
                assert m.column(j) == {i: d[i][j] for i in range(rows) if d[i][j]}
            assert m.apply(v) == vector({i: sum(d[i][j] * c for j, c in v.items())
                                         for i in range(rows)})
            assert m.apply_functional(f) == vector({j: sum(c * d[i][j] for i, c in f.items())
                                                    for j in range(cols)})
            picked = rng.sample(range(cols), rng.randint(0, cols))
            sub = m.restrict_columns(picked)
            assert to_dense(sub) == [[row[j] for j in picked] for row in d]
        if cols:
            m.column(0).clear()  # callers get copies, never the cached view
            assert m.column(0) == {i: d[i][0] for i in range(rows) if d[i][0]}


def test_zero_dimension_edges():
    empty = RatMatrix.zero(0, 3)
    assert rank(empty) == 0
    assert len(kernel_basis(empty)) == 3
    tall = RatMatrix.zero(3, 0)
    assert kernel_basis(tall) == []


# ---------------------------------------------------------------------------
# the fraction-free eliminator against the plain-Fraction routine it replaced


def _random_eliminator_input(rng):
    """Sparse rational rows with negative and non-integer entries, plus
    zero rows, duplicates and combinations of earlier rows."""
    cols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 9)):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            ca = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            cb = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            rows.append(vec_add(vec_scale(ca, a), vec_scale(cb, b)))
        else:
            rows.append({j: Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                                     rng.choice([1, 1, 2, 3, 7, 12]))
                         for j in range(cols) if rng.random() < 0.45})
    return cols, rows


def test_eliminator_matches_fraction_reference():
    rng = random.Random(19680101)
    for _ in range(300):
        cols, rows = _random_eliminator_input(rng)
        expected = fraction_rref(rows)
        got = rref_rows(rows)
        assert got == expected
        assert all(type(v) is Fraction for row in got for v in row.values())
        # the output is canonical: independent of the order of the rows
        assert rref_rows(reversed(rows)) == expected
        m = RatMatrix(len(rows), cols,
                      {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})
        assert kernel_basis(m) == fraction_kernel(m.entries, m.cols)
        assert image_basis(m) == fraction_rref(m.columns())


def test_eliminator_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1968)
    for _ in range(40):
        cols, rows = _random_eliminator_input(rng)
        if not rows:
            continue
        dense_rows = [[sympy.Rational(row[j].numerator, row[j].denominator) if j in row else 0
                       for j in range(cols)] for row in rows]
        reduced, _ = sympy.Matrix(dense_rows).rref()
        expected = [{j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(reduced.row(i)) if x}
                    for i in range(reduced.rows)]
        assert rref_rows(rows) == [row for row in expected if row]


# ---------------------------------------------------------------------------
# LinearSolver on the integer basis against the Fraction solver it replaced


class _ReferenceSolver:
    """Incremental Gaussian elimination over Fraction, as LinearSolver was
    before it moved onto the shared integer eliminator; kept here only as
    the oracle."""

    def __init__(self):
        self._pivots = []  # (pivot index, reduced vector, expression over added ids)
        self._added = 0

    @property
    def dim(self):
        return len(self._pivots)

    def _reduce(self, v):
        rem = dict(v)
        expr = {}
        for pivot, vec, vec_expr in self._pivots:
            coeff = rem.get(pivot)
            if coeff:
                for idx, val in vec.items():
                    s = rem.get(idx, 0) - coeff * val
                    if s:
                        rem[idx] = s
                    else:
                        rem.pop(idx, None)
                for idx, val in vec_expr.items():
                    s = expr.get(idx, 0) + coeff * val
                    if s:
                        expr[idx] = s
                    else:
                        expr.pop(idx, None)
        return rem, expr

    def add(self, v):
        rem, used = self._reduce(v)
        this_id = self._added
        self._added += 1
        if not rem:
            return None
        pivot = min(rem)
        inv = 1 / rem[pivot]
        rem = {idx: inv * val for idx, val in rem.items()}
        expr = {this_id: inv}
        for idx, val in used.items():
            s = expr.get(idx, 0) - inv * val
            if s:
                expr[idx] = s
            else:
                expr.pop(idx, None)
        self._pivots.append((pivot, rem, expr))
        return rem

    def contains(self, target):
        rem, _ = self._reduce(target)
        return not rem

    def express(self, target):
        rem, expr = self._reduce(target)
        if rem:
            return None
        return expr


def test_linear_solver_matches_fraction_reference():
    rng = random.Random(1968)
    for _ in range(400):
        _, vectors = _random_eliminator_input(rng)
        _, extra = _random_eliminator_input(rng)
        solver, reference = LinearSolver(), _ReferenceSolver()
        added = []
        for v in vectors + [{}]:
            got = solver.add(v)
            assert got == reference.add(v)
            assert got is None or all(type(x) is Fraction for x in got.values())
            assert solver.dim == reference.dim
            added.append(v)
            # targets: each added vector, the empty vector, random vectors
            # and combinations of the added ones, in and out of the span
            targets = [v, {}] + extra[:3]
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in added]
            combo = {}
            for c, w in zip(coeffs, added):
                combo = vec_add(combo, vec_scale(c, w))
            targets.append(combo)
            for target in targets:
                assert solver.contains(target) == reference.contains(target)
                expr = solver.express(target)
                assert expr == reference.express(target)
                if expr is not None:
                    total = {}
                    for k, c in expr.items():
                        total = vec_add(total, vec_scale(c, added[k]))
                    assert total == vector(target)

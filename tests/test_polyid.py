"""The two symbolic identities behind the telescoping cycle constructions.

Both are exact statements about commuting polynomial variables, so the
checks expand everything and compare coefficient dictionaries.  The oracle
here evaluates both sides in plain integers instead: a polynomial of degree
at most d in each variable that vanishes on a grid of d + 1 points per
variable is zero (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1).
"""

import itertools

import pytest

from floer_workbench.polyid import (
    _add,
    _mul,
    _powers,
    verify_telescoping,
    verify_triple_identity,
)


def _vanishes_on_grid(f, degrees) -> bool:
    """f vanishes on range(d + 1) for each variable's degree bound d."""
    grid = itertools.product(*[range(d + 1) for d in degrees])
    return all(f(*point) == 0 for point in grid)


def _telescoping(n, shift):
    """Both sides' difference with the second exponent n - shift - i:
    degree at most 2n + 2 in x and in y for shift 0 or 1."""
    def f(x, y):
        a, b = x * x - 4, y * y - 4
        total = sum(a ** i * b ** (n - shift - i) for i in range(n))
        return a ** n - b ** n - (x - y) * (x + y) * total
    return f, (2 * n + 2, 2 * n + 2)


def _triple(n):
    """Both sides' difference; degree at most 4n in x and 2n in y and z.
    The double sum is the product of its sums over i and over j."""
    def f(x, y, z):
        a, b, c = x * x - 4, y * y - 4, z * z - 4
        total = (sum(a ** i * b ** (n - 1 - i) for i in range(n))
                 * sum(a ** j * c ** (n - 1 - j) for j in range(n)))
        return ((a ** n - b ** n) * (a ** n - c ** n)
                - (x - y) * (x - z) * (x + y) * (x + z) * total)
    return f, (4 * n, 2 * n, 2 * n)


def test_corrected_exponent_form_holds_through_five():
    for n in range(1, 6):
        report = verify_telescoping(n)
        assert report.n == n
        assert report.corrected_ok


def test_as_printed_exponent_form_fails():
    # with the inner exponent n - i instead of n - 1 - i the degrees
    # overshoot, and the mismatch shows up for every n
    for n in range(1, 6):
        assert not verify_telescoping(n).printed_ok


def test_triple_identity_holds_through_three():
    for n in range(1, 4):
        assert verify_triple_identity(n)


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        verify_telescoping(0)
    with pytest.raises(ValueError):
        verify_triple_identity(-1)


def test_poly_arithmetic_basics():
    x, y = {(1, 0, 0): 1}, {(0, 1, 0): 1}
    assert _mul(_add(x, y), _add(x, y, -1)) == _add(_mul(x, x), _mul(y, y), -1)
    assert _add(x, x, -1) == {}
    assert _powers(x, 3) == [{(0, 0, 0): 1}, x, _mul(x, x), _mul(_mul(x, x), x)]
    acc = _mul(x, y)
    assert _mul(x, y, acc) is acc and acc == {(1, 1, 0): 2}


def test_grid_corrected_telescoping_vanishes():
    for n in range(1, 11):
        assert _vanishes_on_grid(*_telescoping(n, 1)), n


def test_grid_printed_telescoping_is_nonzero():
    for n in range(1, 11):
        assert not _vanishes_on_grid(*_telescoping(n, 0)), n


def test_grid_triple_identity_vanishes():
    for n in range(1, 4):
        assert _vanishes_on_grid(*_triple(n)), n


def test_grid_outcomes_match_symbolic_checks():
    for n in range(1, 13):
        report = verify_telescoping(n)
        assert report.corrected_ok == _vanishes_on_grid(*_telescoping(n, 1)), n
        assert report.printed_ok == _vanishes_on_grid(*_telescoping(n, 0)), n
        assert verify_triple_identity(n) == _vanishes_on_grid(*_triple(n)), n

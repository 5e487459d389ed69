"""Exact trivariate polynomial identities behind the cycle constructions.

The cycle builders in connect_sum rely on two factorization identities for
commuting variables x, y, z.  This module checks them symbolically, on
polynomials with integer coefficients, so the matrix-level code can lean on
them.  The first identity is usually quoted with the second exponent written
as n - i; the correct exponent is n - 1 - i, and verify_telescoping reports
the status of both versions side by side.

A polynomial is a dict {(i, j, k): c} from the exponents of x, y and z to a
nonzero int coefficient.  Each of x^2-4, y^2-4 and z^2-4 is raised once per
check into a list of its powers, read as A[i] for a^i.
"""

from __future__ import annotations

from collections import namedtuple

_ONE = {(0, 0, 0): 1}
_X, _Y, _Z = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    """p + sign * q."""
    out = dict(p)
    for key, c in q.items():
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _mul(p: dict, q: dict, out: dict = None) -> dict:
    """p * q, added into out when given."""
    out = {} if out is None else out
    for (a1, b1, c1), v in p.items():
        for (a2, b2, c2), w in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            s = out.get(key, 0) + v * w
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _powers(p: dict, n: int) -> list:
    """[p^0, p^1, ..., p^n]."""
    out = [_ONE]
    for _ in range(n):
        out.append(_mul(out[-1], p))
    return out


def _sq(v: dict) -> dict:
    """v^2 - 4."""
    return _add(_mul(v, v), _ONE, -4)


# n: int, corrected_ok: bool, printed_ok: bool
TelescopeReport = namedtuple("TelescopeReport", "n corrected_ok printed_ok")


def verify_telescoping(n: int) -> TelescopeReport:
    """Check (x^2-4)^n - (y^2-4)^n = (x-y)(x+y) sum_i (x^2-4)^i (y^2-4)^(n-1-i).

    Also evaluates the variant with the second exponent n - i, which fails
    for every n >= 1; the report carries both outcomes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    A, B = _powers(_sq(_X), n), _powers(_sq(_Y), n)
    lhs = _add(A[n], B[n], -1)
    factor = _mul(_add(_X, _Y, -1), _add(_X, _Y))

    corrected, printed = {}, {}
    for i in range(n):
        _mul(A[i], B[n - 1 - i], corrected)
        _mul(A[i], B[n - i], printed)

    return TelescopeReport(
        n=n,
        corrected_ok=(lhs == _mul(factor, corrected)),
        printed_ok=(lhs == _mul(factor, printed)),
    )


def verify_triple_identity(n: int) -> bool:
    """Check the two-variable product form used by the triple cycle:

    ((x^2-4)^n - (y^2-4)^n) ((x^2-4)^n - (z^2-4)^n)
      = (x-y)(x-z)(x+y)(x+z) sum_{i,j} (x^2-4)^(i+j) (y^2-4)^(n-1-i) (z^2-4)^(n-1-j)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    A = _powers(_sq(_X), max(n, 2 * n - 2))
    B, C = _powers(_sq(_Y), n), _powers(_sq(_Z), n)
    lhs = _mul(_add(A[n], B[n], -1), _add(A[n], C[n], -1))
    factor = _mul(_mul(_add(_X, _Y, -1), _add(_X, _Z, -1)),
                  _mul(_add(_X, _Y), _add(_X, _Z)))
    total = {}
    for i in range(n):
        for j in range(n):
            _mul(_mul(A[i + j], B[n - 1 - i]), C[n - 1 - j], total)
    return lhs == _mul(factor, total)

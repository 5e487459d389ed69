"""Exact trivariate polynomial identities behind the cycle constructions.

The cycle builders in connect_sum rely on two factorization identities for
commuting variables x, y, z.  This module checks them symbolically over Q so
the matrix-level code can lean on them.  The first identity is usually quoted
with the second exponent written as n - i; the correct exponent is n - 1 - i,
and verify_telescoping reports the status of both versions side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import rational


class Poly:
    """Polynomial in x, y, z with Fraction coefficients.

    Backed by a dict mapping exponent triples to nonzero coefficients.
    Supports just what the identity checks need: ring operations, powers,
    and exact equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, val in (terms or {}).items():
            q = rational(val)
            if q:
                clean[tuple(key)] = q
        self.terms = clean

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "Poly":
        key = [0, 0, 0]
        key[axis] = 1
        return cls({tuple(key): 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for key, val in other.terms.items():
            s = terms.get(key, 0) + val
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc = {}
        for (a1, b1, c1), v in self.terms.items():
            for (a2, b2, c2), w in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return Poly(acc)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for key in sorted(self.terms):
            bits.append("%s*x^%d*y^%d*z^%d" % ((self.terms[key],) + key))
        return "Poly(" + " + ".join(bits) + ")"


X = Poly.variable(0)
Y = Poly.variable(1)
Z = Poly.variable(2)
FOUR = Poly.constant(4)


def _sq(p: Poly) -> Poly:
    return p * p - FOUR


@dataclass
class TelescopeReport:
    n: int
    corrected_ok: bool
    printed_ok: bool


def verify_telescoping(n: int) -> TelescopeReport:
    """Check (x^2-4)^n - (y^2-4)^n = (x-y)(x+y) sum_i (x^2-4)^i (y^2-4)^(n-1-i).

    Also evaluates the variant with the second exponent n - i, which fails
    for every n >= 1; the report carries both outcomes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = _sq(X), _sq(Y)
    lhs = a ** n - b ** n
    factor = (X - Y) * (X + Y)

    corrected = Poly()
    for i in range(n):
        corrected = corrected + (a ** i) * (b ** (n - 1 - i))
    printed = Poly()
    for i in range(n):
        printed = printed + (a ** i) * (b ** (n - i))

    return TelescopeReport(
        n=n,
        corrected_ok=(lhs == factor * corrected),
        printed_ok=(lhs == factor * printed),
    )


def verify_triple_identity(n: int) -> bool:
    """Check the two-variable product form used by the triple cycle:

    ((x^2-4)^n - (y^2-4)^n) ((x^2-4)^n - (z^2-4)^n)
      = (x-y)(x-z)(x+y)(x+z) sum_{i,j} (x^2-4)^(i+j) (y^2-4)^(n-1-i) (z^2-4)^(n-1-j)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b, c = _sq(X), _sq(Y), _sq(Z)
    lhs = (a ** n - b ** n) * (a ** n - c ** n)
    factor = (X - Y) * (X - Z) * (X + Y) * (X + Z)
    total = Poly()
    for i in range(n):
        for j in range(n):
            total = total + (a ** (i + j)) * (b ** (n - 1 - i)) * (c ** (n - 1 - j))
    return lhs == factor * total

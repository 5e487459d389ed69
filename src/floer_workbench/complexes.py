"""Z/8-graded chain complexes with a degree -4 map and boundary functionals.

The central object is FloerData: a graded complex together with an
endomorphism u of degree -4, a functional delta supported on degree-1
generators, and a distinguished degree-4 vector delta_prime.  The four pieces
are tied together by the chain relation

    d u - u d + (1/2) delta_prime . delta = 0

where delta_prime . delta is the rank-one composite C_1 -> Q -> C_4.  Data
flagged as admissible must carry vanishing delta and delta_prime, in which
case u commutes with the differential on the nose.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from .linalg import RatMatrix, Vector, _int_product, outer, vector

DEGREE_MOD = 8
DUAL_DEGREE_SUM = 5
DELTA_DEGREE = 1
DELTA_PRIME_DEGREE = 4


class Kind(enum.Enum):
    HOMOLOGY_SPHERE = "homology_sphere"
    ADMISSIBLE = "admissible"


def _frozen_setattr(self, name, value):
    raise AttributeError("cannot assign to field %r" % (name,))


def _frozen_delattr(self, name):
    raise AttributeError("cannot delete field %r" % (name,))


class GradedComplex:
    """Finite free complex over Q with generators graded mod 8.

    Column j of the differential is the boundary of generator j.  The
    constructor checks shape, name uniqueness, and degree range; homological
    laws (degree -1 homogeneity, squaring to zero) are the validator's job.
    Immutable and equal by value; a plain class, so that loading this module
    does not load dataclasses.
    """

    __slots__ = ("names", "degrees", "differential")

    def __init__(self, names, degrees, differential: RatMatrix):
        names = tuple(names)
        degrees = tuple([int(d) for d in degrees])
        n = len(names)
        if len(degrees) != n:
            raise ValueError("names and degrees disagree in length")
        if len(set(names)) != n:
            raise ValueError("duplicate generator names")
        for name in names:
            if name.split() != [name]:
                raise ValueError("generator names must be nonempty and contain no spaces")
        for d in degrees:
            if not isinstance(d, int) or not 0 <= d < DEGREE_MOD:
                raise ValueError("degrees must be integers in [0, %d)" % DEGREE_MOD)
        if differential.rows != n or differential.cols != n:
            raise ValueError("differential shape does not match generator count")
        for name, value in zip(self.__slots__, (names, degrees, differential)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, names: tuple, degrees: tuple,
                 differential: RatMatrix) -> "GradedComplex":
        """The complex on parts known to pass the constructor's checks, such
        as those a sum assembly builds from valid factors: names and degrees
        as tuples, taken as they are."""
        cx = object.__new__(cls)
        for name, value in zip(cls.__slots__, (names, degrees, differential)):
            object.__setattr__(cx, name, value)
        return cx

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __repr__(self) -> str:
        return "%s(names=%r, degrees=%r, differential=%r)" % (
            type(self).__qualname__, self.names, self.degrees, self.differential)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.names, self.degrees, self.differential)
                == (other.names, other.degrees, other.differential))

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("no generator named %r" % (name,)) from None

    def dims_by_degree(self) -> dict:
        dims = {}
        for d in self.degrees:
            dims[d] = dims.get(d, 0) + 1
        return {d: dims[d] for d in sorted(dims)}

    def indices_in_degree(self, r: int) -> list:
        r %= DEGREE_MOD
        return [i for i, d in enumerate(self.degrees) if d == r]


class FloerData:
    """A graded complex plus (u, delta, delta_prime, kind).

    delta is a functional and delta_prime a vector, both index -> Fraction
    with zeros dropped.  Immutable and equal by value, like GradedComplex;
    _valid is require_valid's mark, which takes no part in equality.
    """

    __slots__ = ("complex", "u", "delta", "delta_prime", "kind", "_valid")

    def __init__(self, complex: GradedComplex, u: RatMatrix, delta=None,
                 delta_prime=None, kind: Kind = Kind.HOMOLOGY_SPHERE):
        n = complex.size
        if u.rows != n or u.cols != n:
            raise ValueError("u shape does not match generator count")
        delta, delta_prime = vector(delta or {}), vector(delta_prime or {})
        for v in (delta, delta_prime):
            for idx in v:
                if not isinstance(idx, int) or not 0 <= idx < n:
                    raise ValueError("functional/vector index out of range")
        for name, value in (("complex", complex), ("u", u), ("delta", delta),
                            ("delta_prime", delta_prime), ("kind", kind)):
            object.__setattr__(self, name, value)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __repr__(self) -> str:
        return "%s(complex=%r, u=%r, delta=%r, delta_prime=%r, kind=%r)" % (
            type(self).__qualname__, self.complex, self.u, self.delta,
            self.delta_prime, self.kind)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.complex, self.u, self.delta, self.delta_prime, self.kind)
                == (other.complex, other.u, other.delta, other.delta_prime, other.kind))

    @property
    def size(self) -> int:
        return self.complex.size


class Violation(namedtuple("Violation", "invariant detail")):
    __slots__ = ()

    def __str__(self):
        return "%s: %s" % (self.invariant, self.detail)


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    __slots__ = ()

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


class InvalidDataError(ValueError):
    """Raised when an operation requires data that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def _entry_names(cx: GradedComplex, key) -> str:
    r, c = key
    return "%s <- %s" % (cx.names[r], cx.names[c])


def _degree_check(cx: GradedComplex, m: RatMatrix, shift: int, label: str, out: list):
    bad = []
    for (r, c) in sorted(m._ints):
        if cx.degrees[r] != (cx.degrees[c] + shift) % DEGREE_MOD:
            bad.append(_entry_names(cx, (r, c)))
    if bad:
        out.append(Violation(label, "entries off degree: " + ", ".join(bad[:6])))


def _matrix_zero_check(cx: GradedComplex, m: RatMatrix, label: str, detail: str, out: list):
    if not m.is_zero():
        keys = sorted(m._ints)[:6]
        shown = ", ".join("(%s) = %s" % (_entry_names(cx, k), m[k]) for k in keys)
        out.append(Violation(label, "%s; nonzero at %s" % (detail, shown)))


def u_chain_residual(data: FloerData) -> RatMatrix:
    """d u - u d + (1/2) delta_prime . delta, which must vanish."""
    n = data.size
    d = data.complex.differential
    composite = outer(data.delta_prime, data.delta, n, n)
    return d @ data.u - data.u @ d + composite.scale(Fraction(1, 2))


def _chain_relations(data: FloerData) -> tuple:
    """(d u = u d, u_chain_residual(data) = 0), decided on integer products.

    d @ u and u @ d share the denominator den = d.den * u.den of their
    integer products, so d u - u d vanishes where their integer accumulators
    agree, and the residual vanishes when they agree off the support of
    delta_prime . delta and, at each key of it, (du - ud) / den plus half
    the composite's entry is zero.  Fractions are formed at those keys only.
    """
    d, u = data.complex.differential, data.u
    du, ud = _int_product(d, u), _int_product(u, d)
    commutes = du == ud
    if not (data.delta and data.delta_prime):
        return commutes, commutes
    den = d.den * u.den
    chain_ok = True
    for r, a in data.delta_prime.items():
        for c, b in data.delta.items():
            key = (r, c)
            if Fraction(du.pop(key, 0) - ud.pop(key, 0), den) + a * b / 2:
                chain_ok = False
    return commutes, chain_ok and du == ud


def validate(data: FloerData) -> ValidationReport:
    """Check every structural law of FloerData; report all failures at once."""
    cx = data.complex
    out = []
    d = cx.differential
    _degree_check(cx, d, -1, "differential-degree", out)
    _matrix_zero_check(cx, d @ d, "differential-squares-to-zero", "d o d != 0", out)
    _degree_check(cx, data.u, -4, "u-degree", out)

    bad = sorted(i for i in data.delta if cx.degrees[i] != DELTA_DEGREE)
    if bad:
        out.append(Violation("delta-support",
                             "delta must live on degree-%d generators, found %s"
                             % (DELTA_DEGREE, ", ".join(cx.names[i] for i in bad[:6]))))
    bad = sorted(i for i in data.delta_prime if cx.degrees[i] != DELTA_PRIME_DEGREE)
    if bad:
        out.append(Violation("delta-prime-support",
                             "delta_prime must live in degree %d, found %s"
                             % (DELTA_PRIME_DEGREE, ", ".join(cx.names[i] for i in bad[:6]))))

    pulled = d.apply_functional(data.delta)
    if pulled:
        names = ", ".join(cx.names[i] for i in sorted(pulled)[:6])
        out.append(Violation("delta-annihilates-boundaries", "delta o d != 0 at " + names))
    bd = d.apply(data.delta_prime)
    if bd:
        names = ", ".join(cx.names[i] for i in sorted(bd)[:6])
        out.append(Violation("delta-prime-is-cycle", "d(delta_prime) != 0 at " + names))

    # both relations are decided on integer products; the Fraction residual
    # is built only to describe a failure
    commutes, chain_ok = _chain_relations(data)
    if not chain_ok:
        _matrix_zero_check(cx, u_chain_residual(data), "u-chain-relation",
                           "d u - u d + (1/2) delta_prime . delta != 0", out)

    if data.kind is Kind.ADMISSIBLE:
        if data.delta or data.delta_prime:
            out.append(Violation("admissible-triviality",
                                 "admissible data must have delta = 0 and delta_prime = 0"))
        if not commutes:
            _matrix_zero_check(cx, d @ data.u - data.u @ d, "admissible-commutation",
                               "admissible data needs d u = u d", out)

    return ValidationReport(ok=not out, violations=out)


def require_valid(data: FloerData) -> None:
    """Raise InvalidDataError unless data passes validate().

    An object that passes is marked and not validated again, since its
    pieces never change after construction; the mark lives on that object
    only, so an equal but distinct object is validated afresh, and one that
    fails raises on every call.
    """
    if getattr(data, "_valid", False):
        return
    report = _validate_and_mark(data)
    if not report.ok:
        raise InvalidDataError(report)


def _validate_and_mark(data: FloerData) -> ValidationReport:
    """validate(data), leaving require_valid's mark on data when it passes."""
    report = validate(data)
    if report.ok:
        object.__setattr__(data, "_valid", True)
    return report


def dualize(data: FloerData) -> FloerData:
    """Regrade by k -> (5 - k) mod 8 and transpose everything.

    The differential transposes, u transposes with a sign flip, and delta
    and delta_prime trade places (a vector becomes a functional on the dual
    and vice versa).  The sign on u is forced: transposing the chain
    relation d u - u d + (1/2) delta_prime . delta = 0 reverses the
    commutator but not the correction term, so without the flip the dual of
    data with both delta and delta_prime nonzero would violate the relation.
    Even powers of u are all that any invariant reads, so the flip is
    otherwise invisible.  Applying dualize twice returns the original data
    exactly.  The degree sum 5 is the one under which the degree-1/degree-4
    support conventions for delta and delta_prime are swapped into each
    other.
    """
    cx = data.complex
    degrees = tuple([(DUAL_DEGREE_SUM - d) % DEGREE_MOD for d in cx.degrees])
    dual_cx = GradedComplex(cx.names, degrees, cx.differential.transpose())
    return FloerData(
        complex=dual_cx,
        u=data.u.transpose().scale(-1),
        delta=dict(data.delta_prime),
        delta_prime=dict(data.delta),
        kind=data.kind,
    )


def structurally_equal(a: FloerData, b: FloerData) -> bool:
    """Equality after sorting generators by (degree, name); names ignored.

    Used to compare data that should agree up to relabeling, such as the
    dual of one builtin fixture against another.
    """
    if a.size != b.size or a.kind is not b.kind:
        return False

    def normal(d: FloerData):
        order = sorted(range(d.size), key=lambda i: (d.complex.degrees[i], d.complex.names[i]))
        pos = {old: new for new, old in enumerate(order)}

        def remap_matrix(m: RatMatrix) -> tuple:
            return m.den, {(pos[r], pos[c]): v for (r, c), v in m._ints.items()}

        def remap_vec(v: Vector) -> Vector:
            return {pos[i]: val for i, val in v.items()}

        degrees = tuple([d.complex.degrees[i] for i in order])
        return (degrees, remap_matrix(d.complex.differential), remap_matrix(d.u),
                remap_vec(d.delta), remap_vec(d.delta_prime))

    return normal(a) == normal(b)

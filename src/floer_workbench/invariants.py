"""Numerical invariants of reduced data: the two phi readings and h.

phi has two equivalent faces on a class psi: the dimension of the span of
the even u-iterates of psi, and the least k with (u^2 - 4)^k psi = 0.  They
agree whenever (u^2 - 4) is nilpotent on the cyclic subspace generated by
psi; phi_report reads both, and that gate, off one walk under u^2 - 4.

h compares two spans built from the boundary functionals of reduced data:
the even u-pullbacks of delta against the even u-iterates of delta_prime(1).
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import FloerData
from .linalg import LinearSolver, RatMatrix, Vector, dot


class NotNilpotent(ValueError):
    """(u^2 - 4) fails to be nilpotent where the filtration reading needs it."""


def n_map(u0: RatMatrix) -> RatMatrix:
    """The filtration operator N = u^2 - 4."""
    return u0 @ u0 - RatMatrix.identity(u0.rows).scale(4)


def nilpotency_order(m: RatMatrix) -> int:
    """Least k >= 0 with m^k = 0; NotNilpotent if there is none."""
    if m.rows != m.cols:
        raise ValueError("nilpotency of a non-square matrix")
    power = RatMatrix.identity(m.rows)
    for k in range(m.rows + 1):
        if power.is_zero():
            return k
        power = power @ m
    # A nilpotent matrix vanishes by the ambient dimension, so this is final.
    raise NotNilpotent("matrix power %d is still nonzero" % (m.rows + 1,))


def _span_of_iterates(op: RatMatrix, start: Vector) -> tuple:
    """(Krylov span dimension, first dependent iterate) of start under op."""
    solver = LinearSolver()
    current = dict(start)
    while solver.add(current) is not None:
        current = op.apply(current)
    return solver.dim, current


def phi_span(u0: RatMatrix, psi: Vector) -> int:
    """dim span{psi, u^2 psi, u^4 psi, ...}.

    The iteration stops at the first dependent vector; the span is invariant
    under u^2 from that point on.
    """
    return _span_of_iterates(u0 @ u0, psi)[0]


def phi_filtration(u0: RatMatrix, psi: Vector) -> int:
    """Least k with (u^2 - 4)^k psi = 0.

    Raises NotNilpotent when no k up to the ambient dimension works, which
    is exactly failure of nilpotency on the cyclic subspace of psi.
    """
    op = n_map(u0)
    current = dict(psi)
    k = 0
    while current:
        if k > u0.rows:
            raise NotNilpotent("(u^2 - 4)^k psi never vanishes")
        current = op.apply(current)
        k += 1
    return k


class PhiReport(namedtuple("PhiReport",
                           "span_dim nilpotent_on_cycle filtration_order agree")):
    """filtration_order and agree are None when the nilpotency gate fails."""

    __slots__ = ()

    @property
    def phi(self) -> int:
        return self.span_dim


def phi_report(u0: RatMatrix, psi: Vector) -> PhiReport:
    """Both phi readings plus the nilpotency gate, from one walk of psi
    under N = u^2 - 4.  As u^(2j) = sum_i C(j, i) 4^(j-i) N^i, the first m
    iterates of u^2 and of N span alike, so the walk's dim is phi_span.  If
    N^k psi = 0, k least, the k iterates before it are independent (the
    cyclic-subspace lemma, Hoffman-Kunze ch. 7): the gate passes exactly
    when the first dependent iterate is 0, and then dim is phi_filtration.

    For the functional reading pass u0 transposed and the functional
    written as a vector in place of psi.
    """
    span, dependent = _span_of_iterates(n_map(u0), psi)
    if dependent:
        return PhiReport(span, False, None, None)
    return PhiReport(span, True, span, True)


# dim_functional_span: delta under even u-pullbacks; dim_vector_span:
# delta_prime(1) under even u-iterates; mutual_triviality: one span is zero
HReport = namedtuple("HReport", "dim_functional_span dim_vector_span h "
                     "mutual_triviality")


def h_invariant(data: FloerData) -> HReport:
    """h = (functional span) - (vector span) on reduced data.

    Requires a zero differential; reduce first otherwise.  The two spans
    cannot both be nonzero for data coming out of reduce_to_homology, and
    the report carries that flag.  Each span is phi_report's.
    """
    if not data.complex.differential.is_zero():
        raise ValueError("h_invariant needs reduced data (zero differential)")
    dim_f = phi_report(data.u.transpose(), data.delta).span_dim if data.delta else 0
    dim_v = phi_report(data.u, data.delta_prime).span_dim if data.delta_prime else 0
    return HReport(
        dim_functional_span=dim_f,
        dim_vector_span=dim_v,
        h=dim_f - dim_v,
        mutual_triviality=(dim_f == 0 or dim_v == 0),
    )


def triangular_independence(f: Vector, alpha: Vector, u0: RatMatrix) -> int:
    """Certified lower bound for dim span{f, f u^2, f u^4, ...}.

    Evaluates e_j = f(u^(2j) alpha).  If e_j = 0 for all j < t and e_t != 0,
    the first t + 1 pullbacks of f are triangularly independent against the
    iterates of alpha, so the span has dimension at least t + 1.  Returns
    that bound, or 0 when every evaluation up to the ambient dimension
    vanishes; an empty f or a zero iterate of alpha leaves every later
    evaluation 0, so either ends the loop at once.
    """
    if not f:
        return 0
    u2 = u0 @ u0
    current = dict(alpha)
    for j in range(u0.rows + 1):
        if not current:
            return 0
        if dot(f, current):
            return j + 1
        current = u2.apply(current)
    return 0

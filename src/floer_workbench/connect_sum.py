"""Connected-sum and disjoint-union complexes, plus the cycle machinery.

Shape of the construction
-------------------------
Given data (C, u, delta, delta_prime) and (C', u', delta', delta_prime'),
the total complex stacks up to four summands, numbered in this order:

    S1 = C (x) C'            degree sum
    S2 = C (x) Q<theta'>     present when the right factor is a sphere kind
    S3 = Q<theta> (x) C'     present when the left factor is a sphere kind
    S4 = C (x) C' shifted    degree sum + 3

with theta generators sitting in degree 0.  Generators are numbered by
summand offsets alone: summand t holds positions offsets[t-1] up to
offsets[t], tensor pairs (i, j) run i major (S1's pair at i * nb + j, S4's
at o4 + i * nb + j), and shape lists the tags of the nonempty summands.

The differential is a union of six blocks at disjoint positions.  The
diagonal block D0 holds the usual tensor differentials (with the Koszul
sign on the second slot), negated on S4.  Each cross block, of total
degree -1, carries one sign of the family:

    S1 -> S2   s12 * (-1)^|a| delta'(b) (a theta')
    S1 -> S3   s13 * delta(a) (theta b)
    S1 -> S4   s14 * scale * (u a b - a u' b)
    S2 -> S4   s24 * (a delta_prime'(1))
    S3 -> S4   s34 * (delta_prime(1) b)

On validated factors d has degree -1 and u degree -4, so neither has a
diagonal entry and no two contributions to one block meet at a position:
each block is written once, by assignment.  For a configuration s the
differential is D(s) = D0 + sum_k s_k X_k, and as s_k^2 = 1

    D(s)^2 = sum over m of (prod_{k in m} s_k) T_m,

where m is a set of at most two sign names and T_m sums the block products
whose signs multiply to that monomial.  Validation gives d^2 = 0,
delta o d = 0, d delta_prime = 0, the degrees 1 and 4 of delta and
delta_prime, and d u - u d = -(1/2) delta_prime . delta.  So T_{} = 0 and
T_{k} = 0 for k != s14, and of the products of two cross blocks only
S1 -> S2 -> S4 and S1 -> S3 -> S4 compose.  D0 is negated on S4, so
T_{s14} is minus the commutator of the tensor differential with X14, and
the u chain relations give, with the S1 -> S4 maps (A- and B-term)

    P_A = delta_prime . delta (x) I,  P_B = (-1)^|a| I (x) delta_prime' . delta',
    T_{s14} = (scale / 2) (P_A - P_B),  T_{s13,s34} = P_A,  T_{s12,s24} = P_B.

P_A lives at (r, j) <- (i, j) with r in degree 4 and i in degree 1, P_B at
(i, r) <- (i, c): disjoint supports, so D(s)^2 = 0 exactly when each of
s13 s34 + s14 scale / 2 and s12 s24 - s14 scale / 2 is zero or multiplies
a zero term.  P_A != 0 exactly when A: delta, delta_prime and the right
factor's generators are nonzero; P_B != 0 when B: delta', delta_prime' and
the left factor's generators are.  Precondition: scale is 2 for a sum,
where a factor with delta != 0 is a sphere kind, so A brings S3 and B
brings S2; a union has unit scale but admissible factors, so A and B are
false.  Hence s is accepted exactly when (c2 = 1 or not B) and (c3 = -1 or
not A), c2 and c3 the orbit invariants below, and the default (1, 1, 1, 1,
-1) always is.  _orbit_verdicts reads this off the factors; the full-size
square terms and d @ d are the tests' oracle.

The family falls into four gauge orbits of eight.  Flipping the basis sign
of summand t by g_t = +-1 (g_1 = 1), that is conjugating by the diagonal
G = diag(g_t), fixes D0 and scales the cross block from S_j to S_i by
g_i g_j, so G D(s) G = D(s') with s'_ij = g_i g_j s_ij.  The signs round the
two cycles of the summand graph, c2 = s12 s24 s14 and c3 = s13 s34 s14, are
the invariants, and g_2, g_3, g_4 are read off s'_12, s'_13, s'_14, so each
(c2, c3) class is one orbit of eight configurations.  As D(s')^2 =
G D(s)^2 G, acceptance and every homology dimension are constant on an
orbit, and connect-sum --search ranks one representative per accepted
orbit.  A sum complex has 2 na nb + n2 + n3 generators, known from the
factors' sizes and kinds; above SUM_GENERATOR_CAP it is refused before
anything is built.

A disjoint union (shape (1, 4)) unites admissible factors, so delta =
delta' = 0, each factor reduces to its homology, and disjoint-union reports
from the union of the reduced factors.  That union has the full one's
homology: over Q each factor retracts onto its homology, (i, p, h), and so
does D0 (Kuenneth).  D = D0 + s14 X, with X the cross block S1 -> S4, zero
on S4.  The tensor homotopy keeps each summand, so every term p X (h X)^k i,
k >= 1, of the perturbation lemma's series vanishes (Gugenheim-Lambe-
Stasheff, Illinois J. Math. 35, 1991), and the perturbed differential is
s14 p X i, with p X i = u_H (x) 1 - 1 (x) u'_H: the cross block
disjoint_union_complex builds from the reduced factors' u.  u (x) 1 on S1
and S4 commutes with the full D: d u = u d on each factor, and u has even
degree, so u (x) 1 commutes with the Koszul-signed 1 (x) d', with 1 (x) u',
hence with X.  On the reduced union D = s14 X, so a cycle (z1, z4) has
X z1 = 0: the S1 difference kernel_symmetry_check tests is zero, and every
cycle passes it.

Sum bounds pair product functionals against kernel cycles of the u
differences over m = 2 or 3 factors.  With N_k = u_k^2 - 4 on factor k, k
running over 1, ..., m-1 in each product and e over [0, n)^(m-1),

    prod_k (N_0^n - N_k^n) = prod_k (u_0 - u_k)
        . sum_e N_0^(sum e) prod_k N_k^(n-1-e_k) . prod_k (u_0 + u_k),

which polyid checks for m = 2 and 3, as (u_0 - u_k)(u_0 + u_k) =
N_0 - N_k.  _kernel_cycle applies the last two factors to a pure tensor;
when every N_k^n kills its slot, prod_k (u_0 - u_k) kills the result.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .complexes import (DEGREE_MOD, FloerData, GradedComplex, Kind,
                        require_valid)
from .invariants import NotNilpotent, n_map, nilpotency_order
from .linalg import (LinearSolver, RatMatrix, Vector, dot, kernel_basis,
                     solve_columns, vec_sub)


class SignSearchError(ValueError):
    """A sign configuration does not square the differential to zero."""


SIGN_NAMES = ("s12", "s13", "s14", "s24", "s34")

# The most generators a sum or union complex may have.  The nPplusModel:40
# self-sum has 12960; the nPplusModel:49 one (19404) is built and certified
# in about 0.1 s, and --search --homology on it takes about 0.2 s and 37 MB
# as a subprocess, since its degree blocks peel without elimination
# (Python 3.11, 2 CPUs).  Dense sums do not peel: a 60-generator admissible
# self-sum has only 7200 generators and ranks for minutes.
SUM_GENERATOR_CAP = 20000


class SignConfig(namedtuple("SignConfig", SIGN_NAMES, defaults=(1, 1, 1, 1, -1))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(s not in (1, -1) for s in self):
            raise ValueError("signs must be +1 or -1")
        return self

    def as_tuple(self):
        return tuple(self)


DEFAULT_SIGNS = SignConfig()

# the family in sign_search's order: lexicographic, +1 before -1
_FAMILY = tuple([SignConfig(*bits) for bits in itertools.product((1, -1), repeat=5)])


def _orbit_class(signs: SignConfig) -> tuple:
    """(c2, c3) = (s12 s24 s14, s13 s34 s14), constant on a gauge orbit."""
    return (signs.s12 * signs.s24 * signs.s14, signs.s13 * signs.s34 * signs.s14)


class ConnectSumComplex(namedtuple("ConnectSumComplex",
                                   "left right total signs offsets")):
    """The factors, the total complex and its signs; offsets is (0, o2, o3,
    o4, size), and summand t spans offsets[t-1:t+1]."""

    __slots__ = ()

    @property
    def shape(self) -> tuple:
        """Tags of the nonempty summands, e.g. (1, 4) or (1, 2, 3, 4)."""
        return tuple([t for t in range(1, 5)
                      if self.offsets[t] > self.offsets[t - 1]])


class _Assembly:
    """Generators of a sum complex and the six blocks of its differential.

    Generators run through S1, S2, S3, S4 in turn; summand t occupies
    positions offsets[t-1] up to offsets[t], with offsets = (0, o2, o3, o4,
    size), and this is the only numbering of the total complex.  Tensor
    pairs (i, j) run i major: S1's pair sits at i * nb + j and S4's at
    o4 + i * nb + j; S2's left generator i sits at o2 + i and S3's right
    generator j at o3 + j.  `diagonal` and the `cross` blocks (keyed by sign
    name) are full-size blocks with disjoint supports, each a dict (row,
    col) -> den * entry over the one denominator `den`.
    """

    def __init__(self, a: FloerData, b: FloerData, theta_right: bool,
                 theta_left: bool, u_scale: Fraction):
        na, nb = a.size, b.size
        n2 = na if theta_right else 0
        n3 = nb if theta_left else 0
        o2 = na * nb
        o3 = o2 + n2
        o4 = o3 + n3
        self.size = o4 + na * nb
        self.offsets = (0, o2, o3, o4, self.size)

        pairs = [(i, j) for i in range(na) for j in range(nb)]
        an, ad = a.complex.names, a.complex.degrees
        bn, bd = b.complex.names, b.complex.degrees
        self.names = (["%s.%s" % (an[i], bn[j]) for i, j in pairs]
                      + ["%s.theta" % an[i] for i in range(n2)]
                      + ["theta.%s" % bn[j] for j in range(n3)]
                      + ["shift.%s.%s" % (an[i], bn[j]) for i, j in pairs])
        self.degrees = ([(ad[i] + bd[j]) % DEGREE_MOD for i, j in pairs]
                        + list(ad[:n2]) + list(bd[:n3])
                        + [(ad[i] + bd[j] + 3) % DEGREE_MOD for i, j in pairs])

        # one den for every block, so that D(s) is a union of dicts; v, -v
        # and the scaled values are formed once per factor entry, and
        # signed[flip[i]] is v times the Koszul sign past left generator i
        da, db = a.complex.differential, b.complex.differential
        functionals = (a.delta, b.delta, a.delta_prime, b.delta_prime)
        p, q = u_scale.numerator, u_scale.denominator
        den = math.lcm(da.den, db.den, a.u.den * q, b.u.den * q,
                       *[v.denominator for f in functionals for v in f.values()])
        a_delta, b_delta, a_prime, b_prime = [
            {i: v.numerator * (den // v.denominator) for i, v in f.items()}
            for f in functionals]
        flip = [deg % 2 for deg in ad]
        diagonal, x12, x13, x14, x24, x34 = {}, {}, {}, {}, {}, {}
        lift = den // da.den
        for (r, c), v in da._ints.items():
            v *= lift
            neg = -v
            for j in range(nb):
                diagonal[r * nb + j, c * nb + j] = v
                diagonal[o4 + r * nb + j, o4 + c * nb + j] = neg
            if n2:
                diagonal[o2 + r, o2 + c] = v
        lift = den // db.den
        for (r, c), v in db._ints.items():
            v *= lift
            signed = (v, -v)
            for i in range(na):
                diagonal[i * nb + r, i * nb + c] = signed[flip[i]]
                diagonal[o4 + i * nb + r, o4 + i * nb + c] = signed[1 - flip[i]]
            if n3:
                diagonal[o3 + r, o3 + c] = v
        lift = p * (den // (a.u.den * q))
        for (r, c), v in a.u._ints.items():
            scaled = lift * v
            for j in range(nb):
                x14[o4 + r * nb + j, c * nb + j] = scaled
        lift = -p * (den // (b.u.den * q))
        for (r, c), v in b.u._ints.items():
            scaled = lift * v
            for i in range(na):
                x14[o4 + i * nb + r, i * nb + c] = scaled
        for j, v in b_delta.items():
            signed = (v, -v)
            for i in range(n2):
                x12[o2 + i, i * nb + j] = signed[flip[i]]
        for i, v in a_delta.items():
            for j in range(n3):
                x13[o3 + j, i * nb + j] = v
        for s, v in b_prime.items():
            for i in range(n2):
                x24[o4 + i * nb + s, o2 + i] = v
        for r, v in a_prime.items():
            for j in range(n3):
                x34[o4 + r * nb + j, o3 + j] = v
        # validated factors give nonzero entries at distinct in-range positions
        self.den = den
        self.diagonal = diagonal
        self.cross = dict(zip(SIGN_NAMES, (x12, x13, x14, x24, x34)))

    def differential(self, signs: SignConfig) -> RatMatrix:
        """D(s): the diagonal block and each cross block times its sign."""
        ent = dict(self.diagonal)
        for name, block in self.cross.items():
            if getattr(signs, name) == 1:
                ent.update(block)
            else:
                ent.update((key, -v) for key, v in block.items())
        return RatMatrix._trusted(self.size, self.size, ent, self.den)

    def check_degrees(self) -> None:
        """Every block entry lowers degree by one.  The blocks' supports
        make up the support of every D(s), in D(s)'s entry order."""
        for block in (self.diagonal, *self.cross.values()):
            for (r, c) in block:
                if self.degrees[r] != (self.degrees[c] - 1) % DEGREE_MOD:
                    raise SignSearchError(
                        "construction produced an off-degree entry %s <- %s"
                        % (self.names[r], self.names[c]))


def _theta_flags(a: FloerData, b: FloerData) -> tuple:
    """(theta_right, theta_left) for the sum of a and b, once both factors
    are valid; refused before validation when the total complex would have
    more than SUM_GENERATOR_CAP generators."""
    theta_right = b.kind is Kind.HOMOLOGY_SPHERE
    theta_left = a.kind is Kind.HOMOLOGY_SPHERE
    size = (2 * a.size * b.size + (a.size if theta_right else 0)
            + (b.size if theta_left else 0))
    if size > SUM_GENERATOR_CAP:
        raise ValueError("the sum complex would have %d generators, above the "
                         "cap of %d" % (size, SUM_GENERATOR_CAP))
    require_valid(a)
    require_valid(b)
    return theta_right, theta_left


def _assembly(a: FloerData, b: FloerData, u_scale: Fraction) -> _Assembly:
    theta_right, theta_left = _theta_flags(a, b)
    return _Assembly(a, b, theta_right=theta_right, theta_left=theta_left,
                     u_scale=u_scale)


def _finish(asm: _Assembly, a, b, signs: SignConfig) -> ConnectSumComplex:
    """The total complex for signs, certified to square to zero by the
    orbit verdicts of a and b."""
    asm.check_degrees()
    if not _orbit_verdicts(a, b)[_orbit_class(signs)]:
        raise SignSearchError("differential does not square to zero for signs %s"
                              % (signs.as_tuple(),))
    total = GradedComplex._trusted(tuple(asm.names), tuple(asm.degrees),
                                   asm.differential(signs))
    return ConnectSumComplex(left=a, right=b, total=total, signs=signs,
                             offsets=asm.offsets)


def connected_sum_complex(a: FloerData, b: FloerData,
                          signs: Optional[SignConfig] = None) -> ConnectSumComplex:
    """Four-summand connected-sum complex (theta summands per kind flags).

    With signs=None the default configuration is used; it squares to zero
    for every pair of valid inputs.  An explicit configuration is verified
    and SignSearchError raised when it fails on the given data.
    """
    return _finish(_assembly(a, b, Fraction(2)), a, b, signs or DEFAULT_SIGNS)


def sign_search(a: FloerData, b: FloerData) -> list:
    """All members of the 32-element sign family that square to zero here.

    Acceptance is decided once per gauge orbit from a few facts about the
    factors (module docstring), so no sum complex is built.  Iteration
    order is lexicographic with +1 before -1, so the first element is the
    canonical accepted configuration for the given inputs.
    """
    _theta_flags(a, b)
    return _accepted(_orbit_verdicts(a, b))


def _orbit_verdicts(a: FloerData, b: FloerData) -> dict:
    """(c2, c3) -> whether D(s)^2 = 0 on that orbit, for valid factors a and
    b of a sum (u scale 2) or of a union of admissible factors.

    A and B say whether the S1 -> S4 terms P_A and P_B of the square are
    nonzero; an orbit is accepted when each active term has coefficient
    zero, as the module docstring derives.
    """
    a_term = bool(a.delta and a.delta_prime and b.size)
    b_term = bool(b.delta and b.delta_prime and a.size)
    return {(c2, c3): (c2 == 1 or not b_term) and (c3 == -1 or not a_term)
            for c2 in (1, -1) for c3 in (1, -1)}


def _accepted(verdicts: dict) -> list:
    """The configurations, in sign_search's order, of the accepted orbits;
    the default's orbit (1, -1) is always one of them."""
    return [signs for signs in _FAMILY if verdicts[_orbit_class(signs)]]


def _search(a: FloerData, b: FloerData, signs: SignConfig) -> tuple:
    """(built, accepted, orbit totals) for connect-sum --search, from one
    assembly.

    built is connected_sum_complex(a, b, signs) and accepted is
    sign_search(a, b).  orbit totals maps the (c2, c3) class of each
    accepted orbit to the total complex of its first configuration, which
    has the homology dimensions of every configuration in the orbit.
    """
    asm = _assembly(a, b, Fraction(2))
    built = _finish(asm, a, b, signs)
    accepted = _accepted(_orbit_verdicts(a, b))
    totals = {}
    for config in accepted:
        key = _orbit_class(config)
        if key not in totals:
            totals[key] = (built.total if config == signs else GradedComplex._trusted(
                built.total.names, built.total.degrees, asm.differential(config)))
    return built, accepted, totals


def _require_union_factors(a: FloerData, b: FloerData) -> None:
    """A disjoint union's refusals, in order: a factor that is not
    admissible (left, then right), a union above SUM_GENERATOR_CAP, and
    invalid data (left, then right)."""
    for side, data in (("left", a), ("right", b)):
        if data.kind is not Kind.ADMISSIBLE:
            raise ValueError("disjoint union needs admissible inputs; %s factor is %s"
                             % (side, data.kind.value))
    _theta_flags(a, b)


def disjoint_union_complex(a: FloerData, b: FloerData) -> ConnectSumComplex:
    """Two-summand complex for a pair of admissible inputs.

    No theta summands appear and the cross map is u (x) I - I (x) u' with
    unit scale.
    """
    _require_union_factors(a, b)
    return _finish(_Assembly(a, b, theta_right=False, theta_left=False,
                             u_scale=Fraction(1)), a, b, DEFAULT_SIGNS)


def _factor_apply(op: RatMatrix, axis: int, tensor: dict) -> dict:
    """Apply an even-degree operator to one slot of a tensor dict."""
    by_col = op._column_view()  # den * op, as integers
    out = {}
    for key, coeff in tensor.items():
        for r, v in by_col.get(key[axis], {}).items():
            new_key = key[:axis] + (r,) + key[axis + 1:]
            s = out.get(new_key, 0) + coeff * v
            if s:
                out[new_key] = s
            else:
                out.pop(new_key, None)
    if op.den != 1:
        return {key: s / op.den for key, s in out.items()}
    return out


def _orbit(op: RatMatrix, v: Vector, k: int) -> list:
    """[v, op v, ..., op^k v]."""
    out = [v]
    for _ in range(k):
        out.append(op.apply(out[-1]))
    return out


def _u_differences(factors, t: dict) -> dict:
    """prod over k >= 1 of (u_0 - u_k), applied to a tensor over the factors."""
    u0 = factors[0].u
    for k, data in enumerate(factors[1:], 1):
        t = vec_sub(_factor_apply(u0, 0, t), _factor_apply(data.u, k, t))
    return t


def kernel_symmetry_check(cs: ConnectSumComplex, cycles: list) -> bool:
    """On disjoint-union cycles, the three placements of u agree in homology.

    The placements are u (x) I on both tensor summands, the mixed one
    (I (x) u' on S1, u (x) I on S4) and I (x) u' on both.  Consecutive
    placements differ on one summand only, by X = u (x) I - I (x) u'
    applied to that part (z1, z4) of the cycle.  One difference decides
    both: d z = 0 gives d z4 = X z1, so z4 placed on S1 has boundary
    X z1 on S1 plus X z4 on S4, and the S4 difference is a boundary exactly
    when the S1 difference is.  The check is that the S1 difference of
    every cycle given is a boundary.  One solver serves all of them: it
    holds the columns of d one degree above any difference, and since the
    image of d is graded, columns of other degrees could not make a
    difference a boundary.  Raises ValueError, before any elimination, when
    some input is not a cycle.
    """
    if cs.shape != (1, 4):
        raise ValueError("kernel symmetry concerns two-summand complexes")
    diff = cs.total.differential
    if any(diff.apply(z) for z in cycles):
        raise ValueError("input is not a cycle")

    nb, o4 = cs.right.size, cs.offsets[3]
    differences = []
    for z in cycles:
        z1 = {divmod(p, nb): v for p, v in z.items() if p < o4}
        w = _u_differences((cs.left, cs.right), z1)
        differences.append({i * nb + j: v for (i, j), v in w.items()})

    degrees = cs.total.degrees
    targets = {degrees[p] for w in differences for p in w}
    solver = LinearSolver()
    solver._add_columns(diff, [c for c, deg in enumerate(degrees)
                               if (deg - 1) % DEGREE_MOD in targets])
    return all(solver.contains(w) for w in differences)


# ---------------------------------------------------------------------------
# kernel cycles and the pairing machinery


def _require_reduced(data: FloerData, label: str) -> None:
    if not data.complex.differential.is_zero():
        raise ValueError("%s factor must be reduced (zero differential)" % label)


def _odd_n_map(data: FloerData, n_op: RatMatrix) -> RatMatrix:
    """n_op restricted to the generators in degrees 1 and 5."""
    sub = sorted(data.complex.indices_in_degree(1) + data.complex.indices_in_degree(5))
    local = {g: t for t, g in enumerate(sub)}
    return RatMatrix._trusted(len(sub), len(sub),
                              {(local[r], local[c]): v for (r, c), v in n_op._ints.items()
                               if r in local and c in local}, n_op.den)


def _kernel_cycle(factors, first: Vector, rest, n: int) -> dict:
    """The kernel element of the telescoping identity on m = len(factors)
    slots, started from first (x) rest[0] (x) ...:

        sum over e in [0, n)^(m-1) of N_0^(sum e) (x) N_1^(n-1-e_1) (x) ...
            applied to prod over k >= 1 of (u_0 + u_k) (first (x) rest...)

    The product of u sums expands into 2^(m-1) pure tensors: slot k >= 1
    holds w_k or u_k w_k, and slot 0 holds u_0^j first, j counting the
    slots that kept w_k.  The N-powers of these factor vectors are taken
    once each (slot 0 up to (m-1)(n-1), slot k up to n-1), and the cycle
    is the sum of their outer products; no power meets a whole tensor.
    """
    m = len(factors)
    n_ops = [n_map(data.u) for data in factors]
    heads = [_orbit(n_ops[0], v, (m - 1) * (n - 1))
             for v in _orbit(factors[0].u, first, m - 1)]
    tails = [(_orbit(n_op, w, n - 1), _orbit(n_op, data.u.apply(w), n - 1))
             for data, n_op, w in zip(factors[1:], n_ops[1:], rest)]
    alpha = {}
    for picks in itertools.product((0, 1), repeat=m - 1):
        head = heads[m - 1 - sum(picks)]
        slots = [tail[p] for tail, p in zip(tails, picks)]
        for e in itertools.product(range(n), repeat=m - 1):
            terms = {(i,): v for i, v in head[sum(e)].items()}
            for powers, ek in zip(slots, e):
                terms = {key + (j,): c * v for key, c in terms.items()
                         for j, v in powers[n - 1 - ek].items()}
            for key, c in terms.items():
                alpha[key] = alpha.get(key, 0) + c
    return {key: v for key, v in alpha.items() if v}


def _pairing(fs, t: dict) -> Fraction:
    """2^-(m-1) sum over t of coeff * prod_k f_k(key_k), m = len(fs)."""
    total = Fraction(0)
    for key, v in t.items():
        for f, i in zip(fs, key):
            fi = f.get(i)
            if not fi:
                break
            v *= fi
        else:
            total += v
    return total / 2 ** (len(fs) - 1)


def build_pair_cycle(a: FloerData, b: FloerData, wa: Vector, wb: Vector,
                     n: int) -> dict:
    """Kernel element of the u difference from witnesses wa, wb:

        alpha = sum_i N^i (u a') (x) N'^(n-1-i) wb  +  N^i a' (x) N'^(n-1-i) (u' wb)

    with N = u^2 - 4 on each side and a' the u-preimage of wa, so that
    u a' = wa.  This is _kernel_cycle on two slots started from a' (x) wb.
    """
    _require_reduced(a, "left")
    _require_reduced(b, "right")
    if n < 1:
        raise ValueError("n must be >= 1")
    a_pre = solve_columns(a.u, wa)
    if a_pre is None:
        raise ValueError("witness has no u-preimage; u is not onto it")
    return _kernel_cycle((a, b), a_pre, (wb,), n)


def build_triple_cycle(a: FloerData, b: FloerData, c: FloerData,
                       wa: Vector, wb: Vector, wc: Vector, n: int) -> dict:
    """Three-factor kernel element from witnesses:

        alpha' = sum_{i,j} N^(i+j) (x) N'^(n-1-i) (x) N''^(n-1-j)
                     (u1 + u2)(u1 + u3) (wa (x) wb (x) wc)

    annihilated by (u1 - u2)(u1 - u3).  This is _kernel_cycle on three
    slots started from wa (x) wb (x) wc.
    """
    for label, d in (("left", a), ("middle", b), ("right", c)):
        _require_reduced(d, label)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _kernel_cycle((a, b, c), wa, (wb, wc), n)


def _pullbacks(f: Vector, n_op: RatMatrix, limit: int) -> list:
    """[f, f o N, ..., f o N^(k-1)] for the least k with f o N^k = 0: its
    length is the functional filtration order."""
    pulls = []
    current = dict(f)
    while current:
        if len(pulls) > limit:
            raise ValueError("functional filtration does not terminate")
        pulls.append(current)
        current = n_op.apply_functional(current)
    return pulls


def _find_witness(data: FloerData, pulls: list) -> Vector:
    """Degree-1 vector with f(N^i v) = (f o N^i)(v) = 0 for i <= k - 2 and
    != 0 at k - 1, where pulls = _pullbacks(f, ...) has length k.

    Scans the canonical kernel basis of the lower functionals, so the choice
    is deterministic for fixed data.
    """
    ones = data.complex.indices_in_degree(1)
    local = {g: t for t, g in enumerate(ones)}
    rows, top = pulls[:-1], pulls[-1]
    constraint = RatMatrix(len(rows), len(ones),
                           {(r, local[g]): v for r, row in enumerate(rows)
                            for g, v in row.items() if g in local})
    for vec in kernel_basis(constraint):
        candidate = {ones[t]: v for t, v in vec.items()}
        if dot(top, candidate):
            return candidate
    raise ValueError("no witness found; functional order is inconsistent")


class SumBoundReport(namedtuple("SumBoundReport", "mode n orders level cycle_ok "
                                "pairing witness_values expected product_matches")):
    """mode is "pair" or "triple"; orders are the functional filtration
    orders per factor, level the shift applied to the last slot, and
    witness_values the evaluations whose product is pinned."""

    __slots__ = ()

    @property
    def nonzero(self) -> bool:
        return bool(self.pairing)


def _odd_nilpotency(data: FloerData) -> tuple:
    """N = u^2 - 4 and the nilpotency order of N on degrees 1 and 5.

    Raises NotNilpotent when N has no power vanishing there.
    """
    n_op = n_map(data.u)
    return n_op, nilpotency_order(_odd_n_map(data, n_op))


def _prepare_factor(data: FloerData, f: Optional[Vector], n: int, label: str,
                    nilpotency: Optional[tuple] = None) -> list:
    """_pullbacks of one factor's functional, N's order checked against n.

    nilpotency is _odd_nilpotency(data) when the caller has it already.
    """
    _require_reduced(data, label)
    if f is None:
        f = dict(data.delta)
    if not f:
        raise ValueError("%s factor carries no functional" % label)
    if not set(f) <= set(data.complex.indices_in_degree(1)):
        raise ValueError("%s functional must be supported in degree 1" % label)
    if n < 0:
        raise ValueError("negative power")
    try:
        n_op, order = nilpotency or _odd_nilpotency(data)
    except NotNilpotent:
        order = None
    if order is None or order > n:
        raise ValueError("(u^2 - 4)^%d does not vanish on the %s factor" % (n, label))
    return _pullbacks(f, n_op, data.size)


def verify_sum_bound(a: FloerData, b: FloerData, c: Optional[FloerData] = None,
                     n: Optional[int] = None,
                     fa: Optional[Vector] = None, fb: Optional[Vector] = None,
                     fc: Optional[Vector] = None) -> SumBoundReport:
    """Build the kernel cycle for m = 2 or 3 factors and evaluate the
    product functional at the shifted level.

    For functional filtration orders k_0, ..., k_(m-1) and a common
    nilpotency exponent n of (u^2 - 4), the level is
    l = k_0 + ... + k_(m-1) - (m-1) n - 1.  The report carries the pairing
    of (u^2 - 4)^l (last slot) against the cycle, the witness evaluations
    f_k(N^(k_k - 1) w_k), the first witness times u^(2(m-2)) as the
    surviving term carries that on slot 0, and the check that the pairing
    is 2^-(m-1) times their product.  Negative level means the hypothesis
    fails and no bound is claimed: ValueError.

    No power of N meets the tensor: <f_0 (x) ... (x) f_last, (1 (x) ... (x)
    N^l) alpha> = <f_0 (x) ... (x) (f_last o N^l), alpha>, and l < k_last as
    each order is at most n, so f_last o N^l is one of _pullbacks.
    """
    factors = [(a, fa, "left"), (b, fb, "middle" if c is not None else "right")]
    if c is not None:
        factors.append((c, fc, "right"))
    m = len(factors)

    nilpotency = [None] * m
    if n is None:
        for i, (data, _, label) in enumerate(factors):
            _require_reduced(data, label)
            nilpotency[i] = _odd_nilpotency(data)
        n = max([1] + [order for _, order in nilpotency])

    prepared = [_prepare_factor(data, f, n, label, known)
                for (data, f, label), known in zip(factors, nilpotency)]
    orders = tuple([len(pulls) for pulls in prepared])
    level = sum(orders) - (m - 1) * n - 1
    if level < 0:
        raise ValueError(
            "filtration orders %s with n = %d leave level %d < 0; "
            "the sum bound hypothesis fails and no bound is claimed"
            % (orders, n, level))

    datas = [data for data, _, _ in factors]
    witnesses = [_find_witness(data, pulls) for data, pulls in zip(datas, prepared)]
    # the builders differ only in the first slot: a u-preimage or wa itself
    build, mode = ((build_pair_cycle, "pair") if m == 2
                   else (build_triple_cycle, "triple"))
    alpha = build(*datas, *witnesses, n)
    cycle_ok = not _u_differences(datas, alpha)
    pairing = _pairing([pulls[0] for pulls in prepared[:-1]] + [prepared[-1][level]],
                       alpha)

    witnesses[0] = _orbit(a.u, witnesses[0], 2 * (m - 2))[-1]
    witness_values = tuple([dot(pulls[-1], w) for pulls, w in zip(prepared, witnesses)])
    expected = Fraction(math.prod(witness_values), 2 ** (m - 1))
    return SumBoundReport(mode=mode, n=n, orders=orders, level=level,
                          cycle_ok=cycle_ok, pairing=pairing,
                          witness_values=witness_values, expected=expected,
                          product_matches=(pairing == expected))

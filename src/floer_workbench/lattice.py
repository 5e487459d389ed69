"""Negative-definite E8-block lattice: membership, classes mod 2, counts.

The lattice is n orthogonal copies of E8 carrying the negative of the usual
form.  A block vector belongs to E8 when its eight coordinates are either
all integers or all odd multiples of 1/2, with an even coordinate sum; this
is the span of the vectors e_i + e_j together with (e_1 + ... + e_8)/2.

Coordinates are stored doubled, as plain integers, so half-integers stay
exact and the inner loops never touch Fraction.  In doubled units the
squared length of a block is sum(c_i^2) = 4 * |v^2|.

A class mod 2*lattice is searched per block: v = w + 2e with e in E8 pins
every coordinate parity, and once the first coordinate of e is chosen the
integer/half-integer type of e is pinned too, so the backtracking walks
coordinates in steps of 4 under a running norm budget.  Each block's
members come out grouped by norm, with a budget that leaves the other
blocks room for their minima.

The blocks are orthogonal, so the number of class members of norm w^2 is
the coefficient of that norm in the product over blocks of each block's
series sum_q #{members of norm q} x^q (Conway-Sloane, SPLAG ch. 4 sec. 8.1;
Serre, A Course in Arithmetic ch. VII).  `eta` counts by this convolution
and never builds a full-length vector unless its vectors are asked for.

Listing walks the blocks depth first.  Each block's members of every norm
are merged into one list in coordinate order and tried in that order; a
member is skipped when the norm it leaves is less than the later blocks'
class minima add up to, and the last block takes only its members of the
exact norm left.  Every block has 8 coordinates, so the tuples of block
members come out in the order of their concatenations, sorted with no
sort.  `eta` and `congruent_vectors` concatenate each tuple into a vector;
the CLI formats each distinct block member once and joins the texts.
Listing is refused above LIST_CAP vectors.

A block's class minimum needs no search.  On E8, q(v) = v.v/2 is an
integer and q(v + 2e) = q(v) + 2 v.e + 4 q(e), so q mod 2 is constant on
each class of E8/2E8.  Every class has minimal norm 0, 2 or 4: 2E8 itself,
the 120 classes of a pair of opposite roots, and 135 classes of 16 norm-4
vectors each, 1 + 120 + 135 = 256 (SPLAG ch. 4 sec. 8.1).  A root has
q = 1 and a norm-4 vector has q = 2, so a class other than 2E8 has minimal
norm 2 when q is odd on it and 4 when q is even.  In doubled coordinates c
the block lies in 2E8 when every c_i is even and c/2 passes the E8 test,
and q = sum(c_i^2)/8; so the doubled minimum is 0 there, else 8 when
sum(c_i^2) = 8 (mod 16), else 16.  Only class members are searched, each
distinct (block, budget) once within one call, so a class that repeats a
block (w0^16) searches it once.  A class whose member search would go
above _MEMBER_BUDGET_CAP is refused before any member search.

A block member is checked against its block of w by one test on tuples,
which `same_class` shares: the member is in E8, the difference is even,
and half of the difference is in E8.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

BLOCK = 8
# The most vectors `eta` lists: 16^4, the w0^4 class.  Counting has no cap.
LIST_CAP = 16 ** 4
# The most blocks a named vector may be repeated to ('w0^k', 'zero^k').
# The count of w0^k is 16^k, and Python prints no int of more than 4300
# digits, which 16^k passes at k = 3572.
POWER_CAP = 2048


class LatticeError(ValueError):
    pass


class PowerTooLarge(LatticeError):
    """A well-formed 'name^k' whose k is above POWER_CAP."""


class LatticeVector:
    """A vector of `blocks` E8 blocks; immutable, hashable, equal by value.

    doubled holds 8 * blocks integers, each twice a coordinate.  A plain
    class, so that loading this module does not load dataclasses.
    """

    __slots__ = ("blocks", "doubled")

    def __init__(self, blocks: int, doubled: tuple):
        if blocks < 1:
            raise LatticeError("need at least one block")
        if len(doubled) != BLOCK * blocks:
            raise LatticeError("expected %d doubled coordinates, got %d"
                               % (BLOCK * blocks, len(doubled)))
        coerced = []
        for c in doubled:
            if isinstance(c, bool) or not isinstance(c, int):
                raise LatticeError("doubled coordinates must be integers")
            coerced.append(c)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "doubled", tuple(coerced))

    @classmethod
    def _trusted(cls, blocks: int, doubled: tuple) -> "LatticeVector":
        """A vector on a tuple of 8 * blocks ints, taken as it is; for
        vectors built from block members already known valid."""
        v = object.__new__(cls)
        object.__setattr__(v, "blocks", blocks)
        object.__setattr__(v, "doubled", doubled)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return LatticeVector, (self.blocks, self.doubled)

    def __repr__(self) -> str:
        return "LatticeVector(blocks=%r, doubled=%r)" % (self.blocks, self.doubled)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks and self.doubled == other.doubled

    def __hash__(self) -> int:
        return hash((self.blocks, self.doubled))

    def block(self, b: int) -> tuple:
        return self.doubled[BLOCK * b:BLOCK * (b + 1)]


# the literals linalg.rational reads; repeated here so that loading this
# module does not load linalg
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def _rational_parts(c) -> tuple:
    """(p, q) with c = p/q and q >= 1, for the values linalg.rational
    accepts, with its exceptions for the others."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return c, 1
    if isinstance(c, str):
        match = _RATIONAL_RE.match(c.strip())
        if match is None:
            raise ValueError("not an exact rational literal: %r" % (c,))
        p, q = match.groups()
        return int(p), int(q) if q else 1
    raise TypeError("cannot coerce %r to a rational" % (c,))


def from_coords(coords) -> LatticeVector:
    """Build a vector from exact rational coordinates (multiples of 1/2):
    ints, Fractions or 'p' and 'p/q' strings, each read straight to twice
    its value."""
    parts = [_rational_parts(c) for c in coords]
    if len(parts) % BLOCK:
        raise LatticeError("coordinate count must be a multiple of 8")
    doubled = []
    for p, q in parts:
        d, rem = divmod(2 * p, q)
        if rem:
            raise LatticeError("coordinate %s is not a multiple of 1/2" % (Fraction(p, q),))
        doubled.append(d)
    return LatticeVector(len(parts) // BLOCK, tuple(doubled))


def zero(blocks: int) -> LatticeVector:
    return LatticeVector(blocks, (0,) * (BLOCK * blocks))


def concat(*vectors: LatticeVector) -> LatticeVector:
    return LatticeVector(sum(v.blocks for v in vectors),
                         tuple([c for v in vectors for c in v.doubled]))


W0 = from_coords((1, 1, 1, 1, 0, 0, 0, 0))
ROOT = from_coords((1, 1, 0, 0, 0, 0, 0, 0))
HALF_SUM = from_coords((Fraction(1, 2),) * 8)

_NAMED = {"zero": None, "w0": W0, "root": ROOT, "halfsum": HALF_SUM}


def parse_vector(spec: str) -> LatticeVector:
    """Read 'w0', 'w0^3', 'zero', 'zero^3', or comma-separated coords.

    A power above POWER_CAP is refused with PowerTooLarge before any
    vector is built.
    """
    spec = spec.strip()
    if "," in spec:
        return from_coords(part.strip() for part in spec.split(","))
    name, _, power = spec.partition("^")
    if name not in _NAMED:
        raise LatticeError("unknown vector name %r (have: %s, or coordinates)"
                           % (name, ", ".join(sorted(_NAMED))))
    reps = 1
    if power:
        reps = int(power)
        if reps < 1:
            raise LatticeError("power must be >= 1")
        if reps > POWER_CAP:
            raise PowerTooLarge("power %d is above the cap of %d blocks"
                                % (reps, POWER_CAP))
    if name == "zero":
        return zero(reps)
    base = _NAMED[name]
    return concat(*([base] * reps))


def _block_ok(block) -> bool:
    parity = block[0] % 2
    for c in block:
        if c % 2 != parity:
            return False
    return sum(block) % 4 == 0


def is_member(v: LatticeVector) -> bool:
    return all(_block_ok(v.block(b)) for b in range(v.blocks))


def require_member(v: LatticeVector) -> None:
    if not is_member(v):
        raise LatticeError("vector is not in the lattice")


def norm(v: LatticeVector) -> Fraction:
    """Negative-definite squared length, -sum(coords^2)."""
    require_member(v)
    return -Fraction(sum(c * c for c in v.doubled), 4)


def _block_congruent(vb: tuple, wb: tuple) -> bool:
    """vb is in E8 and congruent to the block wb mod 2*E8: the difference
    is even and half of it is in E8."""
    if not _block_ok(vb):
        return False
    half = []
    for a, b in zip(vb, wb):
        d = a - b
        if d % 2:
            return False
        half.append(d // 2)
    return _block_ok(half)


def same_class(v: LatticeVector, w: LatticeVector) -> bool:
    """True when (v - w) / 2 lies in the lattice."""
    require_member(v)
    require_member(w)
    if v.blocks != w.blocks:
        raise LatticeError("block counts differ")
    return all(_block_congruent(v.block(b), w.block(b)) for b in range(v.blocks))


# ---------------------------------------------------------------------------
# enumeration


def _block_class_members(wb: tuple, budget_q: int) -> dict:
    """Members of the class of one block with doubled norm <= budget_q.

    Returns {doubled_norm: [blocks...]} with each inner list in ascending
    coordinate order.  v = w + 2e with e in E8, so coordinate i runs over
    c = wb[i] + 4t once the integer/half-integer type of e is fixed by the
    first coordinate.
    """
    found = {}

    def descend(pos, remaining, parity, prefix, half_sum):
        if pos == BLOCK:
            if half_sum % 4 == 0:
                q = budget_q - remaining
                found.setdefault(q, []).append(tuple(prefix))
            return
        base = wb[pos]
        bound = math.isqrt(remaining)
        if parity is None:
            # both types of e are still possible at the first coordinate
            c = -bound + ((base + bound) % 2)
            while c * c <= remaining:
                d = (c - base) // 2
                descend(pos + 1, remaining - c * c, d % 2, prefix + [c],
                        half_sum + d)
                c += 2
            return
        # parity of (c - base)/2 pinned: c = base + 2*parity (mod 4)
        c = -bound + ((base + 2 * parity + bound) % 4)
        while c * c <= remaining:
            d = (c - base) // 2
            descend(pos + 1, remaining - c * c, parity, prefix + [c],
                    half_sum + d)
            c += 4
    descend(0, budget_q, None, [], 0)
    return {q: sorted(vs) for q, vs in sorted(found.items())}


# The largest doubled norm a class member search may reach (norm 32): the
# class of 4,4,0,0,0,0,0,0 has 26641 block members up to it and counts in
# about half a second, while budgets 200, 288 and 512 give 115278, 522001
# and 4845121 members, and the last does not finish in a minute.
_MEMBER_BUDGET_CAP = 128


def _searcher():
    """_block_class_members with each (block, budget) searched once."""
    found = {}

    def search(wb: tuple, budget_q: int) -> dict:
        if (wb, budget_q) not in found:
            found[wb, budget_q] = _block_class_members(wb, budget_q)
        return found[wb, budget_q]
    return search


def _block_class_min(wb: tuple) -> int:
    """Least doubled norm in the class of the E8 block wb: 0 on 2*E8, else
    8 or 16 as q = sum(c^2)/8 is odd or even (module docstring)."""
    if all(c % 2 == 0 for c in wb) and _block_ok([c // 2 for c in wb]):
        return 0
    return 8 if sum(c * c for c in wb) % 16 == 8 else 16


def _class_groups(w: LatticeVector) -> tuple:
    """(target, per-block member groups) for the class of w at norm w^2.

    target is the doubled norm of w.  Block b's groups hold its class
    members of doubled norm at most target minus the other blocks' class
    minima, so every member that can appear in a vector of norm w^2 is
    there, and the least key of each block's groups is its class minimum.
    Equal blocks share one groups dict.  Raises LatticeError, before any
    member search, when a block's budget is above _MEMBER_BUDGET_CAP.
    """
    target = sum(c * c for c in w.doubled)
    blocks = [w.block(b) for b in range(w.blocks)]
    mins = [_block_class_min(wb) for wb in blocks]
    slack = target - sum(mins)
    budget = max(mins) + slack
    if budget > _MEMBER_BUDGET_CAP:
        raise LatticeError("the class needs block members up to |v^2| = %d, "
                           "beyond the %d that can be searched"
                           % (budget // 4, _MEMBER_BUDGET_CAP // 4))
    search = _searcher()
    return target, [search(wb, q + slack) for wb, q in zip(blocks, mins)]


def _series_coefficient(target: int, per_block: list) -> int:
    """Coefficient of x^target in the product of the per-block series."""
    series = {0: 1}
    for groups in per_block:
        product = {}
        for q0, n0 in series.items():
            for q, members in groups.items():
                if q0 + q > target:
                    break
                product[q0 + q] = product.get(q0 + q, 0) + n0 * len(members)
        series = product
    return series.get(target, 0)


def _members_in_class(w: LatticeVector, per_block: list) -> bool:
    """Every block member is in the class of its block of w.

    A vector is congruent to w mod 2*lattice exactly when each of its
    blocks is congruent to the same block of w, so this checks every
    vector the groups combine into, one distinct block at a time.
    """
    distinct = {w.block(b): groups for b, groups in enumerate(per_block)}
    return all(_block_congruent(member, wb)
               for wb, groups in distinct.items()
               for members in groups.values() for member in members)


def _combine(target: int, per_block: list):
    """The block members combined into vectors of doubled norm target:
    tuples of one member per block, in coordinate order.

    per_block is what _class_groups returns.  Each block tries its members
    of every norm in coordinate order, so the tuples come out sorted as
    their concatenations sort.
    """
    last = len(per_block) - 1
    suffix_min = [0] * (last + 2)
    for b in range(last, -1, -1):
        suffix_min[b] = suffix_min[b + 1] + min(per_block[b])
    # equal blocks share one groups dict, so one merged line
    merged = {}
    for groups in per_block[:last]:
        if id(groups) not in merged:
            merged[id(groups)] = sorted(
                (member, q) for q, members in groups.items() for member in members)
    lines = [merged[id(groups)] for groups in per_block[:last]]

    def walk(b, remaining, head):
        if b == last:
            for member in per_block[b].get(remaining, ()):
                yield head + (member,)
            return
        room = remaining - suffix_min[b + 1]
        for member, q in lines[b]:
            if q <= room:
                yield from walk(b + 1, remaining - q, head + (member,))
    return walk(0, target, ())


def _vector(blocks: int, members: tuple) -> LatticeVector:
    """The vector of a tuple of block members from _combine."""
    return LatticeVector._trusted(blocks, tuple([c for m in members for c in m]))


def congruent_vectors(w: LatticeVector) -> list:
    """All v with v^2 = w^2 and v congruent to w mod twice the lattice.

    Complete by the definiteness of the form; sorted by coordinates.
    """
    require_member(w)
    return [_vector(w.blocks, members) for members in _combine(*_class_groups(w))]


def is_extremal(w: LatticeVector) -> bool:
    """Minimality of |w^2| within the class of w mod twice the lattice.

    Blocks are orthogonal, so the class minimum is the sum of the per-block
    class minima, each in closed form.
    """
    require_member(w)
    own = sum(c * c for c in w.doubled)
    return sum(_block_class_min(w.block(b)) for b in range(w.blocks)) == own


# vectors: tuple, count: Fraction, all_in_class: bool, extremal: bool
EtaResult = namedtuple("EtaResult", "vectors count all_in_class extremal")


def _eta_members(w: LatticeVector, listing: bool) -> tuple:
    """(eta(w, keep_vectors=False), the listed vectors as tuples of block
    members from _combine, or () when not listing); LatticeError, before
    any vector is built, when listing a class of more than LIST_CAP."""
    require_member(w)
    target, per_block = _class_groups(w)
    count = _series_coefficient(target, per_block)
    members = ()
    if listing:
        if count > LIST_CAP:
            raise LatticeError("the class has %d vectors, more than the %d "
                               "that can be listed" % (count, LIST_CAP))
        members = _combine(target, per_block)
    result = EtaResult(vectors=(), count=Fraction(count),
                       all_in_class=_members_in_class(w, per_block),
                       extremal=sum(min(groups) for groups in per_block) == target)
    return result, members


def eta(w: LatticeVector, keep_vectors: bool = True) -> EtaResult:
    """Count of the vectors congruent to w with the same norm.

    Every vector is weighted +1, so count is the number of vectors.  count
    is read off the convolution of the per-block member series (see the
    module docstring), and all_in_class checks every block member against
    its block of w with the congruence test that same_class uses; neither
    builds a full-length vector.  extremal tells whether w is extremal in
    its class, from the closed-form class minima; a count at a
    non-extremal w is still returned, and the CLI warns on stderr.
    keep_vectors (the default) adds the vectors themselves, walked from
    the same block members in coordinate order, sorted as
    congruent_vectors sorts them.
    Listing is refused with LatticeError, before any vector is built, for
    a class of more than LIST_CAP vectors, so a default eta(w) raises there
    (w0^5 and up); a caller who needs only the count passes
    keep_vectors=False, which has no list cap.  Either way a class whose
    block member search would go above |v^2| = 32 (doubled norm 128; the
    class of 4,4,0,0,0,0,0,0 is the largest single block allowed) is
    refused with LatticeError before any member search, so classes such
    as 5,5,0,0,0,0,0,0 fail at once instead of running for seconds or
    not finishing; the CLI exits 1 with the reason.  The search runs in
    one thread; the CLI's `eta --workers` is accepted and ignored and
    reaches no parameter here.
    """
    result, members = _eta_members(w, keep_vectors)
    if keep_vectors:
        vectors = tuple([_vector(w.blocks, m) for m in members])
        assert len(vectors) == result.count
        result = result._replace(vectors=vectors)
    return result


def min_charge_k(w: LatticeVector) -> int:
    """The index -w^2/2 - 1; needs even norm at most -2."""
    value = norm(w)
    if value > -2:
        raise LatticeError("norm must be at most -2, got %s" % (value,))
    k2 = -value / 2 - 1
    if k2.denominator != 1:
        raise LatticeError("norm must be even, got %s" % (value,))
    return int(k2)

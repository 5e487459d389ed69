"""Sparse exact linear algebra over the rationals.

Vectors are plain dicts mapping index -> Fraction, with zero entries never
stored.  A matrix is stored once, as integers: den, the lcm of its entries'
reduced denominators, and the nonzero integers den * value keyed (row, col)
in insertion order, with integer row and column views built once, on first
use.  The pair is canonical, so equal matrices hold equal pairs.  Nothing in
this package ever touches a float.

Documents and builtins read coefficients straight to integers, and sums,
differences, scalings, transposes, products, column blocks and the
connected-sum blocks combine integers, dividing den and the entries by
their gcd (RatMatrix._trusted).  _int_product(a, b) returns the integer
accumulator a.den * b.den * (a @ b).  Identity certificates compare
accumulators: a @ b and b @ a share that denominator, so they are equal
exactly when their accumulators are, and complexes.validate decides the u
chain relation the same way.  Fractions are built only for values that
leave this form: the entries view, single entries and columns, the vectors
apply and the eliminators return, reports and documents.

There is one exact eliminator, _insert, and it keeps every entry an
integer: each row, a matrix's integer line or a rational vector cleared of
denominators once, is reduced at the pivots it hits with fraction-free
updates row := p*row - c*other followed by division by the gcd of its
entries and, when a nonnegative index survives, stored under the smallest
one and back-substituted into the other rows.  Each stored row is a
multiple of a row of the reduced row echelon form of the span, so results
depend neither on the order, the path nor the positive scale of the input
rows.  rref_rows, kernel_basis and image_basis read that basis;
LinearSolver keeps one incrementally, with each row's expression over the
added vectors riding along under negative keys.  rank first peels every
row that alone holds some column, with no arithmetic, then runs the same
updates forward only, without back-substitution, on the rows left and
counts the rows kept; so can any group of a matrix's rows (_row_rank), such
as the rows of one degree that homology._rank_counts ranks.  The
independent checks, kept with the tests, are a Fraction elimination with
Markowitz pivoting (tests/markowitz.py) and a Fraction reference of every
matrix operation (tests/fraction_matmul.py).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

Vector = dict  # index -> Fraction, zeros omitted

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def rational(value) -> Fraction:
    """Coerce ints, Fractions, or 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_rational_parts(value))
    raise TypeError("cannot coerce %r to a rational" % (value,))


def _rational_parts(text: str) -> tuple:
    """(p, q) with q >= 1 and rational(text) = p/q, not reduced."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError("not an exact rational literal: %r" % (text,))
    # the pattern admits only what int() reads, so Fraction(str) would read
    # the same two integers again
    p, q = match.groups()
    return int(p), int(q) if q else 1


def vector(entries: Mapping) -> Vector:
    """Normalize a mapping to a sparse vector, dropping zeros."""
    out = {}
    for idx, val in entries.items():
        q = rational(val)
        if q:
            out[idx] = q
    return out


def vec_add(a: Vector, b: Vector) -> Vector:
    out = dict(a)
    for idx, val in b.items():
        s = out.get(idx, 0) + val
        if s:
            out[idx] = s
        else:
            out.pop(idx, None)
    return out


def vec_scale(c, a: Vector) -> Vector:
    c = rational(c)
    if not c:
        return {}
    return {idx: c * val for idx, val in a.items()}


def vec_sub(a: Vector, b: Vector) -> Vector:
    return vec_add(a, vec_scale(-1, b))


def dot(f: Vector, v: Vector) -> Fraction:
    """Pairing of a functional with a vector, summing over common support."""
    if len(f) > len(v):
        f, v = v, f
    total = Fraction(0)
    for idx, val in f.items():
        w = v.get(idx)
        if w is not None:
            total += val * w
    return total


class RatMatrix:
    """Immutable sparse rational matrix, held as den and _ints, (row, col)
    -> den * value, nonzero, in insertion order; gcd(den, *_ints) is 1.

    entries is a Fraction view, built on each access.  Construction drops
    zeros and validates index bounds; instances are frozen afterwards,
    which makes the lazily built line views safe to cache.
    """

    __slots__ = ("rows", "cols", "den", "_ints", "_by_row", "_by_col")

    def __init__(self, rows: int, cols: int, entries: Optional[Mapping] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        clean = {}
        for (r, c), val in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, rows, cols))
            q = val if isinstance(val, int) else rational(val)
            if q:
                clean[(r, c)] = q
        den = lcm(*[q.denominator for q in clean.values()])
        self._fill(rows, cols, den, {key: q.numerator * (den // q.denominator)
                                     for key, q in clean.items()})

    @classmethod
    def _trusted(cls, rows: int, cols: int, ints: dict, den: int = 1) -> "RatMatrix":
        """The matrix ints / den, on nonzero integers known to lie inside the
        shape, taken as they are; den > 0 is reduced to the canonical one."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {key: v // g for key, v in ints.items()}
        m = object.__new__(cls)
        m._fill(rows, cols, den, ints)
        return m

    def _fill(self, rows: int, cols: int, den: int, ints: dict) -> None:
        for name, value in zip(self.__slots__, (rows, cols, den, ints, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @property
    def entries(self) -> dict:
        """(row, col) -> nonzero Fraction, in insertion order; a new dict on
        each access."""
        den = self.den
        return {key: Fraction(v, den) for key, v in self._ints.items()}

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._ints.get(key, 0), self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix)
                and (self.rows, self.cols, self.den) == (other.rows, other.cols, other.den)
                and self._ints == other._ints)

    def is_zero(self) -> bool:
        return not self._ints

    def _merge(self, other: "RatMatrix", op) -> "RatMatrix":
        """Entrywise op(self, other); other's new keys follow self's in order."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in %s" % op.__name__)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        ints = {key: fa * v for key, v in self._ints.items()}
        for key, v in other._ints.items():
            s = op(ints.get(key, 0), fb * v)
            if s:
                ints[key] = s
            else:
                ints.pop(key, None)
        return RatMatrix._trusted(self.rows, self.cols, ints, den)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._merge(other, operator.add)

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._merge(other, operator.sub)

    def scale(self, c) -> "RatMatrix":
        c = rational(c)
        if not c:
            return RatMatrix.zero(self.rows, self.cols)
        p = c.numerator
        return RatMatrix._trusted(self.rows, self.cols,
                                  {k: p * v for k, v in self._ints.items()},
                                  self.den * c.denominator)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._trusted(self.cols, self.rows,
                                  {(c, r): v for (r, c), v in self._ints.items()}, self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """The product, summed on integer entries over the denominator
        self.den * other.den (_int_product).  Entries come out in the order
        a Fraction loop over self's entries and other's rows would insert
        them: the partial sums are the same up to that positive factor, so
        the same ones vanish."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        return RatMatrix._trusted(self.rows, other.cols, _int_product(self, other),
                                  self.den * other.den)

    def _row_view(self) -> dict:
        """row -> {col: den * value} over the nonzero rows, built once."""
        if self._by_row is None:
            object.__setattr__(self, "_by_row", _group_lines(self._ints, 0))
        return self._by_row

    def _column_view(self) -> dict:
        """col -> {row: den * value} over the nonzero columns, built once."""
        if self._by_col is None:
            object.__setattr__(self, "_by_col", _group_lines(self._ints, 1))
        return self._by_col

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        return _combine(self._column_view(), v, self.den)

    def apply_functional(self, f: Vector) -> Vector:
        """Row vector times matrix (pullback of a functional)."""
        return _combine(self._row_view(), f, self.den)

    def column(self, c: int) -> Vector:
        den = self.den
        return {r: Fraction(v, den) for r, v in self._column_view().get(c, {}).items()}

    def columns(self) -> list:
        return [self.column(c) for c in range(self.cols)]

    def restrict_columns(self, cols: list) -> "RatMatrix":
        """Submatrix on the given columns, renumbered 0, 1, ... in that order."""
        view = self._column_view()
        ints = {}
        for local, c in enumerate(cols):
            for r, v in view.get(c, {}).items():
                ints[(r, local)] = v
        return RatMatrix._trusted(self.rows, len(cols), ints, self.den)

    def __repr__(self):
        return "RatMatrix(%d, %d, %d nonzero)" % (self.rows, self.cols, len(self._ints))


def _group_lines(entries: dict, axis: int) -> dict:
    """Split (row, col) entries into lines along axis 0 (rows) or 1 (columns);
    each line keeps the entries' insertion order."""
    lines = {}
    for key, v in entries.items():
        line = lines.get(key[axis])
        if line is None:
            line = lines[key[axis]] = {}
        line[key[1 - axis]] = v
    return lines


def _int_product(a: RatMatrix, b: RatMatrix) -> dict:
    """(row, col) -> nonzero integer entry of a.den * b.den * (a @ b)."""
    rows_b = b._row_view()
    acc = {}
    for (r, k), v in a._ints.items():
        line = rows_b.get(k)
        if line is None:
            continue
        for c, w in line.items():
            key = (r, c)
            s = acc.get(key, 0) + v * w
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


def _combine(lines: dict, coeffs: Vector, den: int) -> Vector:
    """Sum of coeffs[k] * lines[k] / den, zeros dropped."""
    acc = {}
    for k, coeff in coeffs.items():
        for idx, val in lines.get(k, {}).items():
            s = acc.get(idx, 0) + coeff * val
            if s:
                acc[idx] = s
            else:
                acc.pop(idx, None)
    if den != 1:
        return {idx: s / den for idx, s in acc.items()}
    return acc


def outer(v: Vector, f: Vector, rows: int, cols: int) -> RatMatrix:
    """Rank-one matrix v * f (column times row)."""
    entries = {}
    for r, a in v.items():
        for c, b in f.items():
            entries[(r, c)] = a * b
    return RatMatrix(rows, cols, entries)


def rank(m: RatMatrix) -> int:
    """Rank of m from its integer rows: a column-singleton peel, then
    forward-only elimination of the rows left, with no back-substitution.

    The peel (the first step of structured Gaussian elimination,
    LaMacchia-Odlyzko, CRYPTO '90) is exact.  If a row r alone holds column
    c among the rows M, r is outside the span of M - r, whose rows are all
    zero at c; so rank(M) = 1 + rank(M - r).  Removing r can leave another
    column with a single row, and the peel repeats until none is left.

    The rows left are eliminated in their original order, on copies of m's
    integer rows.  Each kept row is zero at the pivots of the rows kept
    before it, so one pass over the kept rows in insertion order clears a
    new row at every pivot: clearing a later pivot never brings back an
    earlier one.  Rows with no column singleton go through exactly that
    loop, as if there were no peel.
    """
    return _row_rank(m._row_view().values())


def _row_rank(rows: Iterable[dict]) -> int:
    """Rank of integer rows, as rank computes it: the number peeled plus the
    number kept.  No row is changed, so cached rows can be passed as they
    are."""
    rows = list(rows)
    holders = {}  # column -> positions of the live rows holding it
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    work = [c for c, held in holders.items() if len(held) == 1]
    peeled = set()
    while work:
        held = holders[work.pop()]
        if not held:  # its row was peeled through another column
            continue
        i = held.pop()
        peeled.add(i)
        for c in rows[i]:
            held = holders[c]
            held.discard(i)
            if len(held) == 1:
                work.append(c)
    kept = []  # (pivot, primitive integer row), in insertion order
    for i, raw in enumerate(rows):
        if i in peeled:
            continue
        row = dict(raw)
        for pivot, other in kept:
            if pivot in row:
                _eliminate(row, other, pivot)
        if row:
            _primitive(row)
            kept.append((min(row), row))
    return len(peeled) + len(kept)


def _primitive(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for idx, val in row.items():
            row[idx] = val // g


def _eliminate(row: dict, other: dict, pivot: int) -> None:
    """row := p*row - c*other with c = row[pivot] and p = other[pivot], both
    divided by their gcd; clears row[pivot] and keeps every entry an int."""
    c, p = row[pivot], other[pivot]
    g = gcd(c, p)
    c, p = c // g, p // g
    if p != 1:
        for idx, val in row.items():
            row[idx] = p * val
    for idx, val in other.items():
        s = row.get(idx, 0) - c * val
        if s:
            row[idx] = s
        else:
            del row[idx]


def _integer_row(raw: Vector) -> tuple:
    """(den, den * raw) with den the lcm of the denominators of raw."""
    den = lcm(*[v.denominator for v in raw.values()])
    return den, {idx: v.numerator * (den // v.denominator) for idx, v in raw.items() if v}


def _reduce(basis: dict, row: dict) -> None:
    """Clear an integer row, in place, at every pivot of basis it hits."""
    # basis rows are zero at each other's pivots, so clearing one hit pivot
    # never creates another
    for pivot in [idx for idx in row if idx in basis]:
        _eliminate(row, basis[pivot], pivot)


def _insert(basis: dict, row: dict) -> Optional[int]:
    """Reduce an integer row against basis and keep it if anything survives.

    The pivot of a kept row is its smallest nonnegative index; the row is
    made primitive and back-substituted into the other rows, so every row
    stays zero at the other rows' pivots.  Negative indices are never
    pivots: LinearSolver keeps its bookkeeping there.  Returns the new pivot,
    or None when the row was in the span.
    """
    _reduce(basis, row)
    pivot = min((idx for idx in row if idx >= 0), default=None)
    if pivot is None:
        return None
    _primitive(row)
    for other in basis.values():
        if pivot in other:
            _eliminate(other, row, pivot)
            _primitive(other)
    basis[pivot] = row
    return pivot


def _rref(rows: Iterable[dict]) -> list:
    """The canonical RREF rows of the span of integer rows, which it takes
    over: ordered by pivot, entries by index, one Fraction per entry."""
    basis = {}
    for row in rows:
        _insert(basis, row)
    out = []
    for pivot in sorted(basis):
        row = basis[pivot]
        lead = row[pivot]
        out.append({idx: Fraction(row[idx], lead) for idx in sorted(row)})
    return out


def rref_rows(row_vectors: Iterable[Vector]) -> list:
    """Canonical reduced row echelon basis of the span of the given rows.

    The output depends only on the row span: fully reduced, pivot entries 1,
    rows ordered by pivot column and entries by index.  Elimination runs on
    integer rows (see the module docstring).
    """
    return _rref(_integer_row(raw)[1] for raw in row_vectors)


def kernel_basis(m: RatMatrix) -> list:
    """Canonical kernel basis of m, one vector per free column.

    Computed from the reduced row echelon form; each basis vector carries a 1
    at its free column and is supported elsewhere only on pivot columns, so
    the family is in reduced (column) echelon shape and reproducible.
    """
    basis = {}
    for line in m._row_view().values():
        _insert(basis, dict(line))
    free = {c: {c: Fraction(1)} for c in range(m.cols) if c not in basis}
    for pivot in sorted(basis):
        row = basis[pivot]
        lead = row[pivot]
        for c, val in row.items():
            if c != pivot:
                free[c][pivot] = Fraction(-val, lead)
    return list(free.values())


def image_basis(m: RatMatrix) -> list:
    """Canonical basis of the column space (reduced echelon over columns)."""
    return _rref(map(dict, m._column_view().values()))


class LinearSolver:
    """Incremental exact span of added vectors, kept as integer RREF rows.

    The rows are those of the shared eliminator (_insert).  Besides its
    vector entries, each row carries under the negative key -1 - k the
    coefficient of the k-th added vector in it, scaled with the row, so one
    elimination both keeps the span and expresses targets in the original
    family.  Fractions are built only for returned values.  add's result is
    the unique vector of v + span(earlier) that is zero at the span's pivots
    (each kept row's smallest index), normalised to 1 at its own pivot;
    express is unique because the kept vectors are independent.
    """

    def __init__(self):
        self._basis = {}  # pivot -> integer row with expression keys
        self._added = 0

    @property
    def dim(self) -> int:
        return len(self._basis)

    def _add_integer(self, row: dict, den: int) -> Optional[int]:
        """Add the vector row / den, handing over its integer row; returns
        the new pivot, or None when the vector was in the span."""
        row[-1 - self._added] = den
        self._added += 1
        return _insert(self._basis, row)

    def _add_columns(self, m: RatMatrix, cols: Iterable[int]) -> None:
        """Add the given columns of m, read from its integer column view."""
        view = m._column_view()
        for c in cols:
            self._add_integer(dict(view.get(c, ())), m.den)

    def add(self, v: Vector) -> Optional[Vector]:
        """Add a vector; return its normalized reduced form if independent."""
        den, row = _integer_row(v)
        pivot = self._add_integer(row, den)
        if pivot is None:
            return None
        lead = row[pivot]
        return {idx: Fraction(val, lead) for idx, val in row.items() if idx >= 0}

    def contains(self, target: Vector) -> bool:
        row = _integer_row(target)[1]
        _reduce(self._basis, row)
        return all(idx < 0 for idx in row)

    def express(self, target: Vector) -> Optional[Vector]:
        """Coefficients over the added vectors reproducing target, or None."""
        tag = -1 - self._added
        den, row = _integer_row(target)
        row[tag] = den
        _reduce(self._basis, row)
        if any(idx >= 0 for idx in row):
            return None
        # 0 = row[tag] * target + sum_k row[-1 - k] * added_k
        scale = -row.pop(tag)
        return {-1 - idx: Fraction(val, scale) for idx, val in row.items()}


def solve_columns(m: RatMatrix, b: Vector) -> Optional[Vector]:
    """Express b in the columns of m; returns col index -> coeff, or None."""
    solver = LinearSolver()
    solver._add_columns(m, range(m.cols))
    return solver.express(b)


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    solver = LinearSolver()
    solver._add_columns(m, range(m.cols))
    entries = {}
    for i in range(m.rows):
        expr = solver.express({i: Fraction(1)})
        if expr is None:
            raise ValueError("matrix is singular")
        for j, v in expr.items():
            entries[(j, i)] = v
    return RatMatrix(m.rows, m.cols, entries)

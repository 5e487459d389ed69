"""Fraction reference for RatMatrix, kept with the tests as the oracle of
its integer form.

Every function works on plain dicts (row, col) -> Fraction, as RatMatrix
stored its entries before it held only a denominator and integers: each
value is a Fraction, zeros are never stored, and a sum that reaches zero is
popped, so a later nonzero contribution re-enters the key at the end.  The
entry orders below are the ones the integer form must reproduce.
"""

import operator
import re
from fractions import Fraction


def fraction_value(value) -> Fraction:
    """A constructor entry as the Fraction it stands for: ints, Fractions,
    or 'p' and 'p/q' strings read by Fraction(str)."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str) and re.match(r"^-?\d+(/[1-9]\d*)?$", value.strip()):
        return Fraction(value.strip())
    raise ValueError("not an exact rational: %r" % (value,))


def fraction_entries(raw: dict) -> dict:
    """The constructor's entries: each value read, zeros dropped, in order."""
    out = {}
    for key, value in raw.items():
        q = fraction_value(value)
        if q:
            out[key] = q
    return out


def _merge(left: dict, right: dict, op) -> dict:
    out = dict(left)
    for key, v in right.items():
        s = op(out.get(key, 0), v)
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def fraction_add(left: dict, right: dict) -> dict:
    return _merge(left, right, operator.add)


def fraction_sub(left: dict, right: dict) -> dict:
    return _merge(left, right, operator.sub)


def fraction_scale(entries: dict, c: Fraction) -> dict:
    return {key: c * v for key, v in entries.items()} if c else {}


def fraction_transpose(entries: dict) -> dict:
    return {(c, r): v for (r, c), v in entries.items()}


def fraction_restrict_columns(entries: dict, cols: list) -> dict:
    """Columns in the given order, each column's entries in entry order."""
    out = {}
    for local, c in enumerate(cols):
        for (r, k), v in entries.items():
            if k == c:
                out[(r, local)] = v
    return out


def fraction_matmul(left: dict, right: dict) -> dict:
    """(row, col) -> Fraction entries of left @ right, in insertion order."""
    by_row = {}
    for (k, c), w in right.items():
        by_row.setdefault(k, {})[c] = w
    acc = {}
    for (r, k), v in left.items():
        for c, w in by_row.get(k, {}).items():
            key = (r, c)
            s = acc.get(key, 0) + v * w
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


def fraction_apply(entries: dict, v: dict) -> dict:
    """The matrix times the column vector v, zeros dropped."""
    out = {}
    for (r, c), w in entries.items():
        if c in v:
            out[r] = out.get(r, 0) + w * v[c]
    return {r: s for r, s in out.items() if s}


def fraction_rref(row_vectors) -> list:
    """Incremental Gauss-Jordan elimination over Fraction, as rref_rows was
    before it became fraction-free."""
    basis = []  # (pivot, row)
    for raw in row_vectors:
        row = dict(raw)
        for pivot, other in basis:
            coeff = row.get(pivot)
            if coeff:
                for idx, val in other.items():
                    s = row.get(idx, 0) - coeff * val
                    if s:
                        row[idx] = s
                    else:
                        row.pop(idx, None)
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {idx: inv * val for idx, val in row.items()}
        for i, (p, other) in enumerate(basis):
            coeff = other.get(pivot)
            if coeff:
                new = dict(other)
                for idx, val in row.items():
                    s = new.get(idx, 0) - coeff * val
                    if s:
                        new[idx] = s
                    else:
                        new.pop(idx, None)
                basis[i] = (p, new)
        basis.append((pivot, row))
        basis.sort(key=lambda t: t[0])
    return [row for _, row in basis]


def fraction_kernel(entries: dict, cols: int) -> list:
    """One kernel vector per free column of the RREF, 1 at that column."""
    rows = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    pivots = {min(row): row for row in fraction_rref(rows.values())}
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = {c: Fraction(1)}
        for p, row in pivots.items():
            if row.get(c):
                vec[p] = -row[c]
        basis.append(vec)
    return basis


def fraction_image(entries: dict, cols: int) -> list:
    """The RREF of the columns."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        columns[c][r] = v
    return fraction_rref(columns)

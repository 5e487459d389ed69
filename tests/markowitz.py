"""Independent rank oracle for the shared integer eliminator.

Exact Fraction elimination with Markowitz pivoting: a different pivot
order, different arithmetic and no back-substitution, so a test comparing
its rank with linalg's cannot pass through a shared fault.

forward_rank_reference is not independent: it is linalg's forward rank
loop as it stood before the column-singleton peel, kept to pin the
eliminations _row_rank runs on rows that do not peel.
"""

from floer_workbench.linalg import _eliminate, _primitive


def markowitz_rank(entries: dict) -> int:
    """Rank by exact elimination with Markowitz pivoting.

    Pivot minimizes (row fill - 1) * (col fill - 1) with ties broken on the
    (row, col) pair, which bounds fill-in and keeps the run deterministic.
    """
    rows = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    rank = 0
    while rows:
        col_count = {}
        for cols in rows.values():
            for c in cols:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for r in rows:
            row_fill = len(rows[r])
            for c in rows[r]:
                score = (row_fill - 1) * (col_count[c] - 1)
                key = (score, r, c)
                if best is None or key < best:
                    best = key
        _, pr, pc = best
        pivot_row = rows.pop(pr)
        pivot_val = pivot_row[pc]
        rank += 1
        for r in list(rows):
            row = rows[r]
            coeff = row.get(pc)
            if not coeff:
                continue
            factor = coeff / pivot_val
            for c, v in pivot_row.items():
                s = row.get(c, 0) - factor * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
            if not row:
                del rows[r]
    return rank


def forward_rank_reference(rows) -> tuple:
    """(rank, eliminations) of the forward loop with no peel: each row, in
    order, cleared at the pivots of the rows kept before it.  eliminations
    lists (pivot, len(row)) for each _eliminate call, in call order."""
    eliminations = []
    kept = []  # (pivot, primitive integer row), in insertion order
    for raw in rows:
        row = dict(raw)
        for pivot, other in kept:
            if pivot in row:
                eliminations.append((pivot, len(row)))
                _eliminate(row, other, pivot)
        if row:
            _primitive(row)
            kept.append((min(row), row))
    return len(kept), eliminations

"""Independent rank oracle for the shared integer eliminator.

Exact Fraction elimination with Markowitz pivoting: a different pivot
order, different arithmetic and no back-substitution, so a test comparing
its rank with linalg's cannot pass through a shared fault.
"""


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

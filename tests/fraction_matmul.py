"""Reference sparse product for RatMatrix.__matmul__.

The plain Fraction loop that __matmul__ ran before it moved onto integer
numerators: every partial sum is a Fraction, and a sum that reaches zero is
popped, so a later nonzero contribution re-enters the key at the end.  Its
entry order is the one the integer product must reproduce.
"""


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

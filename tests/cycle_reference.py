"""Reference kernel-cycle builders for the sum-bound oracle tests.

These build the pair and triple cycles the direct way, each by its own
formula: the pair cycle recomputes every N'-power of the right witness
from scratch, and the triple cycle applies N to whole tensors for every
(i, j).  connect_sum builds both through one shared m-factor path; a
fault in the expansion, the powers or the summation there shows up as a
mismatch with these.
"""

from floer_workbench.invariants import n_map
from floer_workbench.linalg import solve_columns, vec_add


def _factor_apply(op, axis, tensor):
    """Apply op to one slot of a tensor dict."""
    out = {}
    for key, coeff in tensor.items():
        for (r, c), v in op.entries.items():
            if c != key[axis]:
                continue
            new_key = key[:axis] + (r,) + key[axis + 1:]
            s = out.get(new_key, 0) + coeff * v
            if s:
                out[new_key] = s
            else:
                out.pop(new_key, None)
    return out


def _iterate(op, v, k):
    for _ in range(k):
        v = op.apply(v)
    return v


def _add_outer(alpha, left, right):
    for ai, av in left.items():
        for bj, bv in right.items():
            key = (ai, bj)
            s = alpha.get(key, 0) + av * bv
            if s:
                alpha[key] = s
            else:
                alpha.pop(key, None)


def reference_pair_cycle(a, b, wa, wb, n):
    """sum_i N^i wa (x) N'^(n-1-i) wb + N^i a' (x) N'^(n-1-i) (u' wb),
    with a' the u-preimage of wa."""
    a_pre = solve_columns(a.u, wa)
    assert a_pre is not None, "witness has no u-preimage"
    na_map, nb_map = n_map(a.u), n_map(b.u)
    ub_wb = b.u.apply(wb)
    alpha = {}
    left_ua, left_pre = dict(wa), dict(a_pre)
    for i in range(n):
        _add_outer(alpha, left_ua, _iterate(nb_map, wb, n - 1 - i))
        _add_outer(alpha, left_pre, _iterate(nb_map, ub_wb, n - 1 - i))
        left_ua = na_map.apply(left_ua)
        left_pre = na_map.apply(left_pre)
    return alpha


def reference_triple_cycle(a, b, c, wa, wb, wc, n):
    """sum_{i,j} N^(i+j) (x) N'^(n-1-i) (x) N''^(n-1-j) applied to
    (u1 + u2)(u1 + u3)(wa (x) wb (x) wc)."""
    base = {(ai, bj, ck): av * bv * cv
            for ai, av in wa.items() for bj, bv in wb.items()
            for ck, cv in wc.items()}
    t = vec_add(_factor_apply(a.u, 0, base), _factor_apply(b.u, 1, base))
    t = vec_add(_factor_apply(a.u, 0, t), _factor_apply(c.u, 2, t))
    na_map, nb_map, nc_map = n_map(a.u), n_map(b.u), n_map(c.u)
    alpha = {}
    for i in range(n):
        for j in range(n):
            term = t
            for _ in range(i + j):
                term = _factor_apply(na_map, 0, term)
            for _ in range(n - 1 - i):
                term = _factor_apply(nb_map, 1, term)
            for _ in range(n - 1 - j):
                term = _factor_apply(nc_map, 2, term)
            alpha = vec_add(alpha, term)
    return alpha

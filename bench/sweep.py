"""Layer size sweep: library calls at growing sizes, timed with tracing off.

Each point is named `<layer>.<case>_ms` and is the median wall time of a
few calls.  Sizes follow ROADMAP item 1: self-sums of nPplusModel:k for
k = 4, 8, 12 and 20 (144 to 3280 generators), the eta count path on w0^n,
verify_sum_bound on NilpotentLadder triples, polyid up to n = 7, and
seeded random sparse integer matrices for the eliminators.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction


# points the quick self-check leaves out; each takes seconds
SLOW = {"homology.self_sum_k20_ms", "lattice.eta_w0_4_ms"}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _sparse_matrix(rng, n: int, linalg):
    """n x n integer matrix with about four entries in [-3, 3] per column
    and rank about 3n/4, so kernels are not trivial."""
    entries = {}
    for c in range(n * 3 // 4):
        for r in rng.sample(range(n), 4):
            v = rng.randint(-3, 3)
            if v:
                entries[(r, c)] = Fraction(v)
    return linalg.RatMatrix(n, n, entries)


def points(seed: int, quick: bool = False) -> list:
    """(name, zero-argument call, repeats) for every sweep point; with
    quick, those in SLOW are left out."""
    from floer_workbench import connect_sum, fixtures, lattice, linalg, polyid
    import importlib
    homology = importlib.import_module("floer_workbench.homology")
    out = []
    for k in (4, 8, 12, 20):
        name = "homology.self_sum_k%d_ms" % k
        if quick and name in SLOW:
            continue
        model = fixtures.builtin("nPplusModel:%d" % k)
        total = connect_sum.connected_sum_complex(model, model).total
        out.append((name, lambda t=total: homology.homology(t), 1 if k >= 12 else 3))
    for n in (1, 2, 3, 4):
        name = "lattice.eta_w0_%d_ms" % n
        if quick and name in SLOW:
            continue
        w = lattice.parse_vector("w0^%d" % n)
        out.append((name, lambda w=w: lattice.eta(w, keep_vectors=False), 1 if n == 4 else 3))
    for k in (2, 4, 8):
        ladder = fixtures.builtin("NilpotentLadder:%d" % k)
        f = {ladder.complex.index_of("z%d" % k): Fraction(1)}
        out.append(("connect_sum.sum_bound_ladder%d_triple_ms" % k,
                    lambda d=ladder, f=f: connect_sum.verify_sum_bound(d, d, d, fa=f, fb=f, fc=f),
                    3))
    for n in (3, 5, 7):
        out.append(("polyid.telescoping_n%d_ms" % n,
                    lambda n=n: polyid.verify_telescoping(n), 3))
    out.append(("polyid.triple_n3_ms", lambda: polyid.verify_triple_identity(3), 3))
    rng = random.Random("sweep/%d" % seed)
    for n in (32, 64, 128):
        m = _sparse_matrix(rng, n, linalg)
        rows = {}
        for (r, c), v in m.entries.items():
            rows.setdefault(r, {})[c] = v
        rows = list(rows.values())
        out.append(("linalg.rank_n%d_ms" % n, lambda m=m: linalg.rank(m), 3))
        out.append(("linalg.kernel_basis_n%d_ms" % n, lambda m=m: linalg.kernel_basis(m), 3))
        out.append(("linalg.rref_rows_n%d_ms" % n, lambda r=rows: linalg.rref_rows(r), 3))
    return out


def run(seed: int, quick: bool = False) -> dict:
    return {name: _median_ms(fn, repeats) for name, fn, repeats in points(seed, quick)}

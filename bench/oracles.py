"""Expected report values, computed without the code paths the jobs time.

Ranks come from a dense Gaussian elimination written here, not from
`floer_workbench.linalg`, so a wrong eliminator cannot confirm itself.
Lattice counts come from E8 facts (Conway-Sloane, SPLAG ch. 4): the 256
classes of E8/2E8 are the zero class, 120 classes holding one +-pair of
roots, and 135 classes holding 16 vectors of norm 4.  Blocks are
orthogonal, so for a class whose every block is minimal in its own class
the count is the product of the per-block counts.
"""

from __future__ import annotations

from fractions import Fraction

DEGREE_MOD = 8
# per-block count of congruent vectors of the same norm, by the block's
# (minimal) norm; see the module docstring
BLOCK_COUNT = {0: 1, 2: 2, 4: 16}
# a single block 2r with r a root: class zero, norm 8, its members are 2e
# for the 240 roots e
TWICE_ROOT_COUNT = 240


def rank(rows: list) -> int:
    """Rank of a dense matrix given as a list of rows of Fractions."""
    m = [list(r) for r in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        inv = 1 / m[rk][c]
        for i in range(rk + 1, len(m)):
            f = m[i][c] * inv
            if f:
                row, top = m[i], m[rk]
                for j in range(c, ncols):
                    row[j] -= f * top[j]
        rk += 1
    return rk


def _block(entries: dict, rows: list, cols: list) -> list:
    return [[entries.get((r, c), Fraction(0)) for c in cols] for r in rows]


def _by_degree(degrees) -> dict:
    out = {r: [] for r in range(DEGREE_MOD)}
    for i, d in enumerate(degrees):
        out[d % DEGREE_MOD].append(i)
    return out


def homology_dims(data) -> dict:
    """Graded Betti numbers by rank-nullity on the degree blocks of d."""
    idx = _by_degree(data.complex.degrees)
    d = data.complex.differential.entries
    ranks = {r: rank(_block(d, idx[(r - 1) % DEGREE_MOD], idx[r]))
             for r in range(DEGREE_MOD)}
    dims = {r: len(idx[r]) - ranks[r] - ranks[(r + 1) % DEGREE_MOD]
            for r in range(DEGREE_MOD)}
    return {r: n for r, n in dims.items() if n}


def union_dims(ra, rb) -> dict:
    """Homology of the disjoint union from the factor homologies ra, rb.

    The union complex is quasi-isomorphic to the cone of u (x) 1 - 1 (x) u'
    on H(a) (x) H(b), a map of degree -4, so its homology in degree r is the
    kernel of that map on degree r plus its cokernel in degree r - 3.
    """
    na, nb = ra.size, rb.size
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    index = {p: k for k, p in enumerate(pairs)}
    degree = [(ra.complex.degrees[i] + rb.complex.degrees[j]) % DEGREE_MOD
              for i, j in pairs]
    phi = {}
    for (r, c), v in ra.u.entries.items():
        for j in range(nb):
            key = (index[(r, j)], index[(c, j)])
            phi[key] = phi.get(key, 0) + v
    for (r, c), v in rb.u.entries.items():
        for i in range(na):
            key = (index[(i, r)], index[(i, c)])
            phi[key] = phi.get(key, 0) - v
    idx = _by_degree(degree)
    dims = {}
    for r in range(DEGREE_MOD):
        src = idx[r]
        kernel = len(src) - rank(_block(phi, idx[(r - 4) % DEGREE_MOD], src))
        target = idx[(r - 3) % DEGREE_MOD]
        coker = len(target) - rank(_block(phi, target, idx[(r + 1) % DEGREE_MOD]))
        if kernel + coker:
            dims[r] = kernel + coker
    return dims


def format_dims(dims: dict) -> str:
    return " ".join("%d:%d" % (r, n) for r, n in sorted(dims.items()) if n) or "none"


def doubled_blocks(coords: list) -> list:
    """Doubled integer coordinates split into blocks of eight."""
    doubled = [int(Fraction(c) * 2) for c in coords]
    return [doubled[i:i + 8] for i in range(0, len(doubled), 8)]


def block_norm(block: list) -> int:
    """Norm (sum of squares) of one block given in doubled coordinates."""
    return sum(c * c for c in block) // 4


def extremal_count(coords: list) -> int:
    """Count of congruent equal-norm vectors for an all-minimal class."""
    count = 1
    for block in doubled_blocks(coords):
        count *= BLOCK_COUNT[block_norm(block)]
    return count

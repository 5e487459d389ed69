"""Graded homology and reduction of FloerData onto its homology.

One pass per complex restricts the differential to the columns of each
nonempty degree block once; that block's canonical kernel basis is the
cycles in its degree and its canonical image basis the boundaries one degree
down.  homology() keeps both on the space it returns, so reduce_to_homology
reads them instead of eliminating the blocks again.

Reports that print only dimensions need no basis: with n_r generators in
degree r, dim H_r = n_r - rank d_r - rank d_(r+1), where d_r is the block
of degree-r columns.  As d lowers degree by one, the nonzero rows of that
block are exactly d's rows in degree r - 1, so _rank_counts groups d's
cached integer rows by degree and takes one rank per nonempty degree block
on its row group (linalg._row_rank): a column-singleton peel, then
forward-only elimination of the rows it leaves.  The blocks of the
nPplusModel:k self-sums peel completely, with no elimination.  No column
block is built.  homology() stays the path for representatives and the
oracle for those counts.

Representatives are picked degree by degree: seed an exact solver with the
boundary basis, then sweep the cycle basis and keep each cycle's reduced
remainder.  The choices depend only on the generator order, so repeated runs
agree entry for entry.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .complexes import DEGREE_MOD, FloerData, GradedComplex, require_valid
from .linalg import (LinearSolver, RatMatrix, Vector, _row_rank, dot,
                     image_basis, kernel_basis, outer)


class DescentObstruction(ValueError):
    """u does not descend to homology because delta_prime . delta != 0."""


class DegreeMismatch(ValueError):
    """Functional and class live in incompatible degrees."""


class GradedVectorSpace(namedtuple("GradedVectorSpace",
                                   "dims representatives cycles boundaries")):
    """Homology presented by residue: dimensions and cycle representatives.

    representatives[r] is a list of chain vectors (over the original
    generators), one per homology class in degree r.  cycles[r] and
    boundaries[r] are the canonical bases of the degree-r cycles and
    boundaries they were chosen from.
    """

    __slots__ = ()


def _lift(cols: list, local: list) -> list:
    """Block-local vectors as chain vectors over all generators."""
    return [{cols[i]: v for i, v in vec.items()} for vec in local]


def cycle_basis(cx: GradedComplex, residue: int) -> list:
    """Canonical basis of the degree-residue cycles, as chain vectors."""
    cols = cx.indices_in_degree(residue)
    if not cols:
        return []
    return _lift(cols, kernel_basis(cx.differential.restrict_columns(cols)))


def boundary_basis(cx: GradedComplex, residue: int) -> list:
    """Canonical basis of the boundaries landing in the given degree."""
    cols = cx.indices_in_degree((residue + 1) % DEGREE_MOD)
    if not cols:
        return []
    return image_basis(cx.differential.restrict_columns(cols))


def _degree_blocks(cx: GradedComplex) -> dict:
    """residue -> generator indices in that degree, for the nonempty degrees."""
    blocks = {}
    for i, r in enumerate(cx.degrees):
        blocks.setdefault(r, []).append(i)
    return blocks


def _rank_counts(cx: GradedComplex) -> tuple:
    """(cycle counts, boundary counts) by residue, from one rank per block.

    The block in degree r has rank d_r, the rank of d's rows in degree
    r - 1, so dim Z_r = n_r - rank d_r and dim B_(r-1) = rank d_r; dim H_r
    is their difference.  cx must be a complex with d of degree -1, as for
    homology().
    """
    cycles = dict.fromkeys(range(DEGREE_MOD), 0)
    boundaries = dict.fromkeys(range(DEGREE_MOD), 0)
    degrees = cx.degrees
    row_groups = {}
    for r, line in cx.differential._row_view().items():
        row_groups.setdefault(degrees[r], []).append(line)
    for r, n in cx.dims_by_degree().items():
        below = (r - 1) % DEGREE_MOD
        k = _row_rank(row_groups.get(below, ()))
        cycles[r] = n - k
        boundaries[below] = k
    return cycles, boundaries


def _block_bases(cx: GradedComplex) -> tuple:
    """(cycles, boundaries) by residue, restricting each nonempty block once.

    The block in degree r yields the degree-r cycles and, since d lowers
    degree by one, the boundaries in degree r - 1.
    """
    cycles = {r: [] for r in range(DEGREE_MOD)}
    boundaries = {r: [] for r in range(DEGREE_MOD)}
    for r, cols in sorted(_degree_blocks(cx).items()):
        sub = cx.differential.restrict_columns(cols)
        cycles[r] = _lift(cols, kernel_basis(sub))
        boundaries[(r - 1) % DEGREE_MOD] = image_basis(sub)
    return cycles, boundaries


def homology(cx: GradedComplex) -> GradedVectorSpace:
    """Graded homology with reduced cycle representatives per degree.

    cx must be a complex (d o d = 0), which callers establish by validation
    or by construction.
    """
    cycles, boundaries = _block_bases(cx)
    dims = {}
    reps = {}
    for r in range(DEGREE_MOD):
        chosen = []
        # d o d = 0 puts the boundaries inside the cycles, so equal counts
        # leave no class to choose and the sweep is skipped
        if len(cycles[r]) > len(boundaries[r]):
            solver = LinearSolver()
            for b in boundaries[r]:
                solver.add(b)
            for z in cycles[r]:
                reduced = solver.add(z)
                if reduced is not None:
                    chosen.append(reduced)
        dims[r] = len(chosen)
        reps[r] = chosen
    return GradedVectorSpace(dims=dims, representatives=reps,
                             cycles=cycles, boundaries=boundaries)


def pair(f: Vector, x: Vector, degrees: Optional[dict] = None) -> Fraction:
    """Evaluate a functional on a class.

    When degrees are supplied (index -> residue), the supports of f and x
    must sit in one common residue; mixed or disagreeing supports raise
    DegreeMismatch.  The duality convention pairs a degree-r functional with
    degree-r classes, so this is the check that both sides match.
    """
    if degrees is not None:
        seen = {degrees[i] for i in f} | {degrees[i] for i in x}
        if len(seen) > 1:
            raise DegreeMismatch("supports span degrees %s" % sorted(seen))
    return dot(f, x)


def _homology_solvers(space: GradedVectorSpace) -> dict:
    """Per-residue solvers seeded with boundaries, then representatives.

    The boundaries are the ones homology() kept on space, so no block is
    eliminated again.  express() coefficients with id >= the boundary count
    give the coordinates of a cycle in the chosen homology basis.
    """
    solvers = {}
    for r in range(DEGREE_MOD):
        solver = LinearSolver()
        nb = 0
        for b in space.boundaries[r]:
            solver.add(b)
            nb += 1
        for h in space.representatives[r]:
            solver.add(h)
        solvers[r] = (solver, nb)
    return solvers


def class_coordinates(solvers: dict, cycle: Vector, residue: int) -> Vector:
    """Coordinates of a cycle's class in the degree-residue representative basis."""
    solver, nb = solvers[residue]
    expr = solver.express(cycle)
    if expr is None:
        raise ValueError("vector is not a cycle in degree %d" % residue)
    return {i - nb: v for i, v in expr.items() if i >= nb}


def reduce_to_homology(data: FloerData) -> FloerData:
    """Carry (u, delta, delta_prime) onto homology; differential becomes zero.

    Requires the composite delta_prime . delta to vanish, which by the chain
    relation makes u commute with the differential so that it descends.  The
    result is again valid FloerData and reducing twice is the identity.
    """
    require_valid(data)
    cx = data.complex
    composite = outer(data.delta_prime, data.delta, cx.size, cx.size)
    if not composite.is_zero():
        key = min(composite._ints)
        raise DescentObstruction(
            "delta_prime . delta != 0 (e.g. %s -> %s), u does not descend"
            % (cx.names[key[1]], cx.names[key[0]]))

    space = homology(cx)
    solvers = _homology_solvers(space)

    order = []  # (residue, position) in generator order
    names = []
    degrees = []
    base = {}
    for r in range(DEGREE_MOD):
        for i, _ in enumerate(space.representatives[r]):
            base[(r, i)] = len(order)
            order.append((r, i))
            names.append("h%d_%d" % (r, i))
            degrees.append(r)

    u_entries = {}
    for (r, i) in order:
        col = base[(r, i)]
        image = data.u.apply(space.representatives[r][i])
        target = (r - 4) % DEGREE_MOD
        coords = class_coordinates(solvers, image, target)
        for j, v in coords.items():
            u_entries[(base[(target, j)], col)] = v

    delta0 = {}
    for (r, i) in order:
        val = dot(data.delta, space.representatives[r][i])
        if val:
            delta0[base[(r, i)]] = val

    delta_prime0 = {}
    if data.delta_prime:
        coords = class_coordinates(solvers, dict(data.delta_prime), 4)
        delta_prime0 = {base[(4, j)]: v for j, v in coords.items()}

    n = len(order)
    reduced = FloerData(
        complex=GradedComplex(tuple(names), tuple(degrees), RatMatrix.zero(n, n)),
        u=RatMatrix(n, n, u_entries),
        delta=delta0,
        delta_prime=delta_prime0,
        kind=data.kind,
    )
    return reduced


def euler_characteristic_mod2(dims: dict) -> int:
    """Alternating sum of graded dimensions by residue parity."""
    return sum(n if r % 2 == 0 else -n for r, n in dims.items())

"""Full-size readings of a disjoint union, kept with the tests as the
oracles of what disjoint-union reports from its reduced factors.

The connect_sum module docstring proves three statements: the union of the
reduced factors has the full union's homology, u (x) I commutes with the
full union's differential, and every cycle of the reduced union passes
kernel_symmetry_check.  extended_u is the placement of u (x) I that the
second statement is about, as the CLI built it before it read the verdict
off the factors.
"""

from floer_workbench.linalg import RatMatrix


def extended_u(cs) -> RatMatrix:
    """The action u (x) I on both tensor summands of a disjoint union."""
    if cs.shape != (1, 4):
        raise ValueError("extended u is defined on two-summand complexes")
    nb, o4, n = cs.right.size, cs.offsets[3], cs.total.size
    ent = {}
    for (r, c), v in cs.left.u._ints.items():
        for j in range(nb):
            ent[(r * nb + j, c * nb + j)] = v
            ent[(o4 + r * nb + j, o4 + c * nb + j)] = v
    return RatMatrix._trusted(n, n, ent, cs.left.u.den)

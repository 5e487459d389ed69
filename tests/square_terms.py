"""Full-size square terms of a sum complex, kept with the tests as the
oracle of connect_sum._orbit_verdicts.

An assembly's differential is D(s) = D0 + sum_k s_k X_k over its diagonal
block D0 and its five cross blocks, so with s_k^2 = 1

    D(s)^2 = sum over m of (prod_{k in m} s_k) T_m,

m a set of sign names and T_m the sum of the block products whose signs
multiply to that monomial.  square_terms forms all 36 products of two
blocks at full size, as connect_sum did before it read the verdicts off
the factors.
"""

import itertools
import math

from floer_workbench.connect_sum import SignConfig, _orbit_class
from floer_workbench.linalg import RatMatrix


def square_terms(asm) -> dict:
    """The nonzero T_m, keyed by frozensets of sign names: a product of two
    blocks carries the signs of both, and a sign met twice squares to 1."""
    blocks = [(frozenset(), asm.diagonal)]
    blocks += [(frozenset((name,)), x) for name, x in asm.cross.items()]
    blocks = [(m, RatMatrix._trusted(asm.size, asm.size, x, asm.den))
              for m, x in blocks]
    terms, zero = {}, RatMatrix.zero(asm.size, asm.size)
    for (m, x), (n, y) in itertools.product(blocks, repeat=2):
        terms[m ^ n] = terms.get(m ^ n, zero) + x @ y
    return {m: t for m, t in terms.items() if not t.is_zero()}


def signed_square(terms: dict, signs: SignConfig) -> RatMatrix:
    """D(signs)^2 as the signed sum of the square terms; None when there
    are no terms."""
    square = None
    for m, t in terms.items():
        if math.prod(getattr(signs, name) for name in m) < 0:
            t = -t
        square = t if square is None else square + t
    return square


def term_verdicts(terms: dict) -> dict:
    """(c2, c3) -> whether D(s)^2 = 0 on that orbit, from the signed sum of
    the square terms at the orbit's first configuration."""
    verdicts = {}
    for cfg in itertools.product((1, -1), repeat=5):
        signs = SignConfig(*cfg)
        key = _orbit_class(signs)
        if key not in verdicts:
            square = signed_square(terms, signs)
            verdicts[key] = square is None or square.is_zero()
    return verdicts


def constraint_terms(a, b, size: int, offsets: tuple) -> tuple:
    """(P_A, P_B): delta_prime . delta (x) I and (-1)^|a| I (x)
    delta_prime' . delta' as maps S1 -> S4 of the sum of a and b."""
    nb, o4 = b.size, offsets[3]
    p_a, p_b = {}, {}
    for r, x in a.delta_prime.items():
        for i, y in a.delta.items():
            for j in range(nb):
                p_a[(o4 + r * nb + j, i * nb + j)] = x * y
    for i in range(a.size):
        sign = (-1) ** a.complex.degrees[i]
        for r, x in b.delta_prime.items():
            for j, y in b.delta.items():
                p_b[(o4 + i * nb + r, i * nb + j)] = sign * x * y
    return RatMatrix(size, size, p_a), RatMatrix(size, size, p_b)

"""Builtin model data, random generators, and the fixture file format.

Builtin fixtures
----------------
Pplus / Pminus        two-generator homology-sphere data in degrees (0, 4)
                      and (1, 5); dual to each other.  The off-ladder value
                      u(rho0) (resp. u(rho1)) is not pinned down by the
                      defining relations, so it is a parameter, default 0.
nPplusModel:n         2n generators; delta_prime(1) starts a length-n
                      (u^2 - 4) ladder, giving h = -n.
TrefoilLikeSynthetic  degrees (1, 5) with u^2 = 4 and a unit boundary
                      functional; the minimal phi = 1 example.
NilpotentLadder:k     admissible two-row model whose (u^2 - 4) has exact
                      nilpotency order k on the distinguished vector z1.

Each is one two-row ladder (_ladder).  Orders above ORDER_CAP are refused
before anything is built.

File format
-----------
Line oriented, whitespace separated, full-line # comments, six sections:
kind, generators, differential, u, delta, delta_prime.  Matrix entries read
"source target coefficient" and mean map(source) += coefficient * target.
Coefficients are exact rationals 'p' or 'p/q'; floats are rejected.  A
document that declares more than GENERATOR_CAP generators is refused
before any matrix line is read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple

from .complexes import (DEGREE_MOD, FloerData, GradedComplex, Kind,
                        _validate_and_mark)
from .linalg import RatMatrix, Vector, _rational_parts, invert, rational

SECTION_NAMES = ("kind", "generators", "differential", "u", "delta", "delta_prime")


class FixtureError(KeyError):
    """Unknown fixture name or missing/extra fixture parameter."""


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


class SemanticError(ValueError):
    """Document parsed, but the data violates a named structural invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__("%s: %s" % (invariant, detail))


# ---------------------------------------------------------------------------
# builtin fixtures


def _matrix(names, mapping) -> RatMatrix:
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    entries = {}
    for src, images in mapping.items():
        for dst, coeff in images:
            entries[(idx[dst], idx[src])] = coeff
    return RatMatrix(n, n, entries)


def _ladder(n: int, top, bottom, c, top_first: bool, **fields) -> FloerData:
    """Two rows of n generators, zero differential, and

        u(top_j) = 2 bottom_j,   u(bottom_j) = c top_j + 2 top_(j+1).

    top and bottom are (name template, degree); generator j of a row is
    named template.format(j), j = 1..n.  The top row is listed first when
    top_first.  u's entries go in top_j's before bottom_j's, j ascending.
    """
    rows = (top, bottom) if top_first else (bottom, top)
    names = tuple([fmt.format(j) for fmt, _ in rows for j in range(1, n + 1)])
    degrees = tuple([degree for _, degree in rows for _ in range(n)])
    t, b = (0, n) if top_first else (n, 0)
    # u = ints / den, with den the denominator of c
    c = rational(c)
    den, two, c = c.denominator, 2 * c.denominator, c.numerator
    ints = {}
    for j in range(n):
        ints[(b + j, t + j)] = two
        if c:
            ints[(t + j, b + j)] = c
        if j + 1 < n:
            ints[(t + j + 1, b + j)] = two
    cx = GradedComplex(names, degrees, RatMatrix.zero(2 * n, 2 * n))
    return FloerData(cx, RatMatrix._trusted(2 * n, 2 * n, ints, den), **fields)


# refused before anything is built: at the cap a ladder has 20000
# generators, connect_sum.SUM_GENERATOR_CAP
ORDER_CAP = 10000
# the most generators a document may declare: a ladder at ORDER_CAP
GENERATOR_CAP = 2 * ORDER_CAP
# the largest random_nilpotent_phi order: `fixtures --random nilpotent
# --order 100` takes about 1 s, and the time grows about 7x per doubling
NILPOTENT_ORDER_CAP = 100

# name -> (takes an order, description, distinguished generators,
#          builder(order, u_param)); the order of an orderless fixture is 1
_BUILTINS = {
    "Pplus": (False, "P+ model data, parameter u(rho0)",
              {"vector": "rho4", "functional": None},
              lambda n, c: _ladder(n, ("rho4", 4), ("rho0", 0), c, top_first=False,
                                   delta_prime={1: 1})),
    "Pminus": (False, "P- model data, parameter u(rho1)",
               {"vector": None, "functional": "rho1"},
               lambda n, c: _ladder(n, ("rho5", 5), ("rho1", 1), c, top_first=False,
                                    delta={0: 1})),
    "nPplusModel": (True, "n-fold P+ ladder model, h = -n",
                    {"vector": "x4_1", "functional": None},
                    lambda n, c: _ladder(n, ("x4_{}", 4), ("x0_{}", 0), 2, top_first=False,
                                         delta_prime={n: 1})),
    "TrefoilLikeSynthetic": (False, "u^2 = 4, phi = 1 model",
                             {"vector": "y1", "functional": "y1"},
                             lambda n, c: _ladder(n, ("y1", 1), ("y5", 5), 2, top_first=True,
                                                  delta={0: 1})),
    "NilpotentLadder": (True, "admissible ladder, (u^2-4)^k z1 = 0 exactly at k",
                        {"vector": "z1", "functional": "LAST_Z"},
                        lambda n, c: _ladder(n, ("z{}", 1), ("w{}", 5), 2, top_first=True,
                                             kind=Kind.ADMISSIBLE)),
}


def fixture_names() -> list:
    return sorted(_BUILTINS)


def split_fixture_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split 'Name' or 'Name:k' into (name, order)."""
    if ":" in spec:
        name, _, tail = spec.partition(":")
        try:
            return name, int(tail)
        except ValueError:
            raise FixtureError("bad fixture order in %r" % (spec,)) from None
    return spec, None


def builtin(spec: str, u_param=0) -> FloerData:
    """Build a builtin fixture from 'Name' or 'Name:k'.

    u_param feeds the unconstrained u entry of Pplus / Pminus and is ignored
    by the other fixtures.  An order above ORDER_CAP is refused with
    ValueError before anything is built.
    """
    order, build = _checked(spec)
    return build(order, u_param)


def _checked(spec: str) -> tuple:
    """(order, builder) for builtin(spec), after every check builtin makes
    before building; the order of an orderless fixture is 1."""
    name, order = split_fixture_spec(spec)
    if name not in _BUILTINS:
        raise FixtureError("unknown fixture %r (have: %s)" % (name, ", ".join(fixture_names())))
    takes_order, _, _, build = _BUILTINS[name]
    if not takes_order:
        if order is not None:
            raise FixtureError("%s takes no order parameter" % (name,))
        return 1, build
    if order is None:
        raise FixtureError("%s needs an order, e.g. %s:2" % (name, name))
    if order < 1:
        raise FixtureError("%s needs order >= 1" % (name,))
    if order > ORDER_CAP:
        raise ValueError("%s has order %d, above the cap of %d" % (spec, order, ORDER_CAP))
    return order, build


def fixture_description(name: str) -> str:
    return _BUILTINS[name][1]


def distinguished_generators(spec: str) -> dict:
    """Conventional vector / functional generator names for a builtin."""
    name, order = split_fixture_spec(spec)
    if name not in _BUILTINS:
        raise FixtureError("unknown fixture %r" % (name,))
    info = dict(_BUILTINS[name][2])
    if info.get("functional") == "LAST_Z":
        info["functional"] = "z%d" % (order or 1)
    return info


# ---------------------------------------------------------------------------
# random data


def _random_unimodular(rng: random.Random, n: int) -> RatMatrix:
    """Product of unit triangular integer matrices, determinant 1."""
    lower = {(i, i): Fraction(1) for i in range(n)}
    upper = {(i, i): Fraction(1) for i in range(n)}
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                lower[(i, j)] = Fraction(rng.randint(-2, 2))
            if rng.random() < 0.5:
                upper[(j, i)] = Fraction(rng.randint(-2, 2))
    return RatMatrix(n, n, lower) @ RatMatrix(n, n, upper)


def _degree_preserving_change(rng: random.Random, degrees) -> RatMatrix:
    """Block unimodular change of basis mixing generators of equal degree."""
    n = len(degrees)
    entries = {}
    for r in set(degrees):
        block = [i for i, d in enumerate(degrees) if d == r]
        small = _random_unimodular(rng, len(block))
        for (a, b), v in small.entries.items():
            entries[(block[a], block[b])] = v
    return RatMatrix(n, n, entries)


def _conjugate(data: FloerData, s: RatMatrix) -> FloerData:
    s_inv = invert(s)
    cx = data.complex
    return FloerData(
        complex=GradedComplex(cx.names, cx.degrees, s @ cx.differential @ s_inv),
        u=s @ data.u @ s_inv,
        delta=s_inv.apply_functional(data.delta),
        delta_prime=s.apply(data.delta_prime),
        kind=data.kind,
    )


def random_admissible(rng: random.Random, max_gens: int = 8) -> FloerData:
    """Admissible data with exact d u = u d, built structurally then mixed.

    Generators come in boundary pairs (d p = q) plus closed spares; u sends
    pairs to pairs with matching coefficients and spares into the kernel of
    d, which forces commutation.  A final degree-preserving unimodular
    conjugation hides the structure.
    """
    n_pairs = rng.randint(0, max_gens // 2)
    n_free = rng.randint(1 if n_pairs == 0 else 0, max_gens - 2 * n_pairs)
    names = []
    degrees = []
    pairs = []
    for t in range(n_pairs):
        d = rng.randrange(DEGREE_MOD)
        src = len(names)
        names += ["p%d" % t, "q%d" % t]
        degrees += [d, (d - 1) % DEGREE_MOD]
        pairs.append((src, src + 1, d))
    frees = []
    for t in range(n_free):
        frees.append(len(names))
        names.append("f%d" % t)
        degrees.append(rng.randrange(DEGREE_MOD))

    n = len(names)
    d_entries = {}
    for src, dst, _ in pairs:
        d_entries[(dst, src)] = Fraction(rng.choice([1, 1, 2, -1]))
    diff = RatMatrix(n, n, d_entries)

    u_entries = {}

    def coeff():
        return Fraction(rng.randint(-2, 2))

    for src, dst, d in pairs:
        for src2, dst2, d2 in pairs:
            if d2 == (d - 4) % DEGREE_MOD:
                a = coeff()
                if a:
                    # matching action on both pair members keeps d u = u d
                    scale = d_entries[(dst2, src2)] / d_entries[(dst, src)]
                    u_entries[(src2, src)] = a
                    u_entries[(dst2, dst)] = a * scale
            if d2 == (d - 3) % DEGREE_MOD:
                b = coeff()
                if b:
                    u_entries[(dst2, src)] = b  # q-component, killed by d
        for f in frees:
            if degrees[f] == (d - 4) % DEGREE_MOD:
                c = coeff()
                if c:
                    u_entries[(f, src)] = c
                    # forced image on the paired generator is zero since
                    # d f = 0; nothing to add for dst
    for f in frees:
        for g in frees:
            if degrees[g] == (degrees[f] - 4) % DEGREE_MOD:
                c = coeff()
                if c:
                    u_entries[(g, f)] = c
        for src2, dst2, d2 in pairs:
            if d2 == (degrees[f] - 3) % DEGREE_MOD:
                c = coeff()
                if c:
                    u_entries[(dst2, f)] = c
    u = RatMatrix(n, n, u_entries)

    data = FloerData(GradedComplex(tuple(names), tuple(degrees), diff), u,
                     kind=Kind.ADMISSIBLE)
    return _conjugate(data, _degree_preserving_change(rng, degrees))


def _nonzero(rng: random.Random, lo=-3, hi=3) -> Fraction:
    val = 0
    while not val:
        val = rng.randint(lo, hi)
    return Fraction(val)


def random_homology_sphere(rng: random.Random) -> FloerData:
    """Homology-sphere data with nonzero d, u, delta, and delta_prime.

    The chain relation fixes several u entries in terms of the free choices;
    everything else is sampled, and a final degree-preserving unimodular
    conjugation hides the structure.
    """
    names = ("x0", "x4", "y1", "y0", "s2", "s1", "w6", "w5")
    degrees = (0, 4, 1, 0, 2, 1, 6, 5)

    p1 = _nonzero(rng)   # d y1 = p1 y0
    p2 = _nonzero(rng)   # d s2 = p2 s1
    p3 = _nonzero(rng)   # d w6 = p3 w5
    c = _nonzero(rng)    # delta(y1)
    e = _nonzero(rng)    # delta_prime = e x4
    kappa4 = _nonzero(rng)
    kappa5 = Fraction(rng.randint(-2, 2))
    kappa0 = Fraction(rng.randint(-2, 2))
    lam = Fraction(rng.randint(-2, 2))
    nu = _nonzero(rng)
    rho1 = _nonzero(rng)

    mu = c * e / (2 * p1)      # u(y0), forced by the chain relation at y1
    tau = nu * p3 / p2         # u(s1), forced at s2
    sigma = p3 * rho1 / p2     # u(w6), forced at w6

    diff = _matrix(names, {
        "y1": [("y0", p1)],
        "s2": [("s1", p2)],
        "w6": [("w5", p3)],
    })
    u = _matrix(names, {
        "x4": [("x0", kappa4), ("y0", kappa5)],
        "x0": [("x4", kappa0)],
        "y1": [("w5", lam)],
        "y0": [("x4", mu)],
        "s2": [("w6", nu)],
        "s1": [("w5", tau)],
        "w6": [("s2", sigma)],
        "w5": [("s1", rho1)],
    })
    data = FloerData(
        complex=GradedComplex(names, degrees, diff),
        u=u,
        delta={2: c},           # y1
        delta_prime={1: e},     # x4
        kind=Kind.HOMOLOGY_SPHERE,
    )
    return _conjugate(data, _degree_preserving_change(rng, degrees))


def random_valid(rng: random.Random, max_gens: int = 8) -> FloerData:
    """Either kind, for round-trip and duality sweeps."""
    if rng.random() < 0.5:
        return random_admissible(rng, max_gens=max_gens)
    return random_homology_sphere(rng)


def random_nilpotent_phi(rng: random.Random, order: int):
    """Reduced admissible data whose (u^2 - 4) has exact order on a vector.

    Returns (data, psi).  The construction puts a single nilpotent chain of
    the requested order inside u^2 on the degree-1 block, then conjugates
    and disguises u itself through a random invertible factor.  An order
    above NILPOTENT_ORDER_CAP is refused with ValueError before anything is
    built.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > NILPOTENT_ORDER_CAP:
        raise ValueError("order %d is above the cap of %d" % (order, NILPOTENT_ORDER_CAP))
    m = order + rng.randint(0, 2)
    p = _random_unimodular(rng, m)
    p_inv = invert(p)
    n0 = RatMatrix(m, m, {(i + 1, i): Fraction(1) for i in range(order - 1)})
    core = RatMatrix.identity(m).scale(4) + (p @ n0 @ p_inv)
    b = _random_unimodular(rng, m)
    a = core @ invert(b)

    names = tuple(["z%d" % i for i in range(1, m + 1)]) + \
        tuple(["w%d" % i for i in range(1, m + 1)])
    degrees = (1,) * m + (5,) * m
    entries = {}
    for (r, cc), v in b.entries.items():
        entries[(m + r, cc)] = v          # u z_j = sum B[i, j] w_i
    for (r, cc), v in a.entries.items():
        entries[(r, m + cc)] = v          # u w_j = sum A[i, j] z_i
    u = RatMatrix(2 * m, 2 * m, entries)
    data = FloerData(
        complex=GradedComplex(names, degrees, RatMatrix.zero(2 * m, 2 * m)),
        u=u,
        kind=Kind.ADMISSIBLE,
    )
    psi = {i: v for i, v in p.column(0).items()}
    return data, psi


# ---------------------------------------------------------------------------
# file format


def serialize(data: FloerData) -> str:
    """Canonical text form; parse(serialize(d)) == d."""
    cx = data.complex
    lines = ["# floer-workbench fixture", "kind", "  " + data.kind.value, "generators"]
    for name, degree in zip(cx.names, cx.degrees):
        lines.append("  %s %d" % (name, degree))

    def matrix_lines(m: RatMatrix) -> list:
        # an integer prints as the Fraction of its value does
        ints, den = m._ints, m.den
        return ["  %s %s %s" % (cx.names[c], cx.names[r],
                                ints[r, c] if den == 1 else Fraction(ints[r, c], den))
                for (r, c) in sorted(ints, key=lambda k: (k[1], k[0]))]

    lines.append("differential")
    lines.extend(matrix_lines(cx.differential))
    lines.append("u")
    lines.extend(matrix_lines(data.u))
    lines.append("delta")
    for i in sorted(data.delta):
        lines.append("  %s %s" % (cx.names[i], data.delta[i]))
    lines.append("delta_prime")
    for i in sorted(data.delta_prime):
        lines.append("  %s %s" % (cx.names[i], data.delta_prime[i]))
    return "\n".join(lines) + "\n"


def _tokenize(line: str) -> list:
    """(token, 1-based column) pairs.

    A token is a maximal run of non-whitespace, as str.split() finds them;
    \\s and str.isspace agree on every code point, so these are the runs of
    \\S+.  Only whitespace lies between the end of one token and the start
    of the next, so the next token's first occurrence there is its column.
    """
    out = []
    pos = 0
    for tok in line.split():
        start = line.index(tok, pos)
        pos = start + len(tok)
        out.append((tok, start + 1))
    return out


def _parse_rational_token(token: str, lineno: int, column: int) -> tuple:
    """(p, q) with q >= 1 and token = p/q, not reduced."""
    try:
        return _rational_parts(token)
    except ValueError:
        raise ParseError(lineno, column,
                         "expected an exact rational 'p' or 'p/q', got %r" % (token,)) from None


def parse(text: str, check: bool = True) -> FloerData:
    """Parse a fixture document; syntax errors carry line and column.

    With check=True (the default) structural validation runs after parsing
    and a SemanticError names the first violated invariant; data that
    passes carries require_valid's mark, so it is not validated again.
    check=False returns the raw data so a caller can produce its own
    validation report.
    """
    sections = {name: [] for name in SECTION_NAMES}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = _tokenize(raw)
        first, first_col = tokens[0]
        if first in SECTION_NAMES and len(tokens) == 1 and not raw[0].isspace():
            if sections[first] and current != first:
                raise ParseError(lineno, first_col, "duplicate section %r" % (first,))
            current = first
            continue
        if current is None:
            raise ParseError(lineno, first_col,
                             "entry before any section header (expected one of %s)"
                             % ", ".join(SECTION_NAMES))
        if current == "generators" and len(sections[current]) == GENERATOR_CAP:
            raise ParseError(lineno, first_col, "more than the %d generators a "
                             "document may declare" % GENERATOR_CAP)
        sections[current].append((lineno, tokens))

    if not sections["kind"]:
        raise ParseError(1, 1, "missing kind section")
    if len(sections["kind"]) > 1:
        lineno, tokens = sections["kind"][1]
        raise ParseError(lineno, tokens[0][1], "kind takes a single entry")
    lineno, tokens = sections["kind"][0]
    if len(tokens) != 1:
        raise ParseError(lineno, tokens[1][1], "kind entry takes one token")
    kind_token = tokens[0][0]
    try:
        kind = Kind(kind_token)
    except ValueError:
        raise ParseError(lineno, tokens[0][1],
                         "kind must be homology_sphere or admissible, got %r"
                         % (kind_token,)) from None

    if not sections["generators"]:
        raise ParseError(1, 1, "missing generators section")
    names = []
    degrees = []
    index = {}
    for lineno, tokens in sections["generators"]:
        if len(tokens) != 2:
            col = tokens[-1][1] if len(tokens) > 2 else tokens[0][1]
            raise ParseError(lineno, col, "generator lines read: name degree")
        name, name_col = tokens[0]
        deg_tok, deg_col = tokens[1]
        if name in index:
            raise ParseError(lineno, name_col, "duplicate generator %r" % (name,))
        try:
            # isdigit() passes '--1' and a superscript two; int() refuses both
            degree = int(deg_tok) if deg_tok.lstrip("-").isdigit() else None
        except ValueError:
            degree = None
        if degree is None:
            raise ParseError(lineno, deg_col, "degree must be an integer, got %r" % (deg_tok,))
        if not 0 <= degree < DEGREE_MOD:
            raise ParseError(lineno, deg_col, "degree out of range [0, 8)")
        index[name] = len(names)
        names.append(name)
        degrees.append(degree)

    def gen_index(token: str, lineno: int, column: int) -> int:
        if token not in index:
            raise ParseError(lineno, column, "unknown generator %r" % (token,))
        return index[token]

    n = len(names)

    def read_matrix(section: str) -> RatMatrix:
        # (p, q) per entry, zeros kept until the duplicate checks are done
        parts = {}
        for lineno, tokens in sections[section]:
            if len(tokens) != 3:
                col = tokens[-1][1]
                raise ParseError(lineno, col, "%s lines read: source target coefficient" % section)
            (src, src_col), (dst, dst_col), (val, val_col) = tokens
            key = (gen_index(dst, lineno, dst_col), gen_index(src, lineno, src_col))
            if key in parts:
                raise ParseError(lineno, src_col, "duplicate %s entry %s -> %s" % (section, src, dst))
            parts[key] = _parse_rational_token(val, lineno, val_col)
        # den: the lcm of the reduced denominators
        den = lcm(*[q // gcd(p, q) for p, q in parts.values()])
        return RatMatrix._trusted(n, n, {key: p * den // q
                                         for key, (p, q) in parts.items() if p}, den)

    def read_vector(section: str) -> Vector:
        vec = {}
        for lineno, tokens in sections[section]:
            if len(tokens) != 2:
                col = tokens[-1][1]
                raise ParseError(lineno, col, "%s lines read: generator coefficient" % section)
            (name_tok, name_col), (val, val_col) = tokens
            i = gen_index(name_tok, lineno, name_col)
            if i in vec:
                raise ParseError(lineno, name_col, "duplicate %s entry %s" % (section, name_tok))
            vec[i] = Fraction(*_parse_rational_token(val, lineno, val_col))
        return vec

    data = FloerData(
        complex=GradedComplex(tuple(names), tuple(degrees), read_matrix("differential")),
        u=read_matrix("u"),
        delta=read_vector("delta"),
        delta_prime=read_vector("delta_prime"),
        kind=kind,
    )
    if check:
        report = _validate_and_mark(data)
        if not report.ok:
            first = report.violations[0]
            raise SemanticError(first.invariant, str(report))
    return data

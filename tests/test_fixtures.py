import hashlib
import random
import re

import pytest

from floer_workbench import cli, fixtures
from floer_workbench.complexes import Kind, structurally_equal, validate
from floer_workbench.connect_sum import SUM_GENERATOR_CAP
from floer_workbench.homology import reduce_to_homology
from floer_workbench.invariants import h_invariant
from floer_workbench.fixtures import (
    GENERATOR_CAP,
    ORDER_CAP,
    FixtureError,
    ParseError,
    SemanticError,
    builtin,
    distinguished_generators,
    fixture_description,
    fixture_names,
    parse,
    random_admissible,
    random_homology_sphere,
    random_nilpotent_phi,
    random_valid,
    serialize,
    split_fixture_spec,
)

ALL_SPECS = ["Pplus", "Pminus", "TrefoilLikeSynthetic",
             "nPplusModel:1", "nPplusModel:3",
             "NilpotentLadder:1", "NilpotentLadder:4"]


def test_registry_lists_every_builtin():
    names = fixture_names()
    assert names == sorted(names)
    assert set(names) == {"NilpotentLadder", "Pminus", "Pplus",
                          "TrefoilLikeSynthetic", "nPplusModel"}
    for name in names:
        assert fixture_description(name)


def test_split_fixture_spec():
    assert split_fixture_spec("Pplus") == ("Pplus", None)
    assert split_fixture_spec("NilpotentLadder:3") == ("NilpotentLadder", 3)
    with pytest.raises(FixtureError):
        split_fixture_spec("NilpotentLadder:three")


def test_builtin_errors():
    with pytest.raises(FixtureError):
        builtin("NoSuchThing")
    with pytest.raises(FixtureError):
        builtin("nPplusModel")  # order required
    with pytest.raises(FixtureError):
        builtin("Pplus:2")  # no order allowed
    with pytest.raises(FixtureError):
        builtin("NilpotentLadder:0")


def test_orders_above_the_cap_are_refused_before_building(monkeypatch):
    assert ORDER_CAP >= 2000
    built = []
    monkeypatch.setattr(fixtures, "_ladder", lambda n, *rows, **fields: built.append(n))
    for name in ("nPplusModel", "NilpotentLadder"):
        with pytest.raises(ValueError, match="above the cap of %d" % ORDER_CAP):
            builtin("%s:%d" % (name, ORDER_CAP + 1))
        builtin("%s:%d" % (name, ORDER_CAP))
    assert built == [ORDER_CAP, ORDER_CAP]


def test_every_builtin_validates():
    for spec in ALL_SPECS:
        for u_param in (0, 1, 2):
            data = builtin(spec, u_param=u_param)
            report = validate(data)
            assert report.ok, "%s u_param=%d: %s" % (spec, u_param, report)


# sha256 over every builtin's document and its u entries' insertion order,
# at orders 1-4 and u-params 0-2; pinned before the five builtins shared
# one ladder builder
BUILTIN_DIGEST = "79bf667565153697a08d2e8dc608e40377512688fc00ebef2096fd0d4e9a32fd"


def test_builtin_documents_and_entry_order_are_pinned():
    specs = ["Pplus", "Pminus", "TrefoilLikeSynthetic"] + [
        "%s:%d" % (name, k) for name in ("nPplusModel", "NilpotentLadder")
        for k in range(1, 5)]
    digest = hashlib.sha256()
    for spec in specs:
        for u_param in (0, 1, 2):
            data = builtin(spec, u_param=u_param)
            digest.update(serialize(data).encode())
            digest.update(repr(list(data.u.entries)).encode())
    assert digest.hexdigest() == BUILTIN_DIGEST

def test_distinguished_generators_resolve():
    for spec in ALL_SPECS:
        data = builtin(spec)
        roles = distinguished_generators(spec)
        for role in ("vector", "functional"):
            name = roles[role]
            if name is not None:
                assert name in data.complex.names


def test_round_trip_builtins():
    for spec in ALL_SPECS:
        for u_param in (0, 2):
            data = builtin(spec, u_param=u_param)
            text = serialize(data)
            again = parse(text)
            assert again == data
            assert serialize(again) == text


def test_round_trip_random_documents():
    rng = random.Random(31415)
    for i in range(100):
        data = random_valid(rng)
        text = serialize(data)
        assert parse(text) == data


def test_reduced_documents_round_trip():
    """reduce's documents parse back, the acyclic ones (zero generators,
    an empty generators section) among them."""
    acyclic = 0
    for seed in range(200):
        data = reduce_to_homology(random_admissible(random.Random(seed)))
        again = parse(serialize(data))
        assert structurally_equal(again, data), seed
        acyclic += again.size == 0
    assert acyclic >= 50


def test_empty_generators_section_is_zero_generator_data():
    data = parse("kind\n  admissible\ngenerators\ndifferential\nu\n"
                 "delta\ndelta_prime\n")
    assert data.size == 0
    assert validate(data).ok
    assert reduce_to_homology(data).size == 0
    assert h_invariant(data).h == 0
    with pytest.raises(ParseError) as exc:
        parse("kind\n  admissible\ndifferential\nu\n")
    assert str(exc.value) == "line 1, column 1: missing generators section"


def _cli_document(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_cli_documents_round_trip(capsys, tmp_path):
    """Every document the fixtures command emits parses back to the data it
    came from, and an acyclic reduce document validates."""
    for spec in ALL_SPECS:
        for u_param in (-3, 0, 2):
            text = _cli_document(capsys, "fixtures", "--emit", spec,
                                 "--u-param", str(u_param))
            assert structurally_equal(parse(text), builtin(spec, u_param=u_param))
    makers = {"admissible": random_admissible, "sphere": random_homology_sphere,
              "valid": random_valid,
              "nilpotent": lambda rng: random_nilpotent_phi(rng, 5)[0]}
    for kind, make in makers.items():
        for seed in range(5):
            text = _cli_document(capsys, "fixtures", "--random", kind, "--seed",
                                 str(seed), "--order", "5")
            assert structurally_equal(parse(text), make(random.Random(seed)))
    source = tmp_path / "acyclic.txt"
    source.write_text(serialize(random_admissible(random.Random(5))))
    reduced = tmp_path / "reduced.txt"
    # reduce prints its report, a blank line, then the document
    report = _cli_document(capsys, "reduce", "--file", str(source))
    reduced.write_text(report.split("\n\n", 1)[1])
    assert parse(reduced.read_text()).size == 0
    assert _cli_document(capsys, "validate", "--file", str(reduced))


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("kind\n  admissible\ngenerators\n  a zero\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError) as exc:
        parse("  stray 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse("kind\n  admissible\n")  # no generators section
    with pytest.raises(ParseError):
        parse("kind\n  wrong_kind\ngenerators\n  a 0\n")


@pytest.mark.parametrize("token", ["--1", "\u00b2", "-\u00b2"])
def test_degree_tokens_int_refuses_are_parse_errors(token):
    # each passes lstrip("-").isdigit(), and int() refuses it
    doc = "kind\n  admissible\ngenerators\n  a 0\n  b %s\n" % token
    with pytest.raises(ParseError) as exc:
        parse(doc)
    assert (exc.value.line, exc.value.column) == (5, 5)
    assert str(exc.value) == ("line 5, column 5: degree must be an integer, got %r"
                              % (token,))


def test_decimal_digit_degrees_still_parse():
    # int() reads any Unicode decimal digit, and parse always took them
    doc = ("kind\n  admissible\ngenerators\n  a \u0663\n  b -0\n"
           "differential\nu\ndelta\ndelta_prime\n")
    assert parse(doc, check=False).complex.degrees == (3, 0)


def _declaring(count: int, tail: str = "") -> str:
    return ("kind\n  admissible\ngenerators\n"
            + "".join(["  g%d 0\n" % i for i in range(count)]) + tail)


def test_generator_cap_is_the_largest_builtin_and_sum():
    assert GENERATOR_CAP == SUM_GENERATOR_CAP == 2 * ORDER_CAP
    data = parse(_declaring(GENERATOR_CAP, "differential\nu\ndelta\ndelta_prime\n"),
                 check=False)
    assert data.size == GENERATOR_CAP


def test_generator_cap_refuses_before_any_matrix_line():
    # were the differential line read, its unknown target would be the error
    with pytest.raises(ParseError) as exc:
        parse(_declaring(GENERATOR_CAP + 1, "differential\n  g0 nobody 1\n"))
    assert (exc.value.line, exc.value.column) == (GENERATOR_CAP + 4, 3)
    assert str(exc.value).endswith(
        "more than the %d generators a document may declare" % GENERATOR_CAP)


def test_tokenize_matches_nonspace_runs():
    """Columns are where the pattern \\S+ finds each token, on lines mixing
    tab, ideographic space, U+001C, NEL, no-break space and repeated
    tokens."""
    rng = random.Random(1618)
    pieces = ["\t", "\u3000", "\x1c", "\x85", "\xa0", " ", "  ", "1/2", "1/2",
              "a", "ab", "b4", "-3", "\u00bd", "x1/2"]
    for _ in range(100000):
        line = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 9)))
        assert fixtures._tokenize(line) == [(m.group(), m.start() + 1)
                                            for m in re.finditer(r"\S+", line)]


def _mutated_documents():
    """Seeded documents with one line respaced, and often given an odd
    coefficient or a stray section line."""
    rng = random.Random(5)
    seps = [" ", "\t", "\u3000", "\x1c", "\x1f", "\x85", "\xa0", "\x0b", "  "]
    coeffs = ["-0", "007", "-4/8", "3/06", "1/0", "+1", "\uff11", "\u0661\u0662/\u0663",
              "1" * 30, "1.5", "2e3", "1_0", "0x1", "/2", "2/", "1/-2", "\u00bd"]
    base = serialize(random_admissible(random.Random(3), max_gens=6))
    for _ in range(300):
        lines = base.splitlines()
        k = rng.randrange(len(lines))
        tokens = lines[k].split()
        if tokens and rng.random() < 0.6:
            tokens[rng.randrange(len(tokens))] = rng.choice(coeffs)
        lines[k] = (rng.choice(["", "  ", "\t", "\u3000", "\xa0"])
                    + rng.choice(seps).join(tokens) + rng.choice(["", " ", "\t", "\u3000"]))
        if rng.random() < 0.2:
            lines.insert(rng.randrange(len(lines)),
                         rng.choice(["u", "  u", "bogus 1", "kind", "generators"]))
        yield "\n".join(lines) + "\n"


def test_parse_outcomes_of_mutated_documents_are_unchanged():
    # sha256 of every outcome, recorded while tokens were found by a regular
    # expression and coefficients read by Fraction(str)
    digest, errors = hashlib.sha256(), 0
    for text in _mutated_documents():
        try:
            outcome = serialize(parse(text))
        except (ParseError, SemanticError) as exc:
            outcome = "%s %s %s" % (type(exc).__name__, getattr(exc, "line", ""), exc)
            errors += 1
        digest.update(outcome.encode() + b"\0")
    assert errors > 150
    assert digest.hexdigest() == (
        "00534fda404482bb52f702954b8637bd25c85c2359f33329cdf34dab0ae6a2d5")


def test_parse_semantic_gate():
    doc = ("kind\n  admissible\n"
           "generators\n  a 0\n  b 1\n"
           "differential\n  a b 1\n"  # wrong direction: degree +1
           "u\ndelta\ndelta_prime\n")
    with pytest.raises(SemanticError) as exc:
        parse(doc)
    assert "differential-degree" in str(exc.value)
    raw = parse(doc, check=False)
    assert not validate(raw).ok


def test_parse_marks_valid_data_for_require_valid(monkeypatch):
    from floer_workbench import complexes

    text = serialize(builtin("NilpotentLadder:2"))
    checked = parse(text)
    raw = parse(text, check=False)
    seen = []
    monkeypatch.setattr(complexes, "validate", lambda data: seen.append(data) or validate(data))
    complexes.require_valid(checked)
    assert seen == []
    complexes.require_valid(raw)
    assert seen == [raw]


def test_parse_accepts_comments_and_blank_lines():
    data = builtin("Pplus")
    text = serialize(data) + "\n# trailing note\n\n"
    assert parse(text) == data


def test_parse_duplicate_generator_rejected():
    doc = ("kind\n  admissible\ngenerators\n  a 0\n  a 1\n"
           "differential\nu\ndelta\ndelta_prime\n")
    with pytest.raises(ParseError):
        parse(doc)


def test_random_admissible_properties():
    rng = random.Random(8)
    for _ in range(15):
        data = random_admissible(rng)
        assert data.kind is Kind.ADMISSIBLE
        assert data.size <= 8
        assert validate(data).ok
        d, u = data.complex.differential, data.u
        assert (d @ u - u @ d).is_zero()


def test_random_homology_sphere_has_structure():
    rng = random.Random(44)
    saw_delta = saw_delta_prime = False
    for _ in range(12):
        data = random_homology_sphere(rng)
        assert data.kind is Kind.HOMOLOGY_SPHERE
        assert validate(data).ok
        saw_delta = saw_delta or bool(data.delta)
        saw_delta_prime = saw_delta_prime or bool(data.delta_prime)
    assert saw_delta and saw_delta_prime


def test_random_nilpotent_phi_hits_requested_order():
    rng = random.Random(2718)
    from floer_workbench.invariants import phi_filtration
    for order in (1, 2, 3, 4):
        data, psi = random_nilpotent_phi(rng, order)
        assert validate(data).ok
        assert phi_filtration(data.u, psi) == order


def test_determinism_under_fixed_seed():
    a = random_valid(random.Random(5))
    b = random_valid(random.Random(5))
    assert a == b
    assert serialize(a) == serialize(b)


def test_parse_and_rank_build_no_fraction(monkeypatch):
    """A chain-sized admissible document, with halves among its u
    entries, is read to integer matrices and its differential ranked on
    them: no Fraction is built on the way."""
    from fractions import Fraction

    from floer_workbench.linalg import rank

    rng = random.Random(35)
    while True:
        data = random_admissible(rng, max_gens=35)
        if 24 <= data.size and data.u.den > 1 and not data.complex.differential.is_zero():
            break
    text = serialize(data)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and built == [(1, 2)]  # the counter is in place
    del built[:]
    parsed = parse(text, check=False)
    r = rank(parsed.complex.differential)
    monkeypatch.undo()
    assert built == []
    assert parsed == data
    assert r == rank(data.complex.differential) > 0

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from floer_workbench import lattice
from floer_workbench.lattice import (
    HALF_SUM,
    LIST_CAP,
    LatticeError,
    LatticeVector,
    ROOT,
    W0,
    concat,
    congruent_vectors,
    eta,
    from_coords,
    is_extremal,
    is_member,
    min_charge_k,
    norm,
    parse_vector,
    require_member,
    same_class,
    zero,
)
from lattice_reference import combine_by_sort


def brute_force_class(w, bound=2):
    """Full grid over half-integer coordinates with |c| <= bound, one block.

    Membership and congruence checked from the definitions: all-integer or
    all-half-integer coordinates with even coordinate sum, difference
    divisible by 2 inside the lattice, equal norm.  A grid point whose
    doubled squared length differs from w's cannot have w's norm, so it is
    skipped before its vector is built.
    """
    assert w.blocks == 1
    target = norm(w)
    target_q = sum(c * c for c in w.doubled)
    found = []
    doubled_range = range(-2 * bound, 2 * bound + 1)
    for parity in (0, 1):
        coords = [c for c in doubled_range if abs(c % 2) == parity]
        for combo in itertools.product(coords, repeat=8):
            if sum(combo) % 4 != 0 or sum(c * c for c in combo) != target_q:
                continue
            v = from_coords([Fraction(c, 2) for c in combo])
            if norm(v) != target:
                continue
            if same_class(v, w):
                found.append(v)
    return found


def test_membership_basics():
    assert is_member(W0)
    assert is_member(ROOT)
    assert is_member(HALF_SUM)
    assert is_member(zero(1))
    assert not is_member(from_coords((1, 0, 0, 0, 0, 0, 0, 0)))
    mixed = from_coords((Fraction(1, 2), 1, 0, 0, 0, 0, 0, 0))
    assert not is_member(mixed)
    with pytest.raises(LatticeError):
        require_member(mixed)


def test_lattice_vector_is_an_immutable_value():
    # what the frozen dataclass it replaced gave, bar dataclasses' own
    # FrozenInstanceError, an AttributeError
    v = LatticeVector(1, [2, 2, 2, 2, 0, 0, 0, 0])
    assert v == W0 and v is not W0 and v.doubled == W0.doubled
    assert hash(v) == hash(W0) == hash((1, W0.doubled))
    assert v != ROOT and v != (1, W0.doubled) and len({v, W0, ROOT}) == 2
    assert repr(v) == "LatticeVector(blocks=1, doubled=(2, 2, 2, 2, 0, 0, 0, 0))"
    for name in ("blocks", "doubled", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 2)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert pickle.loads(pickle.dumps(v)) == copy.copy(v) == copy.deepcopy(v) == v
    for blocks, doubled in ((0, ()), (1, (0,) * 7), (1, (0,) * 7 + (1.0,)),
                            (1, (0,) * 7 + (True,))):
        with pytest.raises(LatticeError):
            LatticeVector(blocks, doubled)


def test_norm_is_negative_definite():
    assert norm(W0) == -4
    assert norm(ROOT) == -2
    assert norm(zero(1)) == 0
    assert norm(HALF_SUM) == -2
    v = from_coords((2, 0, 0, 0, 0, 0, 0, 2))
    assert norm(v) == -8


def test_same_class_examples():
    assert same_class(W0, W0)
    shifted = from_coords((3, 3, 1, 1, 0, 0, 0, 0))  # w0 + 2*(1,1,...)-root
    assert same_class(W0, shifted)
    assert not same_class(W0, ROOT)
    assert not same_class(W0, zero(1))


def test_parse_vector_round_trips():
    assert parse_vector("w0") == W0
    assert parse_vector("root") == ROOT
    assert parse_vector("zero") == zero(1)
    assert parse_vector("zero^3") == zero(3)
    assert parse_vector("w0^3") == concat(W0, W0, W0)
    assert parse_vector("w0^2048") == LatticeVector(2048, W0.doubled * 2048)
    assert concat(W0, ROOT, HALF_SUM) == LatticeVector(3, W0.doubled + ROOT.doubled
                                                       + HALF_SUM.doubled)
    coords = "1,1,1,1,0,0,0,0"
    assert parse_vector(coords) == W0
    halves = ",".join(["1/2"] * 8)
    assert parse_vector(halves) == HALF_SUM
    with pytest.raises(LatticeError):
        parse_vector("1,2")
    with pytest.raises(LatticeError):
        parse_vector("nosuchname")


def test_enumeration_matches_brute_force_for_w0():
    fast = congruent_vectors(W0)
    slow = brute_force_class(W0)
    assert sorted(v.doubled for v in fast) == sorted(v.doubled for v in slow)
    assert len(fast) == 16


def test_enumeration_matches_brute_force_for_root():
    fast = congruent_vectors(ROOT)
    slow = brute_force_class(ROOT)
    assert sorted(v.doubled for v in fast) == sorted(v.doubled for v in slow)
    assert len(fast) == 2


def test_enumerated_vectors_satisfy_definitions():
    for w in (W0, ROOT, HALF_SUM):
        for v in congruent_vectors(w):
            assert is_member(v)
            assert norm(v) == norm(w)
            assert same_class(v, w)


def test_extremality():
    assert is_extremal(W0)
    assert is_extremal(ROOT)
    assert is_extremal(zero(1))
    shifted = from_coords((3, 3, 1, 1, 0, 0, 0, 0))
    assert not is_extremal(shifted)
    # agreement with the brute-force class minimum
    slow = brute_force_class(W0)
    assert min(-norm(v) for v in slow) == -norm(W0)


def test_eta_single_block():
    assert eta(W0).count == 16
    assert eta(zero(1)).count == 1
    assert eta(ROOT).count == 2


def test_eta_multiplicative_over_blocks():
    one = eta(W0).count
    for n in (2, 3):
        w = concat(*([W0] * n))
        assert eta(w).count == one ** n


def test_eta_two_block_product_structure():
    w = concat(W0, ROOT)
    assert eta(w).count == eta(W0).count * eta(ROOT).count
    vectors = eta(w).vectors
    assert len(vectors) == 32
    for v in vectors:
        assert same_class(v, w)


def test_eta_flags_non_extremal():
    shifted = from_coords((3, 3, 1, 1, 0, 0, 0, 0))
    result = eta(shifted)
    assert result.extremal is False
    assert result.count >= 1
    assert eta(W0).extremal is True


def test_eta_worker_independence():
    expected = eta(concat(W0, W0)).vectors
    for _ in range(5):
        assert eta(concat(W0, W0)).vectors == expected


def test_min_charge_k():
    assert min_charge_k(W0) == 1
    assert min_charge_k(ROOT) == 0
    for n in (2, 3, 4):
        assert min_charge_k(concat(*([W0] * n))) == 2 * n - 1
    with pytest.raises(LatticeError):
        min_charge_k(zero(1))


def test_concat_and_blocks():
    w = concat(W0, zero(1))
    assert w.blocks == 2
    assert norm(w) == norm(W0)
    assert w.block(0) == W0.doubled
    assert w.block(1) == (0,) * 8
    with pytest.raises(LatticeError):
        concat()


# ---------------------------------------------------------------------------
# counting by convolution, against enumeration and number theory

# A basis of E8 in doubled coordinates (Conway-Sloane, SPLAG ch. 4, the
# generator matrix of the even coordinate system): 2e_1, e_k - e_(k-1) for
# k = 2..7, and (e_1 + ... + e_8)/2.  Its mod-2 span is E8/2E8.
E8_BASIS = ([(4, 0, 0, 0, 0, 0, 0, 0)]
            + [tuple(2 if i == k else -2 if i == k - 1 else 0 for i in range(8))
               for k in range(1, 7)]
            + [(1,) * 8])


def e8_basis_coordinates(d):
    """Integer coordinates of the doubled E8 block d in E8_BASIS."""
    a = [0] * 8
    a[7] = d[7]
    a[6] = (d[6] - d[7]) // 2
    for k in range(5, 0, -1):
        a[k] = (d[k] - d[7]) // 2 + a[k + 1]
    a[0] = ((d[0] - d[7]) // 2 + a[1]) // 2
    assert tuple(sum(a[r] * E8_BASIS[r][i] for r in range(8))
                 for i in range(8)) == tuple(d)
    return a


def short_e8_blocks(max_q):
    """Every doubled E8 block with sum(c^2) <= max_q, from the full grid."""
    bound = math.isqrt(max_q)
    out = []
    for parity in (0, 1):
        values = [c for c in range(-bound, bound + 1) if c % 2 == parity]
        for combo in itertools.product(values, repeat=8):
            if sum(combo) % 4 == 0 and sum(c * c for c in combo) <= max_q:
                out.append(combo)
    return out


def doubled_norm(d):
    return sum(c * c for c in d)


def e8_classes_mod_2():
    """{class key: its members of doubled norm <= 16}, from the full grid."""
    classes = {}
    for d in short_e8_blocks(16):
        key = tuple(a % 2 for a in e8_basis_coordinates(d))
        classes.setdefault(key, []).append(d)
    return classes


def test_e8_classes_mod_2_split_1_120_135():
    classes = e8_classes_mod_2()
    assert len(classes) == 256
    profile = {}
    for members in classes.values():
        low = min(doubled_norm(d) for d in members)
        minimal = sorted(d for d in members if doubled_norm(d) == low)
        w = LatticeVector(1, minimal[0])
        assert eta(w, keep_vectors=False).count == len(minimal)
        assert [v.doubled for v in congruent_vectors(w)] == minimal
        key = (low // 4, len(minimal))
        profile[key] = profile.get(key, 0) + 1
    # (|v^2| of the class minimum, minimal vectors): 1 + 120 + 135 classes
    assert profile == {(0, 1): 1, (2, 2): 120, (4, 16): 135}


def test_capped_class_minimum_matches_uncapped_search():
    """_block_class_min is closed form and searches nothing.  The search
    up to the block's own norm finds the same minimum, on a representative
    of each of the 256 classes, on the same representative moved up by
    2 * (2, 0, ..., 0), and on seeded blocks up to norm 16."""
    budgets = []
    search = lattice._block_class_members

    def recorded(wb, budget_q):
        budgets.append(budget_q)
        return search(wb, budget_q)

    for members in e8_classes_mod_2().values():
        low = min(members)
        for wb in (low, (low[0] + 8,) + low[1:]):
            own = doubled_norm(wb)
            budgets.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "_block_class_members", recorded)
                capped = lattice._block_class_min(wb)
            assert budgets == []
            assert capped == min(lattice._block_class_members(wb, own))
    rng = random.Random(1616)
    above_cap = 0
    for _ in range(240):
        while True:
            parity = rng.randint(0, 1)
            block = [2 * rng.randint(-3, 3) + parity for _ in range(8)]
            if sum(block) % 4:
                block[rng.randrange(8)] += 2
            own = doubled_norm(block)
            if own <= 64:
                break
        wb = tuple(block)
        assert lattice._block_class_min(wb) == min(lattice._block_class_members(wb, own))
        above_cap += own > 16
    assert above_cap >= 100


def test_closed_form_class_minima_split_1_120_135():
    # the closed form alone on one representative of each of the 256
    # classes: 2*E8, 120 root classes and 135 norm-4 classes
    profile = {}
    for bits in itertools.product((0, 1), repeat=8):
        rep = tuple(sum(b * row[i] for b, row in zip(bits, E8_BASIS))
                    for i in range(8))
        low = lattice._block_class_min(rep)
        profile[low] = profile.get(low, 0) + 1
    assert profile == {0: 1, 8: 120, 16: 135}
    # and constant on each class, at its least norm on the full grid
    for members in e8_classes_mod_2().values():
        low = min(doubled_norm(d) for d in members)
        assert {lattice._block_class_min(d) for d in members} == {low}


def searched_class_min(wb):
    """Least doubled norm in the class of wb, by member searches under the
    budgets 0, 8, 16, ... up to the block's own norm, where wb is found."""
    for budget in range(0, doubled_norm(wb) + 1, 8):
        members = lattice._block_class_members(wb, budget)
        if members:
            return min(members)


def test_closed_form_class_minimum_matches_search_on_seeded_blocks():
    rng = random.Random(2029)
    seen = {}
    for _ in range(2400):
        while True:
            parity = rng.randint(0, 1)
            block = [2 * rng.randint(-3, 3) + parity for _ in range(8)]
            if sum(block) % 4:
                block[rng.randrange(8)] += 2
            if doubled_norm(block) <= 64:
                break
        wb = tuple(block)
        low = lattice._block_class_min(wb)
        assert low == searched_class_min(wb), wb
        key = (low, doubled_norm(wb) > 16)
        seen[key] = seen.get(key, 0) + 1
    # every minimum above norm 4; at or below it only 0 lies in 2*E8
    assert {q for q, above in seen if above} == {0, 8, 16}
    assert {q for q, above in seen if not above} >= {8, 16}
    assert sum(n for (_, above), n in seen.items() if above) >= 2000


def test_walk_matches_concatenate_and_sort():
    classes = [LatticeVector(1, min(members)) for members in e8_classes_mod_2().values()]
    classes += seeded_mixed_classes()
    classes += [parse_vector("w0^4"), from_coords((4, 4, 0, 0, 0, 0, 0, 0))]
    total = 0
    for w in classes:
        target, per_block = lattice._class_groups(w)
        walked = list(lattice._combine(target, per_block))
        assert all(len(members) == w.blocks for members in walked)
        reference = combine_by_sort(w, target, per_block)
        assert [tuple(c for m in members for c in m) for members in walked] == reference, w
        total += len(walked)
    assert total > 65536 + 17520


def test_class_members_sum_to_e8_theta_series():
    totals = {}
    for bits in itertools.product((0, 1), repeat=8):
        rep = tuple(sum(b * row[i] for b, row in zip(bits, E8_BASIS))
                    for i in range(8))
        for q, members in lattice._block_class_members(rep, 24).items():
            totals[q] = totals.get(q, 0) + len(members)
    # theta_E8 = 1 + sum_m 240 sigma_3(m) q^m: norm 2m is doubled norm 8m
    theta = {8 * m: 240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
             for m in (1, 2, 3)}
    assert totals == {0: 1, **theta}
    assert theta == {8: 240, 16: 2160, 24: 6720}


def _signed(rng, positions, size):
    d = [0] * 8
    for i in positions:
        d[i] = rng.choice((size, -size))
    return d


def _random_block(rng, kind):
    """A doubled block: extremal of norm 0, 2 or 4, or non-extremal of norm 6."""
    if kind == "zero":
        return [0] * 8
    if kind == "root":
        return _signed(rng, rng.sample(range(8), 2), 2)
    if kind == "halfsum":
        d = [rng.choice((1, -1)) for _ in range(7)]
        return d + [1 if (sum(d) + 1) % 4 == 0 else -1]
    if kind == "norm4":
        shape = rng.randrange(3)
        if shape == 0:
            return _signed(rng, rng.sample(range(8), 4), 2)
        if shape == 1:
            return _signed(rng, [rng.randrange(8)], 4)
        d = [rng.choice((1, -1)) for _ in range(8)]
        d[rng.randrange(8)] *= 3
        if sum(d) % 4:
            d[d.index(1) if 1 in d else d.index(-1)] *= -1
        return d
    # norm 6 lies in a class of minimum 2 or 4, never in 2*E8
    if rng.random() < 0.5:
        return _signed(rng, rng.sample(range(8), 6), 2)
    i, j, k = rng.sample(range(8), 3)
    d = _signed(rng, [i], 4)
    d[j], d[k] = rng.choice((2, -2)), rng.choice((2, -2))
    return d


def seeded_mixed_classes(count=40, seed=20261018):
    """Classes of 1-4 blocks; about half carry one non-extremal block."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kinds = [rng.choice(("zero", "root", "halfsum", "norm4"))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            kinds[rng.randrange(len(kinds))] = "non-extremal"
        blocks = [_random_block(rng, kind) for kind in kinds]
        out.append(LatticeVector(len(blocks), tuple(c for b in blocks for c in b)))
    return out


def test_convolved_count_matches_enumeration_on_mixed_classes():
    classes = seeded_mixed_classes()
    assert sum(not is_extremal(w) for w in classes) >= 10
    for w in classes:
        require_member(w)
        result = eta(w, keep_vectors=False)
        assert result.vectors == ()
        assert result.all_in_class
        enumerated = congruent_vectors(w)
        assert result.count == len(enumerated), w
        if len(enumerated) <= LIST_CAP:
            assert eta(w).vectors == tuple(enumerated), w


def test_eta_count_builds_one_block_vectors_only(monkeypatch):
    built = []

    class Counted(LatticeVector):
        def __init__(self, blocks, doubled):
            built.append(blocks)
            super().__init__(blocks, doubled)

    w = concat(*([W0] * 6))
    monkeypatch.setattr(lattice, "LatticeVector", Counted)
    result = eta(w, keep_vectors=False)
    assert result.count == 16 ** 6
    assert result.all_in_class
    # block members are checked as tuples
    assert built == []


def test_all_in_class_comes_from_same_class(monkeypatch):
    # same_class and all_in_class share one per-block congruence test
    checked = []
    congruent = lattice._block_congruent

    def refuse(vb, wb):
        checked.append(wb)
        return False

    monkeypatch.setattr(lattice, "_block_congruent", refuse)
    assert not eta(concat(W0, ROOT), keep_vectors=False).all_in_class
    assert checked == [W0.doubled]
    assert not eta(concat(W0, ROOT)).all_in_class
    assert checked == [W0.doubled] * 2
    assert not same_class(W0, W0)

    def refuse_root(vb, wb):
        checked.append(wb)
        return wb != ROOT.doubled and congruent(vb, wb)

    # each distinct block's members once: 16 for the W0 blocks, then the
    # first member of the ROOT block is refused
    checked.clear()
    monkeypatch.setattr(lattice, "_block_congruent", refuse_root)
    assert not eta(concat(W0, W0, ROOT, W0), keep_vectors=False).all_in_class
    assert checked == [W0.doubled] * 16 + [ROOT.doubled]


def test_eta_refuses_to_list_above_cap(monkeypatch):
    assert LIST_CAP == 16 ** 4
    w = concat(*([W0] * 5))
    monkeypatch.setattr(lattice, "_combine",
                        lambda *args: pytest.fail("enumerated a refused class"))
    with pytest.raises(LatticeError):
        eta(w)
    assert eta(w, keep_vectors=False).count == 16 ** 5
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "LIST_CAP", 16)
    assert len(eta(W0).vectors) == 16
    with pytest.raises(LatticeError):
        eta(concat(W0, ROOT))


def test_listed_vectors_equal_publicly_built_ones():
    for w in (concat(W0, W0), concat(ROOT, HALF_SUM, W0), seeded_mixed_classes()[0]):
        vectors = eta(w).vectors
        public = [LatticeVector(v.blocks, tuple(v.doubled)) for v in vectors]
        assert list(vectors) == public
        assert [hash(v) for v in vectors] == [hash(v) for v in public]
        assert all(type(v) is LatticeVector and type(v.doubled) is tuple
                   for v in vectors)
        assert len(set(vectors) | set(public)) == len(vectors)


def test_repeated_blocks_are_searched_once(monkeypatch):
    calls = []
    search = lattice._block_class_members

    def recorded(wb, budget_q):
        calls.append((wb, budget_q))
        return search(wb, budget_q)

    monkeypatch.setattr(lattice, "_block_class_members", recorded)
    # class minima are closed form: only the members are searched
    assert eta(concat(*([W0] * 3))).count == 16 ** 3
    assert calls == [(W0.doubled, 16)]
    calls.clear()
    assert eta(concat(*([ROOT] * 16)), keep_vectors=False).count == 2 ** 16
    assert calls == [(ROOT.doubled, 8)]
    calls.clear()
    assert is_extremal(concat(W0, ROOT, W0, zero(1), ROOT))
    assert calls == []


def test_member_search_above_cap_is_refused_before_searching(monkeypatch):
    # 4,4,0,...: the class of zero searched up to doubled norm 128, the cap
    largest = from_coords((4, 4, 0, 0, 0, 0, 0, 0))
    assert eta(largest, keep_vectors=False).count == 17520
    search = lattice._block_class_members

    def capped(wb, budget_q):
        assert budget_q <= 8, "member search on a refused class"
        return search(wb, budget_q)

    monkeypatch.setattr(lattice, "_block_class_members", capped)
    for w in (from_coords((5, 5, 0, 0, 0, 0, 0, 0)),
              from_coords((8, 8, 0, 0, 0, 0, 0, 0)),
              concat(largest, W0)):
        with pytest.raises(LatticeError, match="beyond the 32"):
            eta(w, keep_vectors=False)
        with pytest.raises(LatticeError):
            congruent_vectors(w)
    assert not is_extremal(from_coords((8, 8, 0, 0, 0, 0, 0, 0)))


def _reference_from_coords(coords):
    """from_coords as it read coordinates through linalg.rational."""
    from floer_workbench.linalg import rational
    vals = [rational(c) for c in coords]
    if len(vals) % 8:
        raise LatticeError("coordinate count must be a multiple of 8")
    doubled = []
    for v in vals:
        d = 2 * v
        if d.denominator != 1:
            raise LatticeError("coordinate %s is not a multiple of 1/2" % (v,))
        doubled.append(int(d))
    return LatticeVector(len(vals) // 8, tuple(doubled))


def _coords_outcome(build, coords):
    try:
        v = build(iter(coords))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    assert all(type(c) is int for c in v.doubled)
    return v


def test_from_coords_reads_coordinates_as_rational_did():
    """Doubled integers, exception types and texts match the reading
    through linalg.rational, on seeded coordinate lists mixing ints,
    bools, Fractions, canonical and non-canonical strings and bad
    values, at counts that are and are not multiples of 8."""
    good = [0, 1, -2, True, False, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2),
            "0", "1", "-1", "1/2", "-3/2", "2/4", "-0", "007", " 5/2 ", "１",
            "١/٢", "6/4", "0/9"]
    bad = [Fraction(1, 3), "1/3", "5/6", "2/3", "3/06", "1/0", "1.5", "+1", "x",
           "", "1/-2", "7" * 5000, 0.5, None, "½"]
    rng = random.Random(808)
    seen = set()
    for _ in range(3000):
        count = rng.choice([8, 8, 16, 7, 9, 0])
        coords = [rng.choice(good) for _ in range(count)]
        if coords and rng.random() < 0.4:
            coords[rng.randrange(count)] = rng.choice(bad)
        got = _coords_outcome(from_coords, coords)
        assert got == _coords_outcome(_reference_from_coords, coords)
        seen.add(type(got) if isinstance(got, LatticeVector) else got[0])
    assert seen == {LatticeVector, LatticeError, ValueError, TypeError}


"""Fiber patterns, retraction, gluing and the covering homotopies."""

import random
from fractions import Fraction as F

import pytest

import pamscan.fibers as fibers
from pamscan import (
    BMElement,
    CLOSED,
    DomainError,
    Interval,
    OPEN,
    SymmetricConfig,
    UndecidedError,
    base_homotopy,
    bm_canon,
    cap_project,
    classify_fiber,
    contract,
    cover_homotopy,
    double,
    glue_g,
    is_in_O,
    labeled_normalize,
    lc_sorted,
    mirror_config,
    path_eval_at_zero,
    positive_part,
    push_homotopy,
    retract_r,
    standard_lift,
    translate_config,
)

from genutil import (
    cyclic_pam,
    rand_admissible,
    rand_bm_pairs,
    rand_symmetric,
    truncated_pam,
)


def I(u, v, p, q):
    return Interval(F(u), F(v), p, q)


HO = (OPEN, CLOSED)

# standard pattern over {1/2: c}: central a, near cut pair b
ETA_H = (
    (I("-7/2", "-1/4", *HO), "b"),
    (I("-1/4", "1/4", *HO), "a"),
    (I("1/4", "7/2", *HO), "b"),
)
# same value, strands too short for the wide window
ETA_F_NEAR = (
    (I("-3/2", "-1/4", *HO), "b"),
    (I("-1/4", "1/4", *HO), "a"),
    (I("1/4", "3/2", *HO), "b"),
)
# far cut pair: contributes only to the narrow pattern, not the value
ETA_F_FAR = (
    (I(-3, "-5/8", *HO), "b"),
    (I("-1/4", "1/4", *HO), "a"),
    (I("5/8", 3, *HO), "b"),
)
Z_C = BMElement(None, ((F(1, 2), "c"),))
Z_A = BMElement(None, ((F(1, 2), "a"),))


def test_classify_standard(m3):
    assert path_eval_at_zero(ETA_H, m3) == Z_C
    cls = classify_fiber(ETA_H, Z_C, m3)
    assert cls.verdict == "in-H"
    assert cls.alpha == (("a", "b"),)
    assert cls.far == ()
    assert cls.matched


def test_classify_near(m3):
    assert path_eval_at_zero(ETA_F_NEAR, m3) == Z_C
    cls = classify_fiber(ETA_F_NEAR, Z_C, m3)
    assert cls.verdict == "in-F"
    assert cls.alpha == (("a", "b"),)


def test_classify_far(m3):
    assert path_eval_at_zero(ETA_F_FAR, m3) == Z_A
    cls = classify_fiber(ETA_F_FAR, Z_A, m3)
    assert cls.verdict == "in-F"
    assert cls.alpha == (("a", "0"),)
    assert cls.far == ((F(5, 4), "b"),)


def test_classify_neither(m3):
    cls = classify_fiber(((I(0, 1, CLOSED, OPEN), "c"),), Z_C, m3)
    assert cls.verdict == "neither"
    assert not cls.matched
    assert "unpaired" in cls.reason


def test_classify_wrong_value(m3):
    cls = classify_fiber(ETA_F_FAR, Z_C, m3)
    assert cls.verdict == "neither"
    assert "not a partition of c" in cls.reason


def test_retract_fixes_standard(m3):
    assert retract_r(ETA_H, Z_C, m3) == labeled_normalize(ETA_H, m3)


def test_retract_near_frozen(m3):
    out = retract_r(ETA_F_NEAR, Z_C, m3)
    assert out == labeled_normalize(ETA_H, m3)
    assert classify_fiber(out, Z_C, m3).verdict == "in-H"


def test_retract_far_frozen(m3):
    # three outward rounds push the far pair beyond the wide window
    out = retract_r(ETA_F_FAR, Z_A, m3)
    assert out == (
        (I(-68, "-49/8", *HO), "b"),
        (I("-1/4", "1/4", *HO), "a"),
        (I("49/8", 68, *HO), "b"),
    )
    cls = classify_fiber(out, Z_A, m3)
    assert cls.verdict == "in-H"
    assert cls.alpha == (("a", "0"),)


def test_retract_rejects_non_member(m3):
    with pytest.raises(DomainError, match="not a fiber member"):
        retract_r(((I(0, 1, CLOSED, OPEN), "c"),), Z_C, m3)


def oracle_retract(eta, z, pam, bound):
    """The retraction as a loop of at most ``bound`` maps.

    This is the loop ``retract_r`` ran before it stopped by proof.
    Returns (result, maps); a member still in-F after ``bound`` maps
    raises UndecidedError.
    """
    half = F(1, 2)
    current = labeled_normalize(eta, pam)
    maps = 0
    while True:
        cls = classify_fiber(current, z, pam)
        if cls.verdict == "in-H":
            return current, maps
        if cls.verdict != "in-F":
            raise DomainError("not a fiber member: %s" % cls.reason)
        if maps == bound:
            raise UndecidedError("no verdict within %d maps" % bound)
        maps += 1
        mapped = []
        for j, m in current:
            if j.u < 0 < j.v:
                f = fibers._odd(fibers._sigma)
            elif j.u >= 1 or j.v <= -1:
                f = fibers._odd(fibers._tau)
            else:
                cut = j.u if j.u >= 0 else -j.v
                f = fibers._odd(fibers._sigma) if cut < half else fibers._odd(fibers._tau)
            nj = j.map_endpoints(f)
            if nj is not None:
                mapped.append((nj, m))
        current = labeled_normalize(mapped, pam)


def test_retract_late_success(m3):
    # a central piece of radius 1/2 + 1/4374: its excess triples each
    # round and clips the wide window after 9 maps
    eta = ((I("-1094/2187", "1094/2187", *HO), "a"),)
    z = BMElement("a", ())
    want = ((I(-5, 5, *HO), "a"),)
    assert oracle_retract(eta, z, m3, 64) == (want, 9)
    assert retract_r(eta, z, m3) == want


# denominators for member ends: powers of 2 and of 3, and their products
MEMBER_DENS = (2, 4, 8, 3, 9, 27, 81, 243, 2187, 6, 12)


def _rand_ratio(rng, hi):
    """A rational in (0, hi] over a drawn denominator."""
    d = rng.choice(MEMBER_DENS)
    return F(rng.randint(1, hi * d), d)


def _rand_radius(rng, hi):
    """Exactly 1/2, 1/2 +- 3^-k/2 for k in 1..10, or a drawn ratio."""
    x = rng.random()
    if x < 0.25:
        return F(1, 2)
    if x < 0.5:
        return F(1, 2) + rng.choice((1, -1)) * F(1, 2 * 3 ** rng.randint(1, 10))
    return _rand_ratio(rng, hi)


def _rand_member(rng, names):
    """Maybe a central piece, 0-2 mirrored cut pairs, maybe one unmirrored piece."""
    pieces = []
    if rng.random() < 0.8:
        r = _rand_radius(rng, 4)
        p = rng.choice((OPEN, CLOSED))
        pieces.append((I(-r, r, p, -p), names[rng.choice("abc")]))
    for _ in range(rng.randint(0, 2)):
        c = _rand_radius(rng, 3)
        j = I(c, c + _rand_ratio(rng, 5), rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
        m = names[rng.choice("abc")]
        pieces += [(j, m), (j.mirror(), m)]
    if rng.random() < 0.2:
        # far content need not be mirrored, and a piece may reach into
        # the wide window from one side only
        u = _rand_ratio(rng, 8) - 5
        j = I(u, u + _rand_ratio(rng, 5), rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
        pieces.append((j, names[rng.choice("abc")]))
    return lc_sorted(pieces)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DomainError as e:
        return type(e).__name__, str(e)


RETRACT_DRAWS = 2000


# per carrier: draws whose value does not evaluate, results within 8
# maps, results after more than 8 (the old bound's undecided cases),
# stalls, and other errors (not a fiber member, outside the tensor region)
@pytest.mark.parametrize("carrier_name, counts", [
    ("m3", {"invalid": 755, "early": 851, "late": 34, "stall": 189, "error": 171}),
    ("z5", {"invalid": 53, "early": 1218, "late": 66, "stall": 302, "error": 361}),
    ("trunc6", {"invalid": 152, "early": 1162, "late": 48, "stall": 311, "error": 327}),
])
def test_retract_matches_the_bounded_oracle(m3, carrier_name, counts):
    # wherever 64 maps decide, the retraction gives the oracle's result or
    # error text; where they do not, it stalls
    pam, names = BEYOND_M3[carrier_name] if carrier_name != "m3" else (m3, {m: m for m in "abc"})
    rng = random.Random("retract-" + carrier_name)
    seen = dict.fromkeys(counts, 0)
    for _ in range(RETRACT_DRAWS):
        eta = _rand_member(rng, names)
        try:
            z = path_eval_at_zero(eta, pam) if rng.random() < 0.9 else bm_canon(pam, [])
        except DomainError:
            seen["invalid"] += 1
            continue
        got = _outcome(retract_r, eta, z, pam)
        want = _outcome(oracle_retract, eta, z, pam, 64)
        if want[0] == "UndecidedError":
            assert got[0] == "DomainError", (eta, z, got)
            assert got[1].startswith("retraction stalls off the standard pattern: "), (eta, z, got)
            seen["stall"] += 1
        elif want[0] == "ok":
            assert got == ("ok", want[1][0]), (eta, z, got, want)
            seen["late" if want[1][1] > 8 else "early"] += 1
        else:
            assert got == want, (eta, z, got)
            seen["error"] += 1
    assert seen == counts


def test_glue_frozen(m3):
    out = glue_g(ETA_H, (("a", "b"),), Z_C, m3)
    assert out == (
        (I("-11/2", "-9/4", *HO), "b"),
        (I("-9/4", -2, *HO), "a"),
        (I(-2, "-1/4", *HO), "b"),
        (I("-1/4", "1/4", *HO), "a"),
        (I("1/4", 2, *HO), "b"),
        (I(2, "9/4", *HO), "a"),
        (I("9/4", "11/2", *HO), "b"),
    )
    assert path_eval_at_zero(out, m3) == Z_C
    cls = classify_fiber(out, Z_C, m3)
    assert cls.verdict == "in-F"
    assert cls.alpha == (("a", "b"),)


def test_glue_guards(m3):
    with pytest.raises(DomainError, match="one partition per base point"):
        glue_g(ETA_H, (), Z_C, m3)
    with pytest.raises(DomainError, match="not a partition"):
        glue_g(ETA_H, (("a", "a"),), Z_C, m3)
    # alpha must agree with what the member already shows at 1/2
    with pytest.raises(DomainError, match="disagrees"):
        glue_g(ETA_H, (("b", "a"),), Z_C, m3)
    # gluing onto a narrow-pattern member is refused
    with pytest.raises(DomainError, match="standard pattern"):
        glue_g(ETA_F_NEAR, (("a", "b"),), Z_C, m3)


def test_glue_with_m0(m3):
    # standard members over a 0-labeled base span the whole wide window
    eta = ((I(-4, 4, CLOSED, OPEN), "c"),)
    z = path_eval_at_zero(eta, m3)
    assert z == BMElement("c", ())
    assert classify_fiber(eta, z, m3).verdict == "in-H"
    out = glue_g(eta, (), z, m3)
    # the fresh content contributes the half-open seam piece at 0
    assert (I(-1, 1, CLOSED, OPEN), "c") in out
    assert path_eval_at_zero(out, m3) == z


def test_contract_frozen(m3):
    nf = labeled_normalize(ETA_H, m3)
    assert contract(ETA_H, F(0), F(7, 2), m3) == nf
    assert contract(ETA_H, F(1, 2), F(7, 2), m3) == ((I("-7/4", "7/4", *HO), "b"),)
    assert contract(ETA_H, F(1), F(7, 2), m3) == ()
    with pytest.raises(DomainError):
        contract(ETA_H, F(2), F(7, 2), m3)


def test_contract_is_monotone_membership(m3):
    # clamped mirror strands paste through 0 and stay a configuration
    for k in range(9):
        out = contract(ETA_H, F(k, 8), F(7, 2), m3)
        assert out == labeled_normalize(out, m3)


def test_cap_project_frozen(m3):
    z, cap, s2 = cap_project(ETA_H, F(7, 2), m3)
    assert z == Z_C
    assert s2 == F(11, 2)
    assert cap == (
        (I("3/4", "7/4", *HO), "b"),
        (I(1, 2, OPEN, OPEN), "a"),
        (I(2, "9/4", CLOSED, CLOSED), "a"),
        (I("9/4", "11/2", *HO), "b"),
    )


def test_standard_lift_frozen(m3):
    z, cap, s2 = cap_project(ETA_H, F(7, 2), m3)
    lift, s3 = standard_lift(z, (), s2 - 2, m3)
    assert s3 == F(11, 2)
    assert lift == (
        (I("-5/4", "-1/4", *HO), "c"),
        (I("1/4", "5/4", *HO), "c"),
    )
    assert path_eval_at_zero(lift, m3) == z


def test_standard_lift_rejects_m0(m3):
    with pytest.raises(DomainError, match="no label at coordinate 0"):
        standard_lift(BMElement("a", ()), (), F(1), m3)


def test_standard_lift_with_payload(m3):
    z = BMElement(None, ((F(-1, 2), "a"),))
    xi = ((I(1, 2, *HO), "b"),)
    lift, s2 = standard_lift(z, xi, F(2), m3)
    # the payload lands at +2 with its mirror on the left
    assert (I(3, 4, *HO), "b") in lift
    assert (I(-4, -3, *HO), "b") in lift
    assert path_eval_at_zero(lift, m3) == z


def test_push_homotopy(m3):
    pos = positive_part(labeled_normalize(ETA_H, m3), m3)
    assert push_homotopy(pos, F(0), m3) == labeled_normalize(pos, m3)
    assert push_homotopy(pos, F(1), m3) == ()
    mid = push_homotopy(pos, F(1, 2), m3)
    assert all(j.u >= 1 for j, _ in mid)


def test_push_homotopy_slides_negative_content_toward_minus_two(m3):
    xi = ((I(-5, -3, *HO), "a"), (I(3, 5, CLOSED, OPEN), "a"))
    assert push_homotopy(xi, F(1), m3) == (
        (I(-3, -2, *HO), "a"),
        (I(2, 3, CLOSED, OPEN), "a"),
    )


def test_push_homotopy_commutes_with_mirror(m3):
    rng = random.Random(22)
    for _ in range(80):
        xi, s = rand_admissible(rng, 4)
        # eighth-grid ends moved by an odd sixteenth, so none lands on 0
        xi = translate_config(xi, -F(rng.randint(0, int(s * 8)), 8) - F(1, 16))
        for t in (F(0), F(1, 8), F(1, 2), F(3, 4), F(1)):
            pushed = push_homotopy(xi, t, m3)
            assert push_homotopy(mirror_config(xi), t, m3) == mirror_config(pushed), (xi, t)


def test_base_homotopy_spots(m3):
    za = bm_canon(m3, [(F(1, 4), "a")])
    assert base_homotopy(za, F(1), m3) == BMElement(None, ((F(1, 2), "a"),))
    zb = bm_canon(m3, [(F(3, 4), "a")])
    assert base_homotopy(zb, F(1), m3).is_empty
    assert base_homotopy(zb, F(0), m3) == zb
    zm = bm_canon(m3, [(F(0), "c")])
    assert base_homotopy(zm, F(1), m3) == zm


def test_is_in_O_strict(m3):
    assert not is_in_O(BMElement(None, ((F(1, 2), "a"),)))
    assert is_in_O(BMElement(None, ((F(5, 8), "a"),)))
    assert not is_in_O(BMElement("c", ()))


COVER_ETA = (
    (I(-3, -1, *HO), "b"),
    (I("-1/8", "1/8", *HO), "a"),
    (I(1, 3, *HO), "b"),
)


def test_cover_homotopy_frozen(m3):
    z = path_eval_at_zero(COVER_ETA, m3)
    assert z == BMElement(None, ((F(3, 4), "a"),))
    out0, s0 = cover_homotopy(COVER_ETA, F(0), F(3), m3)
    assert s0 == F(3)
    assert out0 == labeled_normalize(COVER_ETA, m3)
    out1, s1 = cover_homotopy(COVER_ETA, F(1), F(3), m3)
    assert s1 == F(9, 2)
    # the thin central piece collapses; strands shift out by 3/2
    assert out1 == (
        (I("-9/2", "-5/2", *HO), "b"),
        (I("5/2", "9/2", *HO), "b"),
    )


def test_cover_homotopy_covers_base(m3):
    z = path_eval_at_zero(COVER_ETA, m3)
    for t in (F(1, 4), F(1, 2), F(3, 4)):
        out, _ = cover_homotopy(COVER_ETA, t, F(3), m3)
        assert path_eval_at_zero(out, m3) == base_homotopy(z, t, m3)


def test_cover_homotopy_guards(m3):
    # value {1/2: a} sits on the closed half-ball: not in O
    eta = ((I("-1/4", "1/4", *HO), "a"),)
    with pytest.raises(DomainError, match="beyond 1/2"):
        cover_homotopy(eta, F(1, 2), F(1), m3)
    lop = ((I("-1/8", "1/8", *HO), "a"), (I(1, 3, *HO), "b"))
    with pytest.raises(DomainError, match="mirror-invariant"):
        cover_homotopy(lop, F(1, 2), F(3), m3)


# Acceptance criteria 8-10 beyond M3: the generators draw labels a, b, c
# with a + b = c, and each carrier below names them by elements with the
# same sum.  Every sum of M3 holds there too, so a draw stays admissible.
BEYOND_M3 = {
    "z5": (cyclic_pam(5), {"a": "g1", "b": "g2", "c": "g3"}),
    "trunc6": (truncated_pam(6), {"a": "1", "b": "2", "c": "3"}),
}
DRAWS = 300


def _relabel(xi, names):
    return lc_sorted([(j, names[m]) for j, m in xi])


def _admissible_draw(rng, names):
    while True:
        xi, s = rand_admissible(rng, 3)
        if s <= 20:
            return _relabel(xi, names), s


@pytest.mark.parametrize("carrier_name, seed", [("z5", 145), ("trunc6", 245)])
def test_positive_part_inverts_double_beyond_m3(carrier_name, seed):
    pam, names = BEYOND_M3[carrier_name]
    rng = random.Random(seed)
    for _ in range(DRAWS):
        xi, _ = _admissible_draw(rng, names)
        assert mirror_config(mirror_config(xi)) == xi
        back = positive_part(double(xi), pam)
        assert labeled_normalize(back, pam) == labeled_normalize(xi, pam)


@pytest.mark.parametrize("carrier_name, seed", [("z5", 146), ("trunc6", 246)])
def test_contract_beyond_m3(carrier_name, seed):
    pam, names = BEYOND_M3[carrier_name]
    rng = random.Random(seed)
    for _ in range(DRAWS):
        pieces, s = rand_symmetric(rng)
        pieces = _relabel(pieces, names)
        assert contract(pieces, 0, s, pam) == labeled_normalize(pieces, pam)
        assert contract(pieces, 1, s, pam) == ()
        for k in range(9):
            SymmetricConfig(contract(pieces, F(k, 8), s, pam), s).validate(pam)


@pytest.mark.parametrize("carrier_name, seed", [("z5", 147), ("trunc6", 247)])
def test_standard_lift_beyond_m3(carrier_name, seed):
    pam, names = BEYOND_M3[carrier_name]
    rng = random.Random(seed)
    for _ in range(DRAWS):
        pairs = [(t, names[m]) for t, m in rand_bm_pairs(rng, pam, allow_zero_coord=False)]
        z = bm_canon(pam, pairs)
        xi, s = _admissible_draw(rng, names)
        lifted, s2 = standard_lift(z, xi, s, pam)
        assert s2 == s + 2
        assert path_eval_at_zero(lifted, pam) == z


@pytest.mark.parametrize("carrier_name, seed", [("z5", 148), ("trunc6", 248)])
def test_cover_homotopy_covers_base_beyond_m3(carrier_name, seed):
    pam, names = BEYOND_M3[carrier_name]
    rng = random.Random(seed)
    for _ in range(DRAWS):
        pieces, s = rand_symmetric(rng, cover_safe=True)
        pieces = _relabel(pieces, names)
        t = F(rng.randint(0, 8), 8)
        moved, s2 = cover_homotopy(pieces, t, s, pam)
        assert s2 == s + F(3, 2) * t
        want = base_homotopy(path_eval_at_zero(pieces, pam), t, pam)
        assert path_eval_at_zero(moved, pam) == want


@pytest.mark.parametrize("carrier_name", ["z5", "trunc6"])
def test_criterion_11_beyond_m3(carrier_name):
    # acceptance criterion 11's partition loop, relabeled: every partition
    # of c retracts to in-H with that alpha and glues back to in-F with it.
    # A partition (m, m) would paste the central piece to its cut strands,
    # so this shape cannot carry it, and glue_g refuses it
    pam, names = BEYOND_M3[carrier_name]
    c = names["c"]
    z_c = BMElement(None, ((F(1, 2), c),))
    cases = [(a, b) for a, b in pam.partitions(c) if a != b]
    assert cases == [("0", c), (names["a"], names["b"]), (names["b"], names["a"]), (c, "0")]
    # every partition (a, a) of a label m at +-1/2, (g4, g4) of g3 among them
    doubles = [(a, m) for m in pam.elements for a, b in pam.partitions(m) if a == b != "0"]
    assert doubles == {
        "z5": [("g3", "g1"), ("g1", "g2"), ("g4", "g3"), ("g2", "g4")],
        "trunc6": [("1", "2"), ("2", "4"), ("3", "6")],
    }[carrier_name]
    for a, m in doubles:
        for u in (F(1, 2), F(-1, 2)):
            with pytest.raises(DomainError, match=r"^partition \(%s, %s\) at %s would paste" % (a, a, u)):
                glue_g((), ((a, a),), BMElement(None, ((u, m),)), pam)
    for a, b in cases:
        xi = []
        if a != "0":
            xi.append((I("-1/4", "1/4", *HO), a))
        if b != "0":
            right = I("1/4", "3/2", *HO)
            xi.extend([(right, b), (right.mirror(), b)])
        xi = lc_sorted(xi)
        assert path_eval_at_zero(xi, pam) == z_c
        ret = retract_r(xi, z_c, pam)
        cls = classify_fiber(ret, z_c, pam)
        assert cls.verdict == "in-H" and cls.alpha == ((a, b),), (a, b)
        glued = glue_g(ret, ((a, b),), z_c, pam)
        cls2 = classify_fiber(glued, z_c, pam)
        assert cls2.verdict == "in-F" and cls2.alpha == ((a, b),), (a, b)
        assert path_eval_at_zero(glued, pam) == z_c

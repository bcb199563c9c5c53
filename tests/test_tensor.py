"""Tensor-region membership and circle-tensor canonical forms.

``rewrite_neighbors`` and ``tensor_eq`` are a bounded search over one-step
rewrites of pair multisets.  The library decides the one tensor product
it uses, the circle with a pam, exactly by ``bm_canon``; the search stays
here as an oracle that must never call two multisets EQUAL whose
``bm_canon`` differ.  ``oracle_bm_canon`` is ``bm_canon`` as it was built
on the two-carrier ``_trivial_canon``, which the library no longer has.

The library's carriers give only the two sums ``in_T`` reads; the search
reads units, element and partition listings and sort keys besides, which
``ListedPam`` and ``ListedCircle`` add here.
"""

import random
from fractions import Fraction as F

import pytest

import pamscan.tensor as tensor
from pamscan import (
    BASEPOINT,
    UNIT,
    BMElement,
    DomainError,
    bm_canon,
    config_eq,
    norm_circle,
)
from pamscan.dsl import parse_config
from pamscan.tensor import (
    CircleCarrier,
    PamCarrier,
    TrivialCarrier,
    _bidirectional_search,
    _minimal_unsummable,
    in_T,
    EqVerdict,
)
from pamscan import CLOSED, OPEN, Interval

from genutil import ConfigCarrier, rand_bm_pairs


class ListedPam(PamCarrier):
    """A pam carrier with the unit, listings and sort key the search reads."""

    is_trivial = False

    def zero(self):
        return UNIT

    def is_zero(self, x):
        return self.pam.check_element(x) == UNIT

    def partitions(self, m):
        return self.pam.partitions(m)

    def elements(self):
        return list(self.pam.elements)

    def sort_key(self, x):
        return self.pam.index(x)


class ListedCircle(CircleCarrier):
    """The circle with the unit, partitions and sort key the search reads;
    it lists no elements."""

    is_trivial = True

    def zero(self):
        return self.base

    def is_zero(self, t):
        return self.point(t) == self.base

    def partitions(self, t):
        t = self.point(t)
        if t == self.base:
            return [(self.base, self.base)]
        return [(self.base, t), (t, self.base)]

    def elements(self):
        return None

    def sort_key(self, t):
        return self.point(t)


def _canon_pairs(c1, c2, pairs):
    return tuple(sorted(pairs, key=lambda p: (c1.sort_key(p[0]), c2.sort_key(p[1]))))


def _trivial_canon(c1, c2, pairs):
    """Exact canonical form when either carrier is trivial.

    Group by the trivial-side coordinate, sum the other side within each
    group (summability is forced by tensor membership), then drop pairs with
    a zero on either side.
    """
    if c1.is_trivial:
        key_side, sum_side = 0, 1
        kc, sc = c1, c2
    else:
        key_side, sum_side = 1, 0
        kc, sc = c2, c1
    groups = {}
    for p in pairs:
        k = kc.point(p[key_side])
        if k != kc.base:
            groups.setdefault(k, []).append(p[sum_side])
    out = []
    for k, vals in groups.items():
        total = sc.tuple_sum(vals)
        if total is None:
            raise DomainError(
                "not in the tensor region: coordinate %r carries unsummable labels %r"
                % (k, vals)
            )
        if sc.is_zero(total):
            continue
        pair = (k, total) if key_side == 0 else (total, k)
        out.append(pair)
    return _canon_pairs(c1, c2, out)


def oracle_bm_canon(pam, pairs):
    """``bm_canon`` through ``_trivial_canon`` over the circle and the pam."""
    pairs = list(pairs)
    labels = []
    for t, m in pairs:
        t = norm_circle(t)
        pam.check_element(m)
        if t != BASEPOINT and m != UNIT:
            labels.append(m)
    if pam.sum_tuple(labels) is None:
        raise DomainError(
            "not in the tensor region: labels %r are not jointly summable"
            % (_minimal_unsummable(pam.sum_tuple, labels),)
        )
    canon = _trivial_canon(ListedCircle(), ListedPam(pam), pairs)
    m0 = next((m for t, m in canon if t == 0), None)
    return BMElement(m0, tuple((t, m) for t, m in canon if t != 0))


def rewrite_neighbors(c1, c2, pairs):
    """One-step rewrites of a pair multiset, filtered to the tensor region.

    Moves: drop/insert a pair with a zero coordinate (insertions use the
    other carrier's elements when finite, and reuse coordinates already
    present otherwise); split a coordinate along the carrier's partitions;
    merge two pairs that agree in the other coordinate and whose remaining
    coordinates are summable.  Every candidate is checked: unlike
    ``labeled.labeled_rewrite_neighbors``, no claim is made here that the
    moves keep the tensor region.
    """
    pairs = list(pairs)
    out = set()

    def admit(cand):
        cand = list(cand)
        if in_T(c1, c2, cand):
            out.add(_canon_pairs(c1, c2, cand))

    for i, (x, y) in enumerate(pairs):
        if c1.is_zero(x) or c2.is_zero(y):
            admit(pairs[:i] + pairs[i + 1 :])

    first_coords = [p[0] for p in pairs]
    second_coords = [p[1] for p in pairs]
    e1 = c1.elements()
    e2 = c2.elements()
    for x in e1 if e1 is not None else set(first_coords):
        admit(pairs + [(x, c2.zero())])
    for y in e2 if e2 is not None else set(second_coords):
        admit(pairs + [(c1.zero(), y)])

    for i, (x, y) in enumerate(pairs):
        rest = pairs[:i] + pairs[i + 1 :]
        parts1 = c1.partitions(x)
        if parts1 is not None:
            for x1, x2 in parts1:
                admit(rest + [(x1, y), (x2, y)])
        parts2 = c2.partitions(y)
        if parts2 is not None:
            for y1, y2 in parts2:
                admit(rest + [(x, y1), (x, y2)])

    for i in range(len(pairs)):
        for k in range(i + 1, len(pairs)):
            (x1, y1), (x2, y2) = pairs[i], pairs[k]
            rest = [p for idx, p in enumerate(pairs) if idx not in (i, k)]
            if y1 == y2:
                s = c1.pair_sum(x1, x2)
                if s is not None:
                    admit(rest + [(s, y1)])
            if x1 == x2:
                s = c2.pair_sum(y1, y2)
                if s is not None:
                    admit(rest + [(x1, s)])
    return out


def tensor_eq(c1, c2, a, b, depth=6):
    """Decide rewrite equivalence of two pair multisets.

    With a trivial carrier on either side the canonical form is exact.
    Otherwise a bounded bidirectional search over one-step rewrites returns
    EQUAL, DISTINCT (both reachability sets exhausted), or UNKNOWN once
    ``depth`` rounds or ``SEARCH_NODE_CAP`` nodes are spent.
    """
    if not in_T(c1, c2, a) or not in_T(c1, c2, b):
        raise DomainError("tensor_eq requires both multisets in the tensor region")
    if c1.is_trivial or c2.is_trivial:
        return (
            EqVerdict.EQUAL
            if _trivial_canon(c1, c2, a) == _trivial_canon(c1, c2, b)
            else EqVerdict.DISTINCT
        )
    return _bidirectional_search(
        _canon_pairs(c1, c2, a),
        _canon_pairs(c1, c2, b),
        lambda node: rewrite_neighbors(c1, c2, node),
        depth,
    )


def test_norm_circle():
    assert norm_circle(F(5, 2)) == F(1, 2)
    assert norm_circle(F(-1)) == F(1)
    assert norm_circle(F(1)) == BASEPOINT
    assert norm_circle(F(3)) == BASEPOINT
    assert norm_circle(F(-1, 4)) == F(-1, 4)
    assert norm_circle(F(7, 4)) == F(-1, 4)


def test_bm_element_validation():
    z = BMElement("a", ((F(1, 2), "b"),))
    assert z.level == 2
    assert not z.is_empty
    assert z.to_pairs() == [(F(0), "a"), (F(1, 2), "b")]
    assert BMElement(None, ()).is_empty
    with pytest.raises(ValueError):
        BMElement(None, ((F(1), "a"),))
    with pytest.raises(ValueError):
        BMElement(None, ((F(1, 2), "a"), (F(1, 4), "b")))
    with pytest.raises(ValueError):
        BMElement(None, ((F(1, 2), "0"),))
    with pytest.raises(ValueError):
        BMElement("0", ())


def test_bm_canon_merges(m3):
    z = bm_canon(m3, [(F(1, 2), "a"), (F(1, 2), "b")])
    assert z == BMElement(None, ((F(1, 2), "c"),))
    assert z.level == 1


def test_bm_canon_drops_trivia(m3):
    # basepoint coordinates and zero labels vanish, coordinates wrap
    z = bm_canon(m3, [(F(5, 2), "a"), (F(-1), "b"), (F(1, 4), "0")])
    assert z == BMElement(None, ((F(1, 2), "a"),))
    assert bm_canon(m3, []) == BMElement(None, ())


def test_bm_canon_zero_label(m3):
    z = bm_canon(m3, [(F(0), "c")])
    assert z.m0 == "c"
    assert z.points == ()
    assert z.level == 1


def test_bm_canon_unsummable_witness(m3):
    with pytest.raises(DomainError, match=r"\['a', 'a'\]"):
        bm_canon(m3, [(F(1, 4), "a"), (F(1, 2), "a")])


def test_bm_canon_group_annihilation(z2):
    # coincident labels summing to zero drop out entirely
    z = bm_canon(z2, [(F(1, 2), "g"), (F(1, 2), "g")])
    assert z.is_empty


def _draw_bm_pairs(rng, pam):
    """Up to six pairs on a quarter grid of [-3, 3], so coordinates wrap
    and hit 0 and the basepoint; a third of the pairs land on an earlier
    pair's point, two either way or in place.  Labels may be zero, and one
    draw in fifty carries a label the pam does not know."""
    pairs = []
    for _ in range(rng.randint(0, 6)):
        if pairs and rng.random() < 1 / 3:
            t = rng.choice(pairs)[0] + 2 * rng.randint(-1, 1)
        else:
            t = F(rng.randint(-12, 12), 4)
        pairs.append((t, rng.choice(pam.elements)))
    if pairs and rng.random() < 0.02:
        pairs[rng.randrange(len(pairs))] = (F(1, 2), "q")
    return pairs


def _bm_cases(pam, pairs):
    """The cases a draw exercises, for the oracle test's counts."""
    cases = set()
    groups = {}
    for t, m in pairs:
        nt = norm_circle(t)
        if nt != t:
            cases.add("wrap")
        if nt == BASEPOINT:
            cases.add("basepoint")
        elif m != UNIT and m in pam.elements:
            groups.setdefault(nt, []).append(m)
        if m == UNIT:
            cases.add("zero label")
    if F(0) in groups:
        cases.add("coordinate 0")
    if any(len(ms) > 1 and pam.sum_tuple(ms) == UNIT for ms in groups.values()):
        cases.add("annihilate")
    return cases


def _has_inverses(pam):
    return any(pam.pair_sum(a, b) == UNIT for a in pam.elements for b in pam.elements if a != UNIT)


def test_bm_canon_matches_trivial_canon_oracle(carrier):
    # 1,000 seeded draws per carrier, 4,000 over the four: bm_canon and
    # oracle_bm_canon give equal values, or DomainErrors with equal texts.
    # Over a group every label sum exists, so no draw is unsummable, and
    # only a group has nonzero labels that annihilate.
    rng = random.Random("bm-canon-oracle-" + carrier.name)
    seen = dict.fromkeys(
        ("unsummable", "annihilate", "coordinate 0", "wrap", "basepoint", "zero label"), 0
    )
    for _ in range(1000):
        pairs = _draw_bm_pairs(rng, carrier)
        try:
            want = oracle_bm_canon(carrier, pairs)
        except DomainError as e:
            with pytest.raises(DomainError) as info:
                bm_canon(carrier, iter(pairs))
            assert str(info.value) == str(e), pairs
            seen["unsummable"] += "jointly summable" in str(e)
        else:
            assert repr(bm_canon(carrier, iter(pairs))) == repr(want), pairs
        for case in _bm_cases(carrier, pairs):
            seen[case] += 1
    impossible = "unsummable" if _has_inverses(carrier) else "annihilate"
    assert seen.pop(impossible) == 0, seen
    assert min(seen.values()) >= 100, seen


def test_bm_canon_builds_what_the_checks_accept(carrier):
    # bm_canon builds its result without BMElement's checks; on the oracle
    # test's draws, the checking constructor accepts the same parts and
    # gives an equal value with the same repr and hash
    rng = random.Random("bm-canon-oracle-" + carrier.name)
    built = 0
    for _ in range(1000):
        pairs = _draw_bm_pairs(rng, carrier)
        try:
            z = bm_canon(carrier, pairs)
        except DomainError:
            continue
        checked = BMElement(z.m0, z.points)
        assert (z, repr(z), hash(z)) == (checked, repr(checked), hash(checked)), pairs
        built += z.level > 0
    assert built >= 200, built


def test_bm_element_refuses_noncanonical_parts():
    # the public constructor keeps every check bm_canon skips
    for m0, points, message in (
        (None, ((F(1), "a"),), "coordinate 1 outside the punctured domain"),
        (None, ((F(-1), "a"),), "coordinate -1 outside the punctured domain"),
        (None, ((F(0), "a"),), "coordinate 0 outside the punctured domain"),
        (None, ((F(1, 2), "a"), (F(1, 4), "b")), "coordinates must be strictly increasing"),
        (None, ((F(1, 2), "a"), (F(1, 2), "b")), "coordinates must be strictly increasing"),
        (None, ((F(1, 2), "0"),), "zero label at coordinate 1/2"),
        ("0", (), "use m0=None for an absent zero-coordinate label"),
    ):
        with pytest.raises(ValueError) as info:
            BMElement(m0, points)
        assert str(info.value) == message
    assert BMElement(None, ((0.5, "a"),)).points == ((F(1, 2), "a"),)


class SumsOnly:
    """A pam carrier with nothing but the two sums ``in_T`` reads."""

    __slots__ = ("pair_sum", "tuple_sum")

    def __init__(self, pam):
        self.pair_sum = pam.pair_sum
        self.tuple_sum = pam.sum_tuple


def test_carriers_give_two_sums():
    # a based set also keeps its point and base, which its sums read
    listed = {"pair_sum", "tuple_sum", "point", "base"}
    for cls in (PamCarrier, TrivialCarrier, CircleCarrier):
        names = {n for c in cls.__mro__[:-1] for n in vars(c) if not n.startswith("_")}
        assert names <= listed, (cls, names - listed)


def test_in_T_reads_only_the_two_sums(carrier):
    # the duck-typed carrier gives the verdicts and witnesses PamCarrier
    # gives, on either side, against a pam, the circle and a trivial set;
    # over a group every label sum exists, so every draw is in the region
    rng = random.Random("sums-only-" + carrier.name)
    pc, duck = PamCarrier(carrier), SumsOnly(carrier)
    trivial = TrivialCarrier(["0", "x", "y"])
    others = [
        (pc, lambda: rng.choice(carrier.elements)),
        (CircleCarrier(), lambda: F(rng.randint(-4, 4), 4)),
        (trivial, lambda: rng.choice(trivial.points)),
    ]
    verdicts = {True: 0, False: 0}
    for n in range(600):
        other, draw = others[n % 3]
        pairs = [(rng.choice(carrier.elements), draw()) for _ in range(rng.randint(0, 8))]
        flipped = [(y, x) for x, y in pairs]
        want = in_T(pc, other, pairs, witness=True)
        assert in_T(duck, other, pairs, witness=True) == want, pairs
        assert in_T(other, duck, flipped, witness=True) == in_T(other, pc, flipped, witness=True), pairs
        verdicts[want[0]] += 1
    assert verdicts[True] >= 50, verdicts
    assert verdicts[False] >= 50 or (_has_inverses(carrier) and not verdicts[False]), verdicts


def test_in_T_trivial_times_pam(m3):
    triv = TrivialCarrier(("0", "x", "y"))
    pc = PamCarrier(m3)
    assert in_T(triv, pc, [("x", "a"), ("x", "b")])
    assert not in_T(triv, pc, [("x", "a"), ("x", "a")])
    # distinct nonzero points are still insummable in the trivial carrier
    assert not in_T(triv, pc, [("x", "a"), ("y", "a")])
    ok, wit = in_T(triv, pc, [("x", "a"), ("x", "a")], witness=True)
    assert not ok
    assert wit == ("first", [0, 1])
    assert in_T(triv, pc, [])
    assert in_T(triv, pc, [("0", "a"), ("x", "a")])


def test_unknown_trivial_point_raises_in_either_order(m3):
    triv = TrivialCarrier(["0", "x"])
    pc = PamCarrier(m3)
    for pairs in ([("0", "a"), ("q", "b")], [("q", "b"), ("0", "a")]):
        with pytest.raises(DomainError, match="unknown point 'q'"):
            in_T(triv, pc, pairs)
    with pytest.raises(DomainError, match="unknown point 'q'"):
        triv.pair_sum("0", "q")


def test_in_T_circle(m3):
    circ = CircleCarrier()
    pc = PamCarrier(m3)
    assert in_T(circ, pc, [(F(1, 2), "a"), (F(1, 2), "b")])
    assert not in_T(circ, pc, [(F(1, 2), "a"), (F(1, 4), "a")])
    # the basepoint coordinate is a unit: no summability constraint
    assert in_T(circ, pc, [(F(1), "a"), (F(1, 4), "a")])


def test_config_carrier():
    cc = ConfigCarrier()
    a = (Interval(F(0), F(1), CLOSED, OPEN),)
    b = (Interval(F(1), F(2), CLOSED, OPEN),)
    assert cc.pair_sum(a, b) == (Interval(F(0), F(2), CLOSED, OPEN),)
    assert cc.pair_sum(a, a) is None
    assert cc.tuple_sum([]) == ()


def is_pairwise_insummable(carrier, xs):
    masks = tensor._insummable_masks(carrier, list(xs))
    full = (1 << len(masks)) - 1
    return all(m | 1 << i == full for i, m in enumerate(masks))


def test_is_pairwise_insummable(m3):
    pc = PamCarrier(m3)
    assert is_pairwise_insummable(pc, ["a", "a"])
    assert not is_pairwise_insummable(pc, ["a", "b"])
    assert is_pairwise_insummable(pc, ["c"])


def circle_search(pam, a, b, depth):
    """The rewrite search between two circle pair multisets over ``pam``.

    ``tensor_eq`` answers from ``_trivial_canon`` here, since the circle
    is a trivial carrier; this runs the search itself, and checks that an
    EQUAL it finds has equal ``bm_canon``.
    """
    circ, pc = ListedCircle(), ListedPam(pam)
    verdict = _bidirectional_search(
        _canon_pairs(circ, pc, a), _canon_pairs(circ, pc, b), lambda node: rewrite_neighbors(circ, pc, node), depth
    )
    if verdict == EqVerdict.EQUAL:
        assert bm_canon(pam, a) == bm_canon(pam, b), (a, b)
    return verdict


def test_tensor_eq_reflexive(m3):
    circ = ListedCircle()
    pc = ListedPam(m3)
    pairs = [(F(1, 2), "a"), (F(1, 4), "b")]
    assert tensor_eq(circ, pc, pairs, pairs) == EqVerdict.EQUAL
    assert circle_search(m3, pairs, pairs, 1) == EqVerdict.EQUAL


def test_rewrite_neighbors(m3):
    circ = ListedCircle()
    pc = ListedPam(m3)
    nbrs = rewrite_neighbors(circ, pc, [(F(1, 2), "c")])
    # splitting c along its nonzero partitions is among the moves
    split = sorted([(F(1, 2), "a"), (F(1, 2), "b")])
    assert any(sorted(n) == split for n in nbrs)
    assert all(circle_search(m3, [(F(1, 2), "c")], n, 1) == EqVerdict.EQUAL for n in nbrs)


def test_rewrites_past_sixteen_pairs(z2):
    circ = ListedCircle()
    pairs = [(F(k, 32), "g") for k in range(1, 17)]
    nbrs = rewrite_neighbors(circ, ListedPam(z2), pairs)
    assert any(len(n) == 17 for n in nbrs)
    assert all(bm_canon(z2, n) == bm_canon(z2, pairs) for n in nbrs)


def test_circle_search_equal_means_equal_bm_canon(m3):
    # 300 seeded searches over M3, from a drawn multiset to a random walk
    # of one to three rewrites from it or to a fresh draw: every EQUAL has
    # equal bm_canon (checked in circle_search), and every fresh draw
    # with another bm_canon stays apart
    rng = random.Random("circle-search")
    circ, pc = ListedCircle(), ListedPam(m3)
    seen = dict.fromkeys(("walk", "apart"), 0)
    for n in range(300):
        a = rand_bm_pairs(rng, m3)
        if n % 3:
            b = a
            for _ in range(rng.randint(1, 3)):
                b = list(rng.choice(sorted(rewrite_neighbors(circ, pc, b), key=repr)))
            assert circle_search(m3, a, b, 4) == EqVerdict.EQUAL, (a, b)
            seen["walk"] += 1
        else:
            b = rand_bm_pairs(rng, m3)
            if bm_canon(m3, a) != bm_canon(m3, b):
                assert circle_search(m3, a, b, 2) != EqVerdict.EQUAL, (a, b)
                seen["apart"] += 1
    assert min(seen.values()) >= 50, seen


def test_searches_stop_at_the_node_bound(m3, monkeypatch):
    pc = ListedPam(m3)
    a, b = [("c", "c")], [("a", "a"), ("b", "a"), ("a", "b"), ("b", "b")]
    # normal forms differ on this pair (ROADMAP item 1), so only the walk
    # decides it
    xi = parse_config("[0,2):a [1,3):b", m3)
    alt = parse_config("[0,1):a [1,2):c [2,3):b", m3)
    # normal forms agree on this pair, so no walk runs and no bound applies
    merged = parse_config("(0,2]:c", m3)
    split = parse_config("(0,1):a [1,2]:a (0,1):b [1,2]:b", m3)
    assert tensor_eq(pc, pc, a, b) == EqVerdict.EQUAL
    assert config_eq(xi, alt, m3, method="search") == EqVerdict.EQUAL
    assert config_eq(merged, split, m3, method="search") == EqVerdict.EQUAL
    monkeypatch.setattr(tensor, "SEARCH_NODE_CAP", 3)
    assert tensor_eq(pc, pc, a, b) == EqVerdict.UNKNOWN
    assert config_eq(xi, alt, m3, method="search") == EqVerdict.UNKNOWN
    assert config_eq(merged, split, m3, method="search") == EqVerdict.EQUAL

"""Tensor-region membership and circle-tensor canonical forms.

``rewrite_neighbors`` and ``tensor_eq`` are a bounded search over one-step
rewrites of pair multisets.  The library decides the one tensor product
it uses, the circle with a pam, exactly by ``bm_canon``; the search stays
here as an oracle that must never call two multisets EQUAL whose
``bm_canon`` differ.
"""

import random
from fractions import Fraction as F

import pytest

import pamscan.tensor as tensor
from pamscan import (
    BASEPOINT,
    BMElement,
    DomainError,
    bm_canon,
    config_eq,
    norm_circle,
)
from pamscan.dsl import parse_config
from pamscan.tensor import (
    CircleCarrier,
    ConfigCarrier,
    PamCarrier,
    TrivialCarrier,
    _bidirectional_search,
    _canon_pairs,
    _trivial_canon,
    in_T,
    EqVerdict,
)
from pamscan import CLOSED, OPEN, Interval

from genutil import rand_bm_pairs


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
    assert cc.is_zero(())


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
    circ, pc = CircleCarrier(), PamCarrier(pam)
    verdict = _bidirectional_search(
        _canon_pairs(circ, pc, a), _canon_pairs(circ, pc, b), lambda node: rewrite_neighbors(circ, pc, node), depth
    )
    if verdict == EqVerdict.EQUAL:
        assert bm_canon(pam, a) == bm_canon(pam, b), (a, b)
    return verdict


def test_tensor_eq_reflexive(m3):
    circ = CircleCarrier()
    pc = PamCarrier(m3)
    pairs = [(F(1, 2), "a"), (F(1, 4), "b")]
    assert tensor_eq(circ, pc, pairs, pairs) == EqVerdict.EQUAL
    assert circle_search(m3, pairs, pairs, 1) == EqVerdict.EQUAL


def test_rewrite_neighbors(m3):
    circ = CircleCarrier()
    pc = PamCarrier(m3)
    nbrs = rewrite_neighbors(circ, pc, [(F(1, 2), "c")])
    # splitting c along its nonzero partitions is among the moves
    split = sorted([(F(1, 2), "a"), (F(1, 2), "b")])
    assert any(sorted(n) == split for n in nbrs)
    assert all(circle_search(m3, [(F(1, 2), "c")], n, 1) == EqVerdict.EQUAL for n in nbrs)


def test_rewrites_past_sixteen_pairs(z2):
    circ = CircleCarrier()
    pairs = [(F(k, 32), "g") for k in range(1, 17)]
    nbrs = rewrite_neighbors(circ, PamCarrier(z2), pairs)
    assert any(len(n) == 17 for n in nbrs)
    assert all(bm_canon(z2, n) == bm_canon(z2, pairs) for n in nbrs)


def test_circle_search_equal_means_equal_bm_canon(m3):
    # 300 seeded searches over M3, from a drawn multiset to a random walk
    # of one to three rewrites from it or to a fresh draw: every EQUAL has
    # equal bm_canon (checked in circle_search), and every fresh draw
    # with another bm_canon stays apart
    rng = random.Random("circle-search")
    circ, pc = CircleCarrier(), PamCarrier(m3)
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
    pc = PamCarrier(m3)
    a, b = [("c", "c")], [("a", "a"), ("b", "a"), ("a", "b"), ("b", "b")]
    xi = parse_config("(0,2]:c", m3)
    alt = parse_config("(0,1):a [1,2]:a (0,1):b [1,2]:b", m3)
    assert tensor_eq(pc, pc, a, b) == EqVerdict.EQUAL
    assert config_eq(xi, alt, m3, method="search") == EqVerdict.EQUAL
    monkeypatch.setattr(tensor, "SEARCH_NODE_CAP", 3)
    assert tensor_eq(pc, pc, a, b) == EqVerdict.UNKNOWN
    assert config_eq(xi, alt, m3, method="search") == EqVerdict.UNKNOWN

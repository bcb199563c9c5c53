"""Tensor-region membership and circle-tensor canonical forms."""

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
    in_T,
    rewrite_neighbors,
    tensor_eq,
    EqVerdict,
)
from pamscan import CLOSED, OPEN, Interval


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


def test_tensor_eq_reflexive(m3):
    circ = CircleCarrier()
    pc = PamCarrier(m3)
    pairs = [(F(1, 2), "a"), (F(1, 4), "b")]
    assert tensor_eq(circ, pc, pairs, pairs) == EqVerdict.EQUAL


def test_rewrite_neighbors(m3):
    circ = CircleCarrier()
    pc = PamCarrier(m3)
    nbrs = rewrite_neighbors(circ, pc, [(F(1, 2), "c")])
    # splitting c along its nonzero partitions is among the moves
    split = sorted([(F(1, 2), "a"), (F(1, 2), "b")])
    assert any(sorted(n) == split for n in nbrs)


def test_rewrites_past_sixteen_pairs(z2):
    circ = CircleCarrier()
    pairs = [(F(k, 32), "g") for k in range(1, 17)]
    assert any(len(n) == 17 for n in rewrite_neighbors(circ, PamCarrier(z2), pairs))


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

"""Labeled configurations: normal form, equality, decomposition, admissibility."""

from fractions import Fraction as F

import pytest

from pamscan import (
    CLOSED,
    DomainError,
    Interval,
    OPEN,
    SymmetricConfig,
    config_eq,
    decompose_window,
    double,
    in_T_labeled,
    is_admissible,
    is_mirror_invariant,
    labeled_normalize,
    labeled_rewrite_neighbors,
    mirror_config,
    positive_part,
    restrict,
    split_sides,
    translate_config,
    window_sweep_points,
)
from pamscan.tensor import EqVerdict


def I(u, v, p, q):
    return Interval(F(u), F(v), p, q)


HO = (OPEN, CLOSED)  # half-open (u,v]


def test_in_T_labeled(m3):
    xi = ((I(0, 1, *HO), "a"), (I(0, 1, *HO), "b"))
    assert in_T_labeled(xi, m3)
    xi2 = ((I(0, 1, *HO), "a"), (I(0, 1, *HO), "a"))
    assert not in_T_labeled(xi2, m3)
    ok, wit = in_T_labeled(xi2, m3, witness=True)
    assert not ok
    assert wit == ("first", [0, 1])
    # overlapping but not identical intervals are insummable in I
    xi3 = ((I(0, 2, *HO), "a"), (I(1, 3, *HO), "a"))
    assert not in_T_labeled(xi3, m3)
    assert in_T_labeled((), m3)


def test_labeled_normalize_paste(m3):
    xi = ((I(0, 1, *HO), "a"), (I(1, 2, OPEN, OPEN), "a"))
    assert labeled_normalize(xi, m3) == ((I(0, 2, OPEN, OPEN), "a"),)
    # different labels never paste
    xi2 = ((I(0, 1, *HO), "a"), (I(1, 2, OPEN, OPEN), "b"))
    assert labeled_normalize(xi2, m3) == tuple(sorted(xi2, key=lambda t: t[0].sort_key()))


def test_labeled_normalize_label_merge(m3):
    xi = ((I(0, 1, *HO), "a"), (I(0, 1, *HO), "b"))
    assert labeled_normalize(xi, m3) == ((I(0, 1, *HO), "c"),)


def test_labeled_normalize_annihilation(z2):
    # merged labels summing to zero drop out
    xi = ((I(0, 1, *HO), "g"), (I(0, 1, *HO), "g"))
    assert labeled_normalize(xi, z2) == ()


def test_labeled_normalize_drops_trivia(m3):
    xi = ((I(1, 1, CLOSED, OPEN), "a"), (I(0, 1, *HO), "0"))
    assert labeled_normalize(xi, m3) == ()


def test_labeled_normalize_idempotent(m3):
    xi = ((I(0, 1, *HO), "a"), (I(1, 2, *HO), "a"), (I(3, 4, *HO), "b"))
    once = labeled_normalize(xi, m3)
    assert labeled_normalize(once, m3) == once


def test_config_eq(m3):
    one = ((I(0, 2, *HO), "c"),)
    split = ((I(0, 1, OPEN, OPEN), "c"), (I(1, 2, CLOSED, CLOSED), "c"))
    assert config_eq(one, split, m3) == EqVerdict.EQUAL
    assert config_eq(one, ((I(0, 2, *HO), "a"),), m3) == EqVerdict.DISTINCT
    # the bounded search cannot certify inequality
    other = ((I(0, 1, OPEN, OPEN), "a"), (I(1, 2, CLOSED, CLOSED), "b"))
    assert config_eq(one, other, m3, method="search", depth=3) == EqVerdict.UNKNOWN


def test_rewrite_neighbors_preserve_nf(m3):
    xi = ((I(0, 2, *HO), "c"),)
    nf = labeled_normalize(xi, m3)
    nbrs = labeled_rewrite_neighbors(xi, m3, extra_cuts=(F(1, 2),))
    assert nbrs
    for nb in nbrs:
        assert labeled_normalize(nb, m3) == nf


def test_restrict(m3):
    xi = ((I(0, 2, *HO), "a"),)
    assert restrict(xi, F(1), F(3)) == ((I(1, 2, OPEN, CLOSED), "a"),)
    assert restrict(((I(2, 3, OPEN, OPEN), "a"),), F(0), F(1)) == ()


def test_mirror_config_involution(m3):
    # closed-closed mirrors to open-open: both parities flip
    xi = ((I(0, 1, *HO), "a"), (I(2, 3, CLOSED, CLOSED), "b"))
    assert mirror_config(xi) == ((I(-3, -2, OPEN, OPEN), "b"), (I(-1, 0, *HO), "a"))
    assert mirror_config(mirror_config(xi)) == xi


def test_mirror_commutes_with_normalize(m3):
    xi = ((I(0, 1, *HO), "a"), (I(1, 2, OPEN, OPEN), "a"), (I(1, 3, CLOSED, OPEN), "b"))
    lhs = labeled_normalize(mirror_config(xi), m3)
    rhs = tuple(sorted(mirror_config(labeled_normalize(xi, m3)), key=lambda t: t[0].sort_key()))
    assert lhs == rhs


def test_translate_config(m3):
    xi = ((I(0, 1, *HO), "a"),)
    assert translate_config(xi, F(2)) == ((I(2, 3, *HO), "a"),)


def test_double_and_positive_part(m3):
    # a piece open at 0 pastes across the origin; the cut comes back closed
    dd = double(((I(0, 1, *HO), "a"),))
    assert labeled_normalize(dd, m3) == ((I(-1, 1, *HO), "a"),)
    assert positive_part(dd, m3) == ((I(0, 1, CLOSED, CLOSED), "a"),)
    # bounded away from 0 the round trip is the identity
    xi = ((I(1, 2, OPEN, OPEN), "a"),)
    assert positive_part(double(xi), m3) == xi
    assert positive_part((), m3) == ()


def test_split_sides(m3):
    nf = labeled_normalize(((I(-1, 1, *HO), "a"), (I(2, 3, *HO), "b")), m3)
    s_minus, s_zero, s_plus = split_sides(nf)
    assert s_minus == ()
    assert s_zero == ((I(-1, 1, *HO), "a"),)
    assert s_plus == ((I(2, 3, *HO), "b"),)
    with pytest.raises(DomainError, match="mirror-shaped"):
        split_sides(((I(-1, 2, *HO), "a"),))


def test_is_mirror_invariant(m3):
    eta = ((I(-1, 0, *HO), "a"), (I(0, 1, *HO), "a"))
    assert is_mirror_invariant(eta, m3)
    assert not is_mirror_invariant(((I(0, 1, *HO), "a"),), m3)


def test_decompose_whole_window(m3):
    xi = ((I(1, 3, *HO), "a"),)
    d = decompose_window(restrict(xi, F(3, 2), F(5, 2)), F(3, 2), F(5, 2), m3)
    assert d.count == 1
    (item,) = d.items
    assert item.kind == "whole"
    assert item.label == "a"


def test_decompose_anchored(m3):
    xi = ((I(1, 3, *HO), "a"),)
    d = decompose_window(restrict(xi, F(0), F(2)), F(0), F(2), m3)
    (item,) = d.items
    assert item.kind == "right"
    assert item.piece == I(1, 2, OPEN, OPEN)


def test_decompose_interior(m3):
    xi = ((I(1, 2, *HO), "a"),)
    d = decompose_window(xi, F(0), F(3), m3)
    (item,) = d.items
    assert item.kind == "interior"
    assert d.count == 1


def test_decompose_cut_pair_count(m3, z2):
    # matched strand pair: over M3 the unmatched reading needs a+a, dead end;
    # over Z2 g+g=0 is defined so both readings survive
    for pam, lab, expect in ((m3, "a", 1), (z2, "g", 2)):
        xi = ((I(-3, "-1/2", *HO), lab), (I("1/2", 3, *HO), lab))
        w = restrict(xi, F(-2), F(2))
        d = decompose_window(w, F(-2), F(2), pam)
        assert d.count == expect, pam.name
        assert any(type(it).__name__ == "Elem2" for it in d.items)


def test_decompose_rejects_non_elementary(m3):
    from pamscan import DecomposeError

    xi = ((I(1, 2, CLOSED, CLOSED), "a"),)
    with pytest.raises(DecomposeError, match="not elementary"):
        decompose_window(xi, F(1, 2), F(5, 2), m3)
    # whole strand beside the partner's clipped end: no summable matching
    pair = ((I(-1, "-1/8", *HO), "a"), (I("1/8", 1, *HO), "a"))
    with pytest.raises(DecomposeError, match="no matching"):
        decompose_window(
            restrict(pair, F(-9, 16), F(23, 16)), F(-9, 16), F(23, 16), m3
        )
    # [1,2]:a is not elementary, but its collision with [3/2,3):a is named first
    collide = ((I(1, 2, CLOSED, CLOSED), "a"), (I("3/2", 3, CLOSED, OPEN), "a"))
    with pytest.raises(DecomposeError) as err:
        decompose_window(collide, 0, 4, m3)
    assert str(err.value).endswith("collide but their labels ['a', 'a'] are not jointly summable")


def test_window_sweep_points():
    xi = ((I(1, 3, *HO), "a"),)
    pts = window_sweep_points(xi, F(1))
    assert pts[0] == F(-1)
    assert pts[-1] == F(5)
    assert F(2) in pts


def test_is_admissible(m3):
    ok = is_admissible(((I(1, 3, *HO), "a"),), F(1), (F(0), F(4)), m3)
    assert ok.ok
    bad = is_admissible(((I(1, 2, CLOSED, CLOSED), "a"),), F(1), (F(0), F(3)), m3)
    assert not bad.ok
    assert "not elementary" in bad.reason
    # a length-2 closed-closed piece shows both real ends in no window
    ok2 = is_admissible(((I(1, 3, CLOSED, CLOSED), "a"),), F(1), (F(0), F(4)), m3)
    assert ok2.ok
    # a tight cut pair keeps its strands out of whole view, so it passes
    xi = ((I(-3, "-1/2", *HO), "a"), (I("1/2", 3, *HO), "a"))
    assert is_admissible(xi, F(1), (F(-4), F(4)), m3).ok
    # short strands near a small cut: one window sees a whole strand
    # beside the partner's clip and no label matching sums
    short = ((I(-1, "-1/8", *HO), "a"), (I("1/8", 1, *HO), "a"))
    bad2 = is_admissible(short, F(1), (F(-2), F(2)), m3)
    assert not bad2.ok
    # an end on the inner window (a + eps/2, b - eps/2): open there it
    # stays inside, closed there, or a point there, it leaks, with the
    # verdict and reason of restrict to the inner window
    for eps, lo, hi in ((F(1), F(1, 2), F(7, 2)), (F(2, 3), F(1, 3), F(11, 3))):
        for xi, leaks in (
            (((I(lo, lo + 1, OPEN, CLOSED), "a"),), False),
            (((I(lo, lo + 1, CLOSED, OPEN), "a"),), True),
            (((I(lo, lo, CLOSED, OPEN), "a"),), True),
            (((I(hi - 1, hi, CLOSED, OPEN), "b"),), False),
            (((I(hi - 1, hi, OPEN, CLOSED), "b"),), True),
            (((I(hi, hi, OPEN, CLOSED), "b"),), True),
            (((I(lo, lo + 1, OPEN, CLOSED), "a"), (I(2, 2, CLOSED, OPEN), "c"), (I(hi - 1, hi, CLOSED, OPEN), "b")), False),
        ):
            assert (restrict(xi, lo, hi) != xi) == leaks
            reason = "support leaks outside (%s, %s)" % (lo, hi) if leaks else None
            report = is_admissible(xi, eps, (0, 4), m3)
            assert (report.ok, report.reason) == (not leaks, reason), xi


def test_admissible_empty(m3):
    assert is_admissible((), F(1), (F(-1), F(1)), m3).ok


def test_symmetric_config_validate(m3):
    eta = ((I(-1, 1, *HO), "a"),)
    SymmetricConfig(eta, F(2)).validate(m3)
    with pytest.raises(DomainError):
        SymmetricConfig(((I(0, 1, *HO), "a"),), F(2)).validate(m3)


def test_thickened_config_validate(m3):
    assert is_admissible(((I(1, 2, *HO), "a"),), F(1), (F(0), F(3)), m3)
    # content beyond the support window is rejected
    report = is_admissible(((I(1, 4, *HO), "a"),), F(1), (F(0), F(3)), m3)
    assert not report and report.reason == "support leaks outside (1/2, 5/2)"

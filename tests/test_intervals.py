"""Parity-typed intervals: ordering, normal form, mirror and clipping."""

from fractions import Fraction as F

import pytest

from pamscan import (
    CLOSED,
    IncompatibleConfig,
    Interval,
    OPEN,
    clip_interval,
    interval_leq,
    is_chain,
    merge_summable,
    normalize_config,
)


def I(u, v, p, q):
    return Interval(F(u), F(v), p, q)


def test_construction():
    j = I(0, 1, CLOSED, OPEN)
    assert j.length == 1
    assert not j.is_degenerate
    d = I(1, 1, CLOSED, OPEN)
    assert d.is_degenerate
    assert d.length == 0
    with pytest.raises(ValueError, match="opposite parities"):
        I(1, 1, CLOSED, CLOSED)
    with pytest.raises(ValueError):
        I(2, 1, CLOSED, OPEN)


def test_mirror_flips_parities():
    # the mirror swaps and negates endpoints and flips both parities
    assert I(0, 1, OPEN, CLOSED).mirror() == I(-1, 0, OPEN, CLOSED)
    assert I(0, 1, CLOSED, OPEN).mirror() == I(-1, 0, CLOSED, OPEN)
    assert I(-3, -2, OPEN, CLOSED).mirror() == I(2, 3, OPEN, CLOSED)
    for j in (I(0, 1, CLOSED, CLOSED), I("1/2", "5/2", OPEN, CLOSED)):
        assert j.mirror().mirror() == j


def test_translate():
    assert I(0, 1, CLOSED, OPEN).translate(F(2)) == I(2, 3, CLOSED, OPEN)


def test_map_endpoints_collapse():
    clamp = lambda x: max(x, F(1))
    # equal parities collapse to nothing, opposite ones to a degenerate
    assert I(0, 1, CLOSED, CLOSED).map_endpoints(clamp) is None
    assert I(0, 1, CLOSED, OPEN).map_endpoints(clamp) == I(1, 1, CLOSED, OPEN)
    assert I(0, 2, CLOSED, OPEN).map_endpoints(clamp) == I(1, 2, CLOSED, OPEN)


def test_interval_leq():
    a = I(0, 1, CLOSED, CLOSED)
    assert interval_leq(a, I(2, 3, CLOSED, CLOSED))
    assert interval_leq(a, I(1, 2, OPEN, CLOSED))
    assert not interval_leq(a, I(1, 2, CLOSED, CLOSED))
    assert not interval_leq(I(1, 2, OPEN, CLOSED), a)
    # a shared endpoint needs opposite parities across the touch
    d = I(1, 1, OPEN, CLOSED)
    assert interval_leq(I(0, 1, CLOSED, CLOSED), d)
    assert not interval_leq(I(0, 1, CLOSED, OPEN), d)
    assert interval_leq(d, I(1, 2, OPEN, CLOSED))


def test_is_chain():
    assert is_chain([I(0, 1, CLOSED, OPEN), I(1, 2, CLOSED, OPEN)])
    assert not is_chain([I(0, 2, CLOSED, OPEN), I(1, 3, CLOSED, OPEN)])
    assert is_chain([])


def test_normalize_paste():
    out = normalize_config([I(0, 1, CLOSED, OPEN), I(1, 2, CLOSED, CLOSED)])
    assert out == (I(0, 2, CLOSED, CLOSED),)
    # pasting is order-insensitive
    out2 = normalize_config([I(1, 2, CLOSED, CLOSED), I(0, 1, CLOSED, OPEN)])
    assert out2 == out


def test_normalize_drops_degenerates():
    assert normalize_config([I(1, 1, CLOSED, OPEN)]) == ()
    out = normalize_config([I(0, 1, CLOSED, OPEN), I(2, 2, OPEN, CLOSED)])
    assert out == (I(0, 1, CLOSED, OPEN),)


def test_normalize_chain_paste():
    pieces = [
        I(0, 1, CLOSED, OPEN),
        I(1, 2, CLOSED, OPEN),
        I(2, 3, CLOSED, OPEN),
    ]
    assert normalize_config(pieces) == (I(0, 3, CLOSED, OPEN),)


def test_normalize_incompatible():
    with pytest.raises(IncompatibleConfig):
        normalize_config([I(0, 1, CLOSED, CLOSED), I(1, 2, CLOSED, CLOSED)])
    with pytest.raises(IncompatibleConfig):
        normalize_config([I(0, 2, CLOSED, OPEN), I(1, 3, CLOSED, OPEN)])


def test_normalize_idempotent():
    pieces = [I(0, 1, CLOSED, OPEN), I(1, 2, CLOSED, OPEN), I(3, 4, OPEN, OPEN)]
    once = normalize_config(pieces)
    assert normalize_config(once) == once


def test_merge_summable():
    a = (I(0, 1, CLOSED, OPEN),)
    b = (I(1, 2, CLOSED, OPEN),)
    assert merge_summable(a, b) == (I(0, 2, CLOSED, OPEN),)
    assert merge_summable(a, a) is None


def test_clip_semantics():
    # cut ends come back open; the interior is untouched
    assert clip_interval(I(0, 3, OPEN, CLOSED), F(1), F(2)) == I(1, 2, OPEN, OPEN)
    assert clip_interval(I(0, 3, OPEN, CLOSED), F(-1), F(2)) == I(0, 2, OPEN, OPEN)
    assert clip_interval(I(0, 3, OPEN, CLOSED), F(-1), F(4)) == I(0, 3, OPEN, CLOSED)
    # width-zero overlap at the boundary disappears
    assert clip_interval(I(0, 1, CLOSED, OPEN), F(1), F(2)) is None
    assert clip_interval(I(0, 1, OPEN, CLOSED), F(1), F(2)) is None
    assert clip_interval(I(3, 4, CLOSED, OPEN), F(1), F(2)) is None
    # and so does anything clipped to an empty window a == b
    assert clip_interval(I(0, 3, OPEN, CLOSED), F(1), F(1)) is None
    # degenerates survive only strictly inside the window
    assert clip_interval(I("3/2", "3/2", CLOSED, OPEN), F(1), F(2)) == I(
        "3/2", "3/2", CLOSED, OPEN
    )
    assert clip_interval(I(1, 1, CLOSED, OPEN), F(1), F(2)) is None


def test_sort_key_orders_configs():
    pieces = [I(1, 2, CLOSED, OPEN), I(0, 1, CLOSED, OPEN)]
    assert sorted(pieces, key=lambda j: j.sort_key())[0] == pieces[1]

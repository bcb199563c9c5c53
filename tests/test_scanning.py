"""Scanning map: pointwise values, Moore loop traces, loop invariants."""

from fractions import Fraction as F

import pytest

from pamscan import (
    BMElement,
    CLOSED,
    DomainError,
    Interval,
    MooreLoop,
    OPEN,
    alpha_eval,
    alpha_trace,
    loop_eval,
    omega,
    path_eval_at_zero,
)
from pamscan.scanning import merged_strand_value


def I(u, v, p, q):
    return Interval(F(u), F(v), p, q)


HO = (OPEN, CLOSED)


def test_omega_pinned_values():
    assert omega(I(0, 3, *HO), F(0)) == F(1, 2)
    assert omega(I(0, "1/2", CLOSED, OPEN), F(1, 4)) == F(-1, 2)
    # deep inside a long piece the value parks at 0
    assert omega(I(0, 3, *HO), F(3, 2)) == F(0)


def test_omega_needs_room_for_equal_parities():
    with pytest.raises(DomainError, match="length > 1"):
        omega(I(0, 1, OPEN, OPEN), F(1, 2))
    # length above 1 is fine
    omega(I(0, 2, OPEN, OPEN), F(1))


def test_alpha_eval_pinned(m3):
    xi = ((I(1, 3, *HO), "a"),)
    assert alpha_eval(xi, F(1), m3) == BMElement(None, ((F(1, 2), "a"),))
    assert alpha_eval(xi, F(2), m3) == BMElement("a", ())
    assert alpha_eval(xi, F(0), m3) == BMElement(None, ())


def test_alpha_eval_window_locality(m3):
    # content beyond distance 1 from the scan point is invisible
    xi = ((I(1, 3, *HO), "a"),)
    far = xi + ((I(10, 13, *HO), "b"), (I(-9, -7, OPEN, OPEN), "c"))
    for u in (F(0), F(1), F(3, 2), F(2)):
        assert alpha_eval(xi, u, m3) == alpha_eval(far, u, m3)


def test_alpha_eval_t_independence(m3):
    xi = ((I(1, 3, *HO), "a"), (I(5, 7, CLOSED, CLOSED), "b"))
    for u in (F(0), F(3, 2), F(11, 2), F(13, 2)):
        vals = {repr(alpha_eval(xi, u, m3, t=t)) for t in (None, u + F(1, 3), u - F(2, 7))}
        assert len(vals) == 1


def test_alpha_eval_label_merge(m3):
    xi = ((I(1, 3, *HO), "a"), (I(1, 3, OPEN, OPEN), "b"))
    z = alpha_eval(xi, F(1), m3)
    assert z == BMElement(None, ((F(1, 2), "c"),))


def test_merged_strand_far_pair_is_basepoint(m3):
    # a cut pair at distance >= 1/2 contributes nothing at the origin
    ka = I(-3, "-5/8", *HO)
    kb = I("5/8", 3, *HO)
    assert merged_strand_value(ka, kb, F(0)) == omega(ka, F(0))
    z = path_eval_at_zero(((ka, "b"), (kb, "b")), m3)
    assert z == BMElement(None, ())


def test_merged_strand_near_pair_plateau(m3):
    ka = I(-3, "-1/4", *HO)
    kb = I("1/4", 3, *HO)
    assert merged_strand_value(ka, kb, F(0)) == F(1, 2)
    z = path_eval_at_zero(((ka, "b"), (kb, "b")), m3)
    assert z == BMElement(None, ((F(1, 2), "b"),))


def test_path_eval_at_zero_pinned(m3):
    eta = ((I(-1, 1, *HO), "a"),)
    assert path_eval_at_zero(eta, m3) == BMElement("a", ())


def test_alpha_trace_frozen_loop(m3):
    xi = ((I(1, 3, *HO), "a"),)
    loop = alpha_trace(xi, F(4), m3)
    assert loop.s == F(4)
    assert loop.breakpoints == (F(0), F(1, 2), F(3, 2), F(2), F(5, 2), F(7, 2), F(4))
    assert loop.segments[0] == ()
    assert loop.segments[1] == ((-1, F(3, 2), "a"),)
    assert loop.segments[2] == ((0, F(0), "a"),)
    assert loop.segments[4] == ((1, F(-5, 2), "a"),)
    assert loop.segments[5] == ()


def test_loop_eval_matches_alpha(m3):
    xi = ((I(1, 3, *HO), "a"), (I(5, 7, CLOSED, CLOSED), "b"))
    loop = alpha_trace(xi, F(8), m3)
    for u in (F(0), F(1), F(3, 2), F(2), F(11, 2), F(8)):
        assert loop_eval(loop, u, m3) == alpha_eval(xi, u, m3)


def test_trace_empty_at_ends(m3):
    xi = ((I(1, 3, *HO), "a"),)
    loop = alpha_trace(xi, F(4), m3)
    assert loop.segments[0] == () and loop.segments[-1] == ()
    assert loop_eval(loop, F(0), m3).is_empty
    assert loop_eval(loop, F(4), m3).is_empty


def test_trace_breakpoint_continuity(m3):
    # tracks on both sides of an interior breakpoint agree there
    xi = ((I(1, 3, *HO), "a"), (I(4, 6, OPEN, OPEN), "b"))
    loop = alpha_trace(xi, F(7), m3)
    for i, q in enumerate(loop.breakpoints[1:-1], start=1):
        left = {(c1 * q + c0, m) for c1, c0, m in loop.segments[i - 1]}
        right = {(c1 * q + c0, m) for c1, c0, m in loop.segments[i]}
        left = {(x, m) for x, m in left if F(-1) < x < F(1)}
        right = {(x, m) for x, m in right if F(-1) < x < F(1)}
        assert left == right, q


def test_trace_needs_support(m3):
    from pamscan import TraceError

    # the failing end is named as a breakpoint: the loop length, or 0
    xi = ((I(1, 5, *HO), "a"),)
    with pytest.raises(TraceError) as info:
        alpha_trace(xi, F(3), m3)
    assert info.value.breakpoint == F(3) and str(info.value) == "loop value at 3 is not the empty element"
    xi = ((I("1/4", 3, CLOSED, OPEN), "a"),)
    with pytest.raises(TraceError) as info:
        alpha_trace(xi, F(6), m3)
    assert info.value.breakpoint == F(0) and str(info.value) == "loop value at 0 is not the empty element"


def test_moore_loop_rejects_unsorted_breakpoints():
    # loop_eval would bisect the unsorted tuple
    with pytest.raises(ValueError, match="strictly increasing"):
        MooreLoop(F(4), (F(0), F(3), F(1), F(4)), ((), (), ()))
    with pytest.raises(ValueError, match="strictly increasing"):
        MooreLoop(F(4), (F(0), F(2), F(2), F(4)), ((), (), ()))


def test_moore_loop_rejects_breakpoints_off_the_span():
    # loop_eval(loop, 0) would read the segment [1, 2]
    with pytest.raises(ValueError, match="from 0 to 4"):
        MooreLoop(F(4), (F(1), F(2)), (((0, F(0), "a"),),))
    with pytest.raises(ValueError, match="from 0 to 4"):
        MooreLoop(F(4), (F(0), F(2)), ((),))
    with pytest.raises(ValueError, match="positive"):
        MooreLoop(F(0), (F(0), F(0)), ((),))

"""Indexed window reads and split-only refinement against their slow oracles.

The oracle scan reads every window by clipping every piece and recomputes
every segment in each refinement round; the library must agree with it byte
for byte.  The index bisects integer endpoints over a common scale, and the
Fraction bisection it replaced must find the same slices.  The work guards
count clipped pieces and derived segments, so a quadratic scan cannot
return without a failing test.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import accumulate

import pytest

import pamscan.labeled as labeled
import pamscan.scanning as scanning
from pamscan import (
    CLOSED,
    OPEN,
    DomainError,
    Interval,
    TraceError,
    WindowIndex,
    alpha_trace,
    is_admissible,
    lc_sorted,
    restrict,
)
from pamscan.dsl import fmt_loop, parse_config

from genutil import odd_primes, rand_admissible, rand_frac


class FullScan:
    """The slow window read: clip every piece of the configuration."""

    def __init__(self, xi):
        self.pieces = lc_sorted(xi)

    def restrict(self, a, b):
        return restrict(self.pieces, a, b)


def oracle_trace(xi, s, pam):
    """alpha_trace with full window scans and full-recompute refinement."""
    s = F(s)
    if s <= 0:
        raise DomainError("loop length must be positive")
    xi = lc_sorted(xi)
    windows = FullScan(xi)
    cand = {F(0), s}
    for e in sorted({x for j, _ in xi for x in (j.u, j.v)}):
        for d in (-1, F(-1, 2), F(1, 2), 1):
            if 0 < e + d < s:
                cand.add(e + d)
    breakpoints = sorted(cand)
    for _ in range(4):
        spans = list(zip(breakpoints, breakpoints[1:]))
        segments = [scanning._segment_tracks(windows, pam, lo, hi) for lo, hi in spans]
        crossings = set()
        for (lo, hi), tracks in zip(spans, segments):
            for i in range(len(tracks)):
                for k in range(i + 1, len(tracks)):
                    c1a, c0a, _ = tracks[i]
                    c1b, c0b, _ = tracks[k]
                    if c1a != c1b:
                        u_star = F(c0b - c0a, c1a - c1b)
                        if lo < u_star < hi:
                            crossings.add(u_star)
        if not crossings:
            break
        breakpoints = sorted(set(breakpoints) | crossings)
    else:
        raise TraceError("track crossings kept appearing after refinement")
    loop = scanning.MooreLoop(s, tuple(breakpoints), tuple(segments))
    scanning._check_loop_invariants(loop, pam)
    return loop


def _trace_text(trace, xi, s, pam):
    try:
        return fmt_loop(trace(xi, s, pam))
    except (TraceError, DomainError) as e:
        return "%s: %s" % (type(e).__name__, e)


def _report_text(xi, s, pam):
    report = is_admissible(xi, 1, (0, s), pam)
    return repr((report.ok, report.reason))


def _assert_matches_oracle(xi, s, pam, monkeypatch):
    fast = (_trace_text(alpha_trace, xi, s, pam), _report_text(xi, s, pam))
    with monkeypatch.context() as mp:
        mp.setattr(labeled, "WindowIndex", FullScan)
        slow = (_trace_text(oracle_trace, xi, s, pam), _report_text(xi, s, pam))
    assert fast == slow, (xi, s)


FIXTURES = (
    ("(1,3]:a", 4),
    ("(1,3]:a", 3),
    ("(1,5]:a", 3),
    ("(1,3]:a [5,7]:b", 8),
    ("(1,3]:a (4,6):b", 7),
    ("(1,3]:a (1,3):b", 4),
    ("[0,1):a (3/2,3]:c", 4),
    ("(-7/2,-1/4]:b (-1/4,1/4]:a (1/4,7/2]:b", 4),
    ("[1,5/2):a [3,9/2):b", 6),
)


@pytest.mark.parametrize("text,s", FIXTURES)
def test_fixtures_match_oracle(m3, monkeypatch, text, s):
    _assert_matches_oracle(parse_config(text, m3), F(s), m3, monkeypatch)


def test_random_draws_match_oracle(m3, monkeypatch):
    rng = random.Random(2024)
    for _ in range(60):
        xi, s = rand_admissible(rng, 6)
        _assert_matches_oracle(xi, s, m3, monkeypatch)


def _rand_piece(rng):
    u = rand_frac(rng, 0, 6)
    if rng.random() < 0.15:
        p = rng.choice((OPEN, CLOSED))
        return Interval(u, u, p, -p)
    v = u + rand_frac(rng, F(1, 8), 6 if rng.random() < 0.2 else 1)
    return Interval(u, v, rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))


def test_window_index_matches_restrict():
    rng = random.Random(7)
    for _ in range(200):
        xi = [(_rand_piece(rng), rng.choice("abc")) for _ in range(rng.randint(0, 8))]
        # coincident pieces, with the same and with another label
        for j, _ in list(xi[: rng.randint(0, 2)]):
            xi.append((j, rng.choice("abc")))
        windows = WindowIndex(xi)
        ends = [x for j, _ in xi for x in (j.u, j.v)] or [F(0)]
        for _ in range(12):
            a = rng.choice(ends) if rng.random() < 0.5 else rand_frac(rng, -1, 7)
            b = rng.choice(ends) if rng.random() < 0.5 else a + rand_frac(rng, 0, 2)
            assert windows.restrict(a, b) == restrict(xi, a, b), (xi, a, b)


def oracle_bounds(pieces, a, b):
    """The window slice bisected on Fraction endpoints."""
    lefts = [j.u for j, _ in pieces]
    reach = list(accumulate((j.v for j, _ in pieces), max))
    return bisect_right(reach, a), bisect_left(lefts, b)


MIXED = (2, 3, 5, 7, 8, 12)


def _mixed(rng, lo, hi):
    d = rng.choice(MIXED)
    return F(rng.randint(lo * d, hi * d), d)


def _mixed_piece(rng):
    u = _mixed(rng, 0, 6)
    if rng.random() < 0.15:
        p = rng.choice((OPEN, CLOSED))
        return Interval(u, u, p, -p)
    v = u + F(rng.randint(1, 12), rng.choice(MIXED)) * (4 if rng.random() < 0.2 else 1)
    return Interval(u, v, rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))


def _window_end(rng, ends, scale):
    """On an endpoint, just off one, between two, or anywhere."""
    x = rng.choice(ends)
    kind = rng.randrange(4)
    if kind == 0:
        return x
    if kind == 1:
        # off the integer grid of the index, or off by a coarse amount
        off = F(1, rng.choice((2, 3, 7)) * scale) if rng.random() < 0.5 else F(1, 997)
        return x + off if rng.random() < 0.5 else x - off
    if kind == 2:
        return (x + rng.choice(ends)) / 2
    return _mixed(rng, -1, 7)


def test_integer_bisection_matches_fraction_bisection():
    rng = random.Random(8)
    draws = 0
    while draws < 20000:
        xi = [(_mixed_piece(rng), rng.choice("abc")) for _ in range(rng.randint(0, 10))]
        windows = WindowIndex(xi)
        ends = [x for j, _ in xi for x in (j.u, j.v)] or [F(0)]
        for _ in range(20):
            a = _window_end(rng, ends, windows._scale)
            b = _window_end(rng, ends, windows._scale)
            if rng.random() < 0.7:
                a, b = min(a, b), max(a, b)
            assert windows._bounds(a, b) == oracle_bounds(windows.pieces, a, b), (xi, a, b)
            draws += 1


def _pair_chain(k):
    """k translated copies of (1,3]:a [7/2,11/2):b with period 7."""
    xi = []
    for i in range(k):
        xi.append((Interval(1 + 7 * i, 3 + 7 * i, OPEN, CLOSED), "a"))
        xi.append((Interval(F(7, 2) + 7 * i, F(11, 2) + 7 * i, CLOSED, OPEN), "b"))
    return xi, F(7 * k)


def test_clipped_pieces_grow_linearly(m3, monkeypatch):
    calls = []
    clip = labeled.clip_interval

    def counting(*args):
        calls.append(None)
        return clip(*args)

    monkeypatch.setattr(labeled, "clip_interval", counting)
    counts = {}
    for k in (16, 32):
        xi, s = _pair_chain(k)
        del calls[:]
        alpha_trace(xi, s, m3)
        assert is_admissible(xi, 1, (0, s), m3)
        counts[k] = len(calls)
    assert counts[32] <= 2.5 * counts[16], counts


def test_refinement_derives_only_split_segments(m3, monkeypatch):
    calls = []
    derive = scanning._segment_tracks

    def counting(*args):
        calls.append(args[2:])
        return derive(*args)

    monkeypatch.setattr(scanning, "_segment_tracks", counting)
    xi, s = _pair_chain(8)
    # one pair whose facing tracks cross inside a segment
    xi += parse_config("[57,117/2):a [59,61):b", m3)
    loop = alpha_trace(xi, s + 7, m3)
    assert len(set(calls)) == len(calls)
    # the single split segment is derived once before and once per part
    assert len(calls) == len(loop.segments) + 1


def test_large_lcm_chain_matches_oracle(m3, monkeypatch):
    # every endpoint of the 16-cluster pair chain moves by 1/p for its own
    # prime p, so the index's scale is the product of 64 primes
    xi, s = _pair_chain(16)
    shifts = iter(F(1, p) for p in odd_primes(70)[6:])
    xi = [
        (Interval(j.u + next(shifts), j.v + next(shifts), j.p, j.q), m) for j, m in xi
    ]
    assert WindowIndex(xi)._scale.bit_length() > 400
    assert is_admissible(xi, 1, (0, s), m3)
    _assert_matches_oracle(xi, s, m3, monkeypatch)

"""Integer window reads, indexed scans and split-only refinement against their slow oracles.

The oracle scan reads every window by clipping every piece on Fractions,
decomposes it by listing matchings, and evaluates each unit with the
Fraction ``omega``; it recomputes every segment in each refinement round.
The library clips, decomposes and evaluates on integer keys over one scale
per read, and must agree with the oracle byte for byte, error texts
included.  The index bisects integer endpoints, and the Fraction bisection
it replaced must find the same slices.  The work guards count clipped
pieces, built Intervals and derived segments, so a quadratic scan or a
scan that falls back to Fractions cannot return without a failing test.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import accumulate
from math import lcm
from unittest import mock

import pytest

import pamscan.intervals as intervals
import pamscan.labeled as labeled
import pamscan.scanning as scanning
from pamscan import (
    BASEPOINT,
    CLOSED,
    OPEN,
    DomainError,
    Elem2,
    Interval,
    TraceError,
    WindowIndex,
    alpha_trace,
    in_T_labeled,
    is_admissible,
    lc_sorted,
    norm_circle,
    omega,
    restrict,
)
from pamscan.dsl import fmt_loop, parse_config
from pamscan.labeled import E1_LEFT, E1_RIGHT
from pamscan.scanning import merged_strand_value

from genutil import cyclic_pam, odd_primes, rand_admissible, rand_frac, truncated_pam
from test_count_matchings import oracle_decompose


class FullScan:
    """The slow window read: clip every piece of the configuration."""

    def __init__(self, xi):
        self.pieces = lc_sorted(xi)

    def restrict(self, a, b):
        return restrict(self.pieces, a, b)


def oracle_omega(j, s):
    """Scan value of a single interval at parameter s, on Fractions."""
    s = F(s)
    u, v, p, q = j.u, j.v, j.p, j.q
    half = F(1, 2)
    if v - u > 1:
        if u - half < s <= u + half:
            val = p * (s - u - half)
        elif u + half < s <= v - half:
            val = F(0)
        elif v - half < s <= v + half:
            val = q * (s - v + half)
        else:
            return BASEPOINT
    else:
        if p == q:
            raise DomainError(
                "interval %r with equal parities must have length > 1" % (j,)
            )
        if u - half < s <= v - half:
            val = p * (s - u - half)
        elif v - half < s <= u + half:
            val = p * (v - u - 1)
        elif u + half < s <= v + half:
            val = q * (s - v + half)
        else:
            return BASEPOINT
    return norm_circle(val)


def oracle_merged_strand_value(ka, kb, s):
    """Scan value of a cut pair on Fractions."""
    s = F(s)
    half = F(1, 2)
    if s <= kb.u - half:
        return oracle_omega(ka, s)
    if s >= ka.v + half:
        return oracle_omega(kb, s)
    return norm_circle(ka.q * (kb.u - ka.v))


@dataclass(frozen=True)
class ScanUnit:
    """One replaced elementary configuration, ready to emit a point."""

    pieces: tuple
    label: str

    def value(self, s):
        if len(self.pieces) == 1:
            return oracle_omega(self.pieces[0], s)
        return oracle_merged_strand_value(*self.pieces, s)


def oracle_replace_elementary(items):
    """Close the outer ends that keep adjacent windows consistent, on Intervals."""
    units = []
    for e in items:
        if isinstance(e, Elem2):
            jl, jr = e.left, e.right
            if jl.q == CLOSED:
                jr = Interval(jr.u, jr.v, jr.p, CLOSED)
            else:
                jl = Interval(jl.u, jl.v, CLOSED, jl.q)
            units.append(ScanUnit((jl, jr), e.label))
            continue
        j = e.piece
        if e.kind == E1_LEFT and j.q == OPEN:
            j = Interval(j.u, j.v, CLOSED, j.q)
        elif e.kind == E1_RIGHT and j.p == OPEN:
            j = Interval(j.u, j.v, j.p, CLOSED)
        units.append(ScanUnit((j,), e.label))
    return units


def oracle_scan_core(windows, pam, u, t):
    """The Fraction scan read: restrict, list the matchings, evaluate each unit."""
    u, t = F(u), F(t)
    content = windows.restrict(t - 1, t + 1)
    decomp = oracle_decompose(content, t - 1, t + 1, pam)
    units = oracle_replace_elementary(decomp.items)
    return [(unit.value(u), unit.label) for unit in units]


def oracle_trace(xi, s, pam):
    """alpha_trace with Fraction window reads and full-recompute refinement."""
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
    with mock.patch.object(scanning, "scan_core", oracle_scan_core):
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


def oracle_sweep_points(xi, eps):
    """Window centres on Fractions: ends +- eps, their midpoints, and one beyond."""
    ends = sorted({x for j, _ in xi for x in (j.u, j.v)})
    if not ends:
        return [F(0)]
    crit = sorted({e + d for e in ends for d in (-eps, eps)})
    ts = set(crit)
    for x, y in zip(crit, crit[1:]):
        ts.add((x + y) / 2)
    ts.add(crit[0] - 1)
    ts.add(crit[-1] + 1)
    return sorted(ts)


def oracle_is_admissible(xi, eps, support, pam):
    """is_admissible as (ok, reason), every window read and decomposed on Fractions."""
    eps, a, b = F(eps), F(support[0]), F(support[1])
    xi = lc_sorted(xi)
    ok, wit = in_T_labeled(xi, pam, witness=True)
    if not ok:
        return False, "not in the tensor region: %r" % (wit,)
    windows = FullScan(xi)
    try:
        for t in oracle_sweep_points(xi, eps):
            oracle_decompose(windows.restrict(t - eps, t + eps), t - eps, t + eps, pam)
    except DomainError as e:
        return False, str(e)
    if restrict(xi, a + eps / 2, b - eps / 2) != xi:
        return False, "support leaks outside (%s, %s)" % (a + eps / 2, b - eps / 2)
    return True, None


def _trace_text(trace, xi, s, pam):
    try:
        return fmt_loop(trace(xi, s, pam))
    except (TraceError, DomainError) as e:
        return "%s: %s" % (type(e).__name__, e)


def _assert_matches_oracle(xi, s, pam):
    report = is_admissible(xi, 1, (0, s), pam)
    fast = (_trace_text(alpha_trace, xi, s, pam), repr((report.ok, report.reason)))
    slow = (_trace_text(oracle_trace, xi, s, pam), repr(oracle_is_admissible(xi, 1, (0, s), pam)))
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
def test_fixtures_match_oracle(m3, text, s):
    _assert_matches_oracle(parse_config(text, m3), F(s), m3)


def test_random_draws_match_oracle(m3):
    rng = random.Random(2024)
    for _ in range(60):
        xi, s = rand_admissible(rng, 6)
        _assert_matches_oracle(xi, s, m3)


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
            a = _window_end(rng, ends, windows.scale)
            b = _window_end(rng, ends, windows.scale)
            if rng.random() < 0.7:
                a, b = min(a, b), max(a, b)
            # the window over a multiple of S, as a scan read gives it
            k = lcm(windows.scale, a.denominator, b.denominator)
            got = windows._bounds(k, a.numerator * (k // a.denominator), b.numerator * (k // b.denominator))
            assert got == oracle_bounds(windows.pieces, a, b), (xi, a, b)
            draws += 1


def _pair_chain(k):
    """k translated copies of (1,3]:a [7/2,11/2):b with period 7."""
    xi = []
    for i in range(k):
        xi.append((Interval(1 + 7 * i, 3 + 7 * i, OPEN, CLOSED), "a"))
        xi.append((Interval(F(7, 2) + 7 * i, F(11, 2) + 7 * i, CLOSED, OPEN), "b"))
    return xi, F(7 * k)


def test_clipped_pieces_grow_linearly(m3, monkeypatch):
    # every window read bisects the index, and the slice it gets is what the
    # read clips; the support check clips each piece once more
    sliced = []
    bounds, clip = WindowIndex._bounds, labeled.clip_interval

    def counting_bounds(self, *args):
        first, stop = bounds(self, *args)
        sliced.append(max(0, stop - first))
        return first, stop

    def counting_clip(*args):
        sliced.append(1)
        return clip(*args)

    monkeypatch.setattr(WindowIndex, "_bounds", counting_bounds)
    monkeypatch.setattr(labeled, "clip_interval", counting_clip)
    counts = {}
    for k in (16, 32):
        xi, s = _pair_chain(k)
        del sliced[:]
        alpha_trace(xi, s, m3)
        assert is_admissible(xi, 1, (0, s), m3)
        counts[k] = sum(sliced)
    assert 0 < counts[32] <= 2.5 * counts[16], counts


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


def test_large_lcm_chain_matches_oracle(m3):
    # every endpoint of the 16-cluster pair chain moves by 1/p for its own
    # prime p, so the index's scale is the product of 64 primes
    xi, s = _pair_chain(16)
    shifts = iter(F(1, p) for p in odd_primes(70)[6:])
    xi = [
        (Interval(j.u + next(shifts), j.v + next(shifts), j.p, j.q), m) for j, m in xi
    ]
    assert WindowIndex(xi).scale.bit_length() > 400
    assert is_admissible(xi, 1, (0, s), m3)
    _assert_matches_oracle(xi, s, m3)


DENS = (2, 3, 4, 5, 6, 8, 12)
# what each error a window read can raise says
READ_ERRORS = ("is not elementary", "collide but", "no matching makes", "coincident interval")


def _q(rng, lo, hi):
    """A rational in [lo, hi] over one of DENS."""
    d = rng.choice(DENS)
    return F(rng.randint(lo * d, hi * d), d)


def _scan_config(rng, labels):
    """Pieces in (-3, 3), meant for windows centred in [-1, 1].

    Free pieces, pieces with complementary parities, touching same-label
    pairs that paste, coincident copies under another or the same label,
    degenerate pieces, and zero labels.
    """
    xi = []
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 5))):
        kind = rng.randrange(6)
        m = rng.choice(labels)
        u = _q(rng, -3, 2)
        if kind == 4:
            p = rng.choice((OPEN, CLOSED))
            xi.append((Interval(u, u, p, -p), m))
            continue
        v = u + _q(rng, 0, 2) + F(1, 12)
        p, q = rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED))
        if kind == 1:
            q = -p
        if kind == 2:
            w = (u + v) / 2
            r = rng.choice((OPEN, CLOSED))
            xi += [(Interval(u, w, p, r), m), (Interval(w, v, -r, q), m)]
            continue
        xi.append((Interval(u, v, p, q), m))
        if kind == 3:
            xi.append((Interval(u, v, p, q), rng.choice(labels)))
    rng.shuffle(xi)
    return xi


def _scan_params(rng, xi):
    """(u, t): the centre, a point in its half-window, or a ramp edge of a piece."""
    t = _q(rng, -1, 1)
    kind = rng.randrange(4)
    if kind == 0 or not xi:
        return t, t
    if kind == 1:
        return t + _q(rng, -1, 1) / 2, t
    j = rng.choice(xi)[0]
    # where a ramp starts or stops, and the clipped window ends
    u = rng.choice((j.u, j.v, t - 1, t + 1)) + rng.choice((F(-1, 2), F(1, 2), 0))
    return u, (t if kind == 2 else u)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except DomainError as e:
        return "%s: %s" % (type(e).__name__, e)


def test_integer_scan_matches_fraction_scan(m3, z2):
    # 5,000 reads per carrier.  Every error a window read can raise comes
    # up; a witness on the label side of in_T cannot: labels that pairwise
    # refuse to sum sit on pieces that pairwise chain, and such pieces chain
    # jointly, so the label side never finds a failing clique
    seen = dict.fromkeys(READ_ERRORS, 0)
    values = 0
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("scan-" + pam.name)
        for _ in range(500):
            xi = _scan_config(rng, pam.elements)
            windows, full = WindowIndex(xi), FullScan(xi)
            for _ in range(10):
                u, t = _scan_params(rng, xi)
                fast = _outcome(scanning.scan_core, windows, pam, u, t)
                assert fast == _outcome(oracle_scan_core, full, pam, u, t), (xi, u, t)
                kind = next((k for k in READ_ERRORS if k in fast), None)
                if kind is None:
                    values += fast != "[]"
                else:
                    seen[kind] += 1
    assert values >= 5000 and min(seen.values()) >= 100, (values, seen)


def _omega_piece(rng, u):
    """A piece from u of length 0 to 3; equal parities come up at every length."""
    v = u + _q(rng, 0, 3)
    p = rng.choice((OPEN, CLOSED))
    return Interval(u, v, p, -p if u == v else rng.choice((OPEN, CLOSED)))


def test_integer_omega_matches_fraction_omega():
    rng = random.Random("omega")
    raised = 0
    for _ in range(3000):
        ka, kb = _omega_piece(rng, _q(rng, -2, 2)), None
        while kb is None or kb.p != -ka.q:
            kb = _omega_piece(rng, ka.v + _q(rng, 0, 2))
        for _ in range(4):
            s = rng.choice((ka.u, ka.v, kb.u, kb.v)) + rng.choice((F(-1, 2), F(1, 2), _q(rng, -1, 1)))
            want = _outcome(oracle_omega, ka, s)
            assert _outcome(omega, ka, s) == want, (ka, s)
            raised += "DomainError" in want
            assert _outcome(merged_strand_value, ka, kb, s) == _outcome(
                oracle_merged_strand_value, ka, kb, s
            ), (ka, kb, s)
    assert raised > 500


def test_scan_reads_build_no_interval_per_window(m3, monkeypatch):
    # a 32-cluster chain through alpha_trace and is_admissible: the only
    # Intervals and clip_interval calls are the support check's, one per
    # piece, and no read goes through the public decompose_window
    rng = random.Random(32)
    xi, s = rand_admissible(rng, 32, clusters=32)
    calls = {"Interval": 0, "clip_interval": 0, "decompose_window": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(intervals.Interval, "__post_init__", counted("Interval", intervals.Interval.__post_init__))
    for name in ("clip_interval", "decompose_window"):
        monkeypatch.setattr(labeled, name, counted(name, getattr(labeled, name)))
    alpha_trace(xi, s, m3)
    assert is_admissible(xi, 1, (0, s), m3)
    assert calls["Interval"] <= len(xi), (calls, len(xi))
    assert calls["clip_interval"] <= len(xi), (calls, len(xi))
    assert calls["decompose_window"] == 0, calls

"""The scanning map: labeled configurations to circle-valued Moore loops.

At each parameter the window of radius one around it is decomposed into
elementary configurations; each elementary piece contributes one circle
point, linearly interpolating between the basepoint and the window center.
Values live in the fundamental domain (-1, 1] with 1 the basepoint.

A window read is exact integer arithmetic: the window is clipped,
decomposed and evaluated on endpoint keys over one common scale (see
``scan_core``), and each value becomes a Fraction only when it is emitted.
The parameter axis (breakpoints, segment thirds, crossings) stays on
Fractions.  ``omega`` and ``merged_strand_value`` key their arguments the
same way and wrap the integer evaluators.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .pam import DomainError
from .intervals import CLOSED, OPEN, _frac, _positive
from .labeled import (
    E1_LEFT,
    E1_RIGHT,
    WindowIndex,
    _decompose_keys,
    _interval,
    _num,
    lc_sorted,
)
from .tensor import BASEPOINT, bm_canon, norm_circle


class TraceError(Exception):
    """A constructed loop violated one of its invariants."""


def omega(j, s):
    """Scan value of a single interval at parameter s.

    Equal parities require length greater than one.  The value ramps from
    the basepoint up at the left end, crosses 0 (or a constant plateau for
    short intervals) and returns to the basepoint past the right end.
    """
    s = _frac(s)
    k = lcm(2, j.u.denominator, j.v.denominator, s.denominator)
    return Fraction(_omega((_num(j.u, k), _num(j.v, k), j.p, j.q), _num(s, k), k), k)


def merged_strand_value(ka, kb, s):
    """Scan value of a cut pair: the two strands glued along a plateau."""
    s = _frac(s)
    k = lcm(2, s.denominator, *(x.denominator for j in (ka, kb) for x in (j.u, j.v)))
    keys = [(_num(j.u, k), _num(j.v, k), j.p, j.q) for j in (ka, kb)]
    return Fraction(_merged_strand(*keys, _num(s, k), k), k)


def _norm(val, k):
    """``norm_circle`` of val/k, as an integer over k: into (-k, k]."""
    if -k < val <= k:
        return val
    val %= 2 * k
    return val - 2 * k if val > k else val


def _omega(key, s, k):
    """``omega`` on integers over an even scale k; the basepoint is k."""
    u, v, p, q = key
    h = k // 2
    if v - u > k:
        if u - h < s <= u + h:
            val = p * (s - u - h)
        elif u + h < s <= v - h:
            return 0
        elif v - h < s <= v + h:
            val = q * (s - v + h)
        else:
            return k
    else:
        if p == q:
            raise DomainError(
                "interval %r with equal parities must have length > 1"
                % (_interval(key, k),)
            )
        if u - h < s <= v - h:
            val = p * (s - u - h)
        elif v - h < s <= u + h:
            val = p * (v - u - k)
        elif u + h < s <= v + h:
            val = q * (s - v + h)
        else:
            return k
    return _norm(val, k)


def _merged_strand(ka, kb, s, k):
    """``merged_strand_value`` on integer keys over an even scale k."""
    h = k // 2
    if s <= kb[0] - h:
        return _omega(ka, s, k)
    if s >= ka[1] + h:
        return _omega(kb, s, k)
    return _norm(ka[3] * (kb[0] - ka[1]), k)


def scan_core(windows, pam, u, t):
    """Raw (value, label) emissions of the window at t, evaluated at u.

    ``windows`` is the WindowIndex of the configuration being scanned.  The
    read runs on integers over K = lcm(2S, u.denominator, t.denominator),
    with S the scale of the index: the window (t - 1, t + 1) is clipped and
    decomposed on endpoint keys, and each unit is evaluated there, so the
    only Fraction built is its value.  Replacing an elementary piece
    closes the outer ends that keep adjacent windows consistent: an
    anchored single piece with an open cut end gets its window end closed,
    and for a cut pair the cut parity picks which strand's outer end
    closes.
    """
    u, t = _frac(u), _frac(t)
    k = lcm(2 * windows.scale, u.denominator, t.denominator)
    s, c = _num(u, k), _num(t, k)
    lo, hi = c - k, c + k
    items, _ = _decompose_keys(windows.clip(k, lo, hi), k, lo, hi, pam)
    out = []
    for e in items:
        if e[0]:
            _, (a0, a1, p, q), (b0, b1, bp, bq), m = e
            if q == CLOSED:
                bq = CLOSED
            else:
                p = CLOSED
            val = _merged_strand((a0, a1, p, q), (b0, b1, bp, bq), s, k)
        else:
            _, (a0, a1, p, q), m, kind = e
            if kind == E1_LEFT and q == OPEN:
                p = CLOSED
            elif kind == E1_RIGHT and p == OPEN:
                q = CLOSED
            val = _omega((a0, a1, p, q), s, k)
        out.append((Fraction(val, k), m))
    return out


def alpha_eval(xi, u, pam, t=None):
    """Scan a configuration at one parameter.

    The window sits at ``t`` (default: at ``u`` itself); ``u`` must lie
    within half a unit of the window center.
    """
    u = _frac(u)
    t = u if t is None else _frac(t)
    if abs(u - t) >= Fraction(1, 2):
        raise DomainError("parameter %s outside the half-window around %s" % (u, t))
    return bm_canon(pam, scan_core(WindowIndex(xi), pam, u, t))


def path_eval_at_zero(eta, pam):
    """Scan value at 0 with the window pinned at 0."""
    return alpha_eval(eta, 0, pam, t=0)


@dataclass(frozen=True)
class MooreLoop:
    """Exact piecewise-affine loop: tracks c1*u + c0 per segment."""

    s: Fraction
    breakpoints: tuple
    segments: tuple

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("loop length must be positive")
        if len(self.segments) != len(self.breakpoints) - 1:
            raise ValueError("segment count must be breakpoint count - 1")
        if self.breakpoints[0] != 0 or self.breakpoints[-1] != self.s:
            raise ValueError("breakpoints must run from 0 to %s" % self.s)
        if any(x >= y for x, y in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")


def loop_eval(loop, u, pam):
    u = _frac(u)
    if not (0 <= u <= loop.s):
        raise DomainError("parameter %s outside [0, %s]" % (u, loop.s))
    i = bisect_left(loop.breakpoints, u)
    if i >= len(loop.breakpoints) or loop.breakpoints[i] != u:
        seg = i - 1
    else:
        seg = i - 1 if i > 0 else 0
    return bm_canon(pam, _track_values(loop.segments[seg], u))


def _track_values(tracks, u):
    """The (value, label) emission of each affine track at u."""
    return [(norm_circle(c1 * u + c0), m) for c1, c0, m in tracks]


def _segment_tracks(windows, pam, lo, hi):
    """Derive the affine tracks of one combinatorially stable segment."""
    step = (hi - lo) / 3
    u1, u2 = lo + step, hi - step
    pts1 = scan_core(windows, pam, u1, u1)
    pts2 = scan_core(windows, pam, u2, u2)
    if [m for _, m in pts1] != [m for _, m in pts2]:
        raise TraceError(
            "window structure changed inside segment (%s, %s)" % (lo, hi)
        )
    tracks = []
    for (v1, m), (v2, _) in zip(pts1, pts2):
        if v1 == BASEPOINT and v2 == BASEPOINT:
            continue
        if v1 == BASEPOINT or v2 == BASEPOINT:
            raise TraceError(
                "track hits the basepoint inside segment (%s, %s)" % (lo, hi)
            )
        c1 = (v2 - v1) / (u2 - u1)
        if c1 not in (-1, 0, 1):
            raise TraceError(
                "track slope %s outside {-1, 0, 1} in segment (%s, %s)"
                % (c1, lo, hi)
            )
        tracks.append((int(c1), v1 - c1 * u1, m))
    mid = (lo + hi) / 2
    pts3 = scan_core(windows, pam, mid, mid)
    actual = [(v, m) for v, m in pts3 if v != BASEPOINT]
    if _track_values(tracks, mid) != actual:
        raise TraceError(
            "tracks in segment (%s, %s) are not affine" % (lo, hi)
        )
    return tuple(tracks)


def alpha_trace(xi, s, pam):
    """Trace the full loop of a configuration over [0, s].

    Breakpoints start from all endpoint shifts by half-units, are refined at
    in-segment track crossings, and the finished loop is checked for its
    invariants: empty value at both ends, one-sided continuity everywhere,
    and crossing-free segments.

    Windows are read through one WindowIndex, so a window costs a bisection
    plus the pieces near it.  A refinement round derives tracks only for the
    segments that a crossing split; every other segment keeps the tracks of
    the round that derived it.
    """
    s = _positive(s, "loop length")
    xi = lc_sorted(xi)
    ends = sorted({x for j, _ in xi for x in (j.u, j.v)})
    cand = {Fraction(0), s}
    for e in ends:
        for d in (-1, Fraction(-1, 2), Fraction(1, 2), 1):
            t = e + d
            if 0 < t < s:
                cand.add(t)
    breakpoints = sorted(cand)

    windows = WindowIndex(xi)
    known = {}
    for _ in range(4):
        spans = list(zip(breakpoints, breakpoints[1:]))
        crossings = set()
        for lo, hi in spans:
            if (lo, hi) in known:
                # an unsplit segment has no crossing inside it
                continue
            tracks = known[lo, hi] = _segment_tracks(windows, pam, lo, hi)
            for i in range(len(tracks)):
                for k in range(i + 1, len(tracks)):
                    c1a, c0a, _ = tracks[i]
                    c1b, c0b, _ = tracks[k]
                    if c1a != c1b:
                        u_star = Fraction(c0b - c0a, c1a - c1b)
                        if lo < u_star < hi:
                            crossings.add(u_star)
        if not crossings:
            break
        breakpoints = sorted(set(breakpoints) | crossings)
    else:
        raise TraceError("track crossings kept appearing after refinement")

    segments = tuple(known[span] for span in spans)
    loop = MooreLoop(s=s, breakpoints=tuple(breakpoints), segments=segments)
    _check_loop_invariants(loop, pam)
    return loop


def _check_loop_invariants(loop, pam):
    if not loop_eval(loop, 0, pam).is_empty:
        raise TraceError("loop value at 0 is not the empty element")
    if not loop_eval(loop, loop.s, pam).is_empty:
        raise TraceError("loop value at %s is not the empty element" % loop.s)
    for i in range(1, len(loop.breakpoints) - 1):
        bp = loop.breakpoints[i]
        left = bm_canon(pam, _track_values(loop.segments[i - 1], bp))
        right = bm_canon(pam, _track_values(loop.segments[i], bp))
        if left != right:
            raise TraceError(
                "loop discontinuity at breakpoint %s: %r vs %r" % (bp, left, right)
            )

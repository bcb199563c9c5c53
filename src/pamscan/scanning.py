"""The scanning map: labeled configurations to circle-valued Moore loops.

At each parameter the window of radius one around it is decomposed into
elementary configurations; each elementary piece contributes one circle
point, linearly interpolating between the basepoint and the window center.
Values live in the fundamental domain (-1, 1] with 1 the basepoint.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .pam import DomainError
from .intervals import CLOSED, OPEN, Interval, _frac, _positive
from .labeled import (
    E1_LEFT,
    E1_RIGHT,
    Elem2,
    WindowIndex,
    decompose_window,
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
    u, v, p, q = j.u, j.v, j.p, j.q
    half = Fraction(1, 2)
    if v - u > 1:
        if u - half < s <= u + half:
            val = p * (s - u - half)
        elif u + half < s <= v - half:
            val = Fraction(0)
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


@dataclass(frozen=True)
class ScanUnit:
    """One replaced elementary configuration, ready to emit a point."""

    pieces: tuple
    label: str

    def value(self, s):
        if len(self.pieces) == 1:
            return omega(self.pieces[0], s)
        ka, kb = self.pieces
        return merged_strand_value(ka, kb, s)


def merged_strand_value(ka, kb, s):
    """Scan value of a cut pair: the two strands glued along a plateau."""
    s = _frac(s)
    half = Fraction(1, 2)
    if s <= kb.u - half:
        return omega(ka, s)
    if s >= ka.v + half:
        return omega(kb, s)
    return norm_circle(ka.q * (kb.u - ka.v))


def replace_elementary(items):
    """Close the outer ends that keep adjacent windows consistent.

    Anchored single pieces with an open cut end get their window end closed;
    for cut pairs the cut parity picks which strand's outer end closes.
    """
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


def scan_core(windows, pam, u, t):
    """Raw (value, label) emissions of the window at t, evaluated at u.

    ``windows`` is the WindowIndex of the configuration being scanned.
    """
    u, t = _frac(u), _frac(t)
    content = windows.restrict(t - 1, t + 1)
    decomp = decompose_window(content, t - 1, t + 1, pam)
    units = replace_elementary(decomp.items)
    return [(unit.value(u), unit.label) for unit in units]


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

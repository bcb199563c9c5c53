"""The scanning map: labeled configurations to circle-valued Moore loops.

At each parameter the window of radius one around it is decomposed into
elementary configurations; each elementary piece contributes one circle
point, linearly interpolating between the basepoint and the window center.
Values live in the fundamental domain (-1, 1] with 1 the basepoint.

A window read is exact integer arithmetic: the window is clipped,
decomposed and evaluated on endpoint keys over one common scale (see
``scan_core``), and each value becomes a Fraction only when it is emitted.
A trace runs on one integer scale too (see ``alpha_trace``): its
breakpoints, the affine tracks of each segment, their crossings and the
continuity check are integers, with one keyed read per window content
that every segment of that content shares, and Fractions are built only
for the finished MooreLoop: one per breakpoint, and one per distinct
intercept, which equal segments share.  ``omega`` and
``merged_strand_value`` key their arguments the same way and wrap the
integer evaluators.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter, lt

from .pam import UNIT, DomainError
from .intervals import CLOSED, OPEN, _frac, _positive
from .labeled import (
    E1_LEFT,
    E1_RIGHT,
    WindowIndex,
    _decompose_keys,
    _interval,
    _moved,
    _num,
)
from .tensor import bm_canon, norm_circle


class TraceError(Exception):
    """A constructed loop violated one of its invariants.

    ``breakpoint`` is the failing breakpoint as a Fraction: 0 or the loop
    length for a non-empty end, else the breakpoint of the discontinuity.
    """

    def __init__(self, message, breakpoint=None):
        super().__init__(message)
        self.breakpoint = breakpoint


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
    closes the outer ends that keep adjacent windows consistent (see
    ``_units``).
    """
    u, t = _frac(u), _frac(t)
    k = lcm(2 * windows.scale, u.denominator, t.denominator)
    s, c = _num(u, k), _num(t, k)
    lo, hi = c - k, c + k
    items = _decompose_keys(windows.clip(k, lo, hi), k, lo, hi, pam)
    return [(Fraction(_unit_value(keys, s, k), k), m) for keys, m in _units(items)]


def _units(items):
    """Each keyed elementary item as (keys, label), its outer ends closed.

    An anchored single piece with an open cut end gets its window end
    closed, and for a cut pair the cut parity picks which strand's outer
    end closes.  ``keys`` holds one key, or the two strands of a cut pair.
    """
    for e in items:
        if e[0]:
            _, (a0, a1, p, q), (b0, b1, bp, bq), m = e
            if q == CLOSED:
                bq = CLOSED
            else:
                p = CLOSED
            yield ((a0, a1, p, q), (b0, b1, bp, bq)), m
        else:
            _, (a0, a1, p, q), m, kind = e
            if kind == E1_LEFT and q == OPEN:
                p = CLOSED
            elif kind == E1_RIGHT and p == OPEN:
                q = CLOSED
            yield ((a0, a1, p, q),), m


def _unit_value(keys, s, k):
    """The value over k of a unit from ``_units`` at s."""
    if len(keys) == 2:
        return _merged_strand(*keys, s, k)
    return _omega(keys[0], s, k)


def alpha_eval(xi, u, pam, t=None):
    """Scan a configuration at one parameter.

    The window sits at ``t`` (default: at ``u`` itself); ``u`` must lie
    within half a unit of the window center.
    """
    u = _frac(u)
    t = u if t is None else _frac(t)
    if abs(u - t) >= Fraction(1, 2):
        raise DomainError("parameter %s outside the half-window around %s" % (u, t))
    return bm_canon(pam, scan_core(WindowIndex(xi, pam), pam, u, t))


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
        if not all(map(lt, self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")


def loop_eval(loop, u, pam):
    u = _frac(u)
    if not (0 <= u <= loop.s):
        raise DomainError("parameter %s outside [0, %s]" % (u, loop.s))
    seg = max(bisect_left(loop.breakpoints, u) - 1, 0)
    return _segment_value(loop, seg, u, pam)


def _segment_value(loop, i, u, pam):
    """``bm_canon`` of the tracks of segment i at u."""
    return bm_canon(pam, [(norm_circle(c1 * u + c0), m) for c1, c0, m in loop.segments[i]])


def alpha_trace(xi, s, pam):
    """Trace the full loop of a configuration over [0, s].

    Breakpoints start from 0, s and every endpoint shifted by +-1/2 and
    +-1, segments are split where two of their tracks cross, and the loop
    is checked for its invariants: empty value at both ends and one-sided
    continuity at every breakpoint.

    The whole trace runs on one integer scale T = 4 * lcm(2S, s.denominator)
    (``k`` below), with S the scale of the configuration's WindowIndex.
    T / S is a multiple of 8, T / 2 a multiple of 4 and s * T a multiple
    of 4, so every initial breakpoint is a multiple of 4 over T, and the
    midpoint m of a segment is an even integer with m - 1 and m + 1 inside
    it.

    The window content is read once per stretch between two consecutive
    points among 0, s and every endpoint +-1.  Inside a stretch no
    endpoint crosses or meets a window end, so the pieces the window cuts,
    which ends it cuts and the order of every uncut end against the
    window ends stay the same; only the clipped ends move, and they sit on
    the window ends m - T and m + T.  No piece of the content starts at
    the right window end or ends at the left one, so a clipped end takes
    part in no paste, and clipped ends move together, so two keys are
    equal at one centre exactly when they are at another.  The kinds of
    ``_classify`` test uncut ends against the window ends, and first fit
    compares the uncut ends of its pairs.  So the normal form, the kinds,
    first fit and the order of its items are the same at every centre of
    the stretch, up to the clipped ends.  First fit's labels are then the
    same tuple, and its one sum is the one the read at the stretch's first
    midpoint m0 checked.  So that read serves every segment of the
    stretch, each clipped end moved by m - m0, and the segments split at
    an endpoint +-1/2 reuse it.

    Inside a segment nothing else moves either.  No endpoint +-1/2 is
    crossed, and a clipped end stays a whole unit from the centre, so each
    unit stays on one branch of ``_omega`` or ``_merged_strand``: the
    basepoint, a constant, or a ramp of slope -1, 0 or 1 whose values lie
    strictly inside (-T, T).  (A clipped piece whose other end passes the
    centre changes its length test there, and both branches give the same
    ramp.)  So each unit is an affine track on the whole segment: its
    value at m, and its value at m + 1 with the clipped ends moved by one
    more, give the slope c1, and c0 is the value at m less c1 * m.  Every
    key and T / 2 is even, so the value at an even parameter and c0 are
    even.  For the same reasons the four checks of the three-point
    derivation that the tests keep as an oracle cannot fail: two reads
    inside one segment have the same labels, no track meets the basepoint
    inside unless it stays there, every slope is -1, 0 or 1, and the
    tracks are affine at m.

    Two tracks with slopes differing by 1 or 2 and even intercepts cross
    at an integer.  The parts of a split segment keep their parent's
    tracks, and two affine tracks cross at most once, so no part has a
    crossing inside and one crossing pass is enough; a segment with fewer
    than two tracks has nothing to cross.

    A segment whose integer tracks equal those of the segment before it
    (a piece that meets a window end while its unit sits at the
    basepoint leaves them unchanged) shares that segment's track list and
    its exact tuple, like the parts of a split segment.  Each intercept
    becomes a Fraction once per trace, through a map from the integer
    intercept, so equal intercepts of the loop are one object.

    The end and continuity checks compare, at each breakpoint x, the map
    that takes each track value other than the basepoint T to the sum of
    its labels, unit totals dropped, once the labels of that side are
    jointly summable.  ``bm_canon`` of the same tracks at x / T groups the
    values off the basepoint the same way, sums each group and drops unit
    totals, and a BMElement is exactly that set of (value, total) points.
    Division by T is one to one, so two maps are equal exactly when the
    two ``bm_canon`` values are.  Each map is summed from its side's
    sorted (value, label) list (``_side``), so at an inner breakpoint the
    two lists are compared first: equal lists give equal maps, and only
    differing lists are summed.  Two segments that share their tracks
    have equal lists at every point, so only a breakpoint between two
    different track lists is compared, two ``_side`` calls each, beside
    the two end checks.  Each side's
    labels there need no check of their own: they are labels of its
    segment's units, a part of first fit's tuple, whose sum the read
    checked, and a part of a summable tuple sums.

    Fractions are built for the MooreLoop, and to word an error: a window
    that fails to decompose is read again by ``scan_core`` a third of the
    way along the segment that first meets it, and the error names that
    window; unsummable labels at an end, a discontinuity or a non-empty
    end is worded through ``bm_canon``.
    """
    s = _positive(s, "loop length")
    windows = WindowIndex(xi, pam)
    k = 4 * lcm(2 * windows.scale, s.denominator)
    f, half, end = k // windows.scale, k // 2, _num(s, k)
    stretches, grid = {0, end}, set()
    for (u, v, _, _), _ in windows._keys:
        for x in (u * f, v * f):
            stretches.update(t for t in (x - k, x + k) if 0 < t < end)
            grid.update(t for t in (x - half, x + half) if 0 < t < end)
    grid = sorted(grid | stretches)

    points, tracks, loop_tracks = [], [], []
    seg = exact = None
    intercepts = _Intercepts(k)
    for lo, hi in zip(grid, grid[1:]):
        m = (lo + hi) // 2
        try:
            if lo in stretches:
                m0 = m
                units = list(_units(_decompose_keys(windows.clip(k, m - k, m + k), k, m - k, m + k, pam)))
            new = _segment_tracks(units, m0, m, k)
        except DomainError:
            u = Fraction(2 * lo + hi, 3 * k)
            scan_core(windows, pam, u, u)
            raise
        if new != seg:
            seg = new
            exact = tuple([(c1, intercepts[c0], label) for c1, c0, label in seg])
        points.append(lo)
        tracks.append(seg)
        loop_tracks.append(exact)
        if len(seg) > 1:
            for x in _crossings(seg, lo, hi):
                points.append(x)
                tracks.append(seg)
                loop_tracks.append(exact)
    points.append(end)

    loop = MooreLoop(
        s=s,
        breakpoints=tuple([Fraction(x, k) for x in points]),
        segments=tuple(loop_tracks),
    )
    if _circle_sums(loop, 0, _side(tracks[0], 0, k), 0, k, pam):
        raise TraceError("loop value at 0 is not the empty element", loop.breakpoints[0])
    if _circle_sums(loop, -1, _side(tracks[-1], end, k), end, k, pam):
        raise TraceError("loop value at %s is not the empty element" % s, s)
    for i in range(1, len(points) - 1):
        if tracks[i] is tracks[i - 1]:
            continue
        x = points[i]
        left, right = _side(tracks[i - 1], x, k), _side(tracks[i], x, k)
        if left != right and _circle_sums(loop, i - 1, left, x, k, pam) != _circle_sums(loop, i, right, x, k, pam):
            x = loop.breakpoints[i]
            raise TraceError(
                "loop discontinuity at breakpoint %s: %r vs %r"
                % (x, _segment_value(loop, i - 1, x, pam), _segment_value(loop, i, x, pam)),
                x,
            )
    return loop


class _Intercepts(dict):
    """Integer intercepts over k to their Fractions, each built on first use."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __missing__(self, c0):
        frac = self[c0] = Fraction(c0, self.k)
        return frac


def _segment_tracks(units, m0, m, k):
    """The (c1, c0, label) tracks, c0 over k, of the segment with midpoint m.

    ``units`` come from the read of the window (m0 - k, m0 + k) of the
    same stretch; each clipped end moves with the centre, so the keys at
    m are the read's own when m is m0.  A unit at the basepoint at m is
    there on the whole segment and leaves no track.
    """
    a, b, d = m0 - k, m0 + k, m - m0
    out = []
    for keys, label in units:
        val = _unit_value(_moved(keys, a, b, d) if d else keys, m, k)
        if val == k:
            continue
        c1 = _unit_value(_moved(keys, a, b, d + 1), m + 1, k) - val
        out.append((c1, val - c1 * m, label))
    return out


def _crossings(tracks, lo, hi):
    """The sorted integer parameters strictly inside (lo, hi) where two tracks cross."""
    out = set()
    for i, (c1a, c0a, _) in enumerate(tracks):
        for c1b, c0b, _ in tracks[i + 1 :]:
            if c1a != c1b:
                x = (c0b - c0a) // (c1a - c1b)
                if lo < x < hi:
                    out.add(x)
    return sorted(out)


def _side(tracks, x, k):
    """The sorted (value, label) points of ``tracks`` at x, over k.

    Values at the basepoint k and unit labels are left out.
    """
    out = []
    for c1, c0, m in tracks:
        val = _norm(c1 * x + c0, k)
        if val != k and m != UNIT:
            out.append((val, m))
    out.sort()
    return out


def _circle_sums(loop, i, side, x, k, pam):
    """The value -> label total map of ``side``, segment i's ``_side`` at x.

    Unit totals are dropped.  When the labels are not jointly summable,
    ``bm_canon`` of the loop's tracks raises the error, worded as it words
    it.
    """
    if pam.sum_tuple([m for _, m in side]) is None:
        _segment_value(loop, i, Fraction(x, k), pam)
    out = {}
    for val, group in groupby(side, key=itemgetter(0)):
        total = pam.sum_tuple([m for _, m in group])
        if total != UNIT:
            out[val] = total
    return out

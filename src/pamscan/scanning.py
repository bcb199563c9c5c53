"""The scanning map: labeled configurations to circle-valued Moore loops.

At each parameter the window of radius one around it is decomposed into
elementary configurations; each elementary piece contributes one circle
point, linearly interpolating between the basepoint and the window center.
Values live in the fundamental domain (-1, 1] with 1 the basepoint.

A window read is exact integer arithmetic: ``WindowIndex.read`` finds
first fit of the window on endpoint keys over one common scale, and each
value becomes a Fraction only when it is emitted (see ``scan_core``).  On
a configuration whose pieces chain the index builds the normal form once,
and a read slices it: two bisections and one pass over the pieces that
meet the window, with no normal form and no sort per read.
A trace runs on one integer scale too (see ``alpha_trace``): its
breakpoints, the affine tracks of each segment, their crossings and the
continuity check are integers.  On a stored chain whose windows all
decompose the trace reads no window: one forward pass over the segments
slices the chain and evaluates a piece again only where its branch of
``_omega`` may change.  Other configurations give the segments of a
window content one keyed read (``labeled._reads`` proves they may), and
evaluate a unit once per segment, its branch giving the slope.  A
successful trace builds no Fraction: the MooreLoop keeps the integers,
its Fraction breakpoints and intercepts are built when first read, and
``loop_eval`` bisects and evaluates on integers, building Fractions only
for the values it canonicalizes.  ``omega`` and ``merged_strand_value``
key their arguments the same way and wrap the integer evaluators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import lcm
from operator import itemgetter, lt

from .pam import UNIT, DomainError
from .intervals import CLOSED, OPEN, _frac, _positive
from .labeled import (
    E1_LEFT,
    E1_RIGHT,
    WindowIndex,
    _centres_to_read,
    _change_points,
    _interval,
    _moved,
    _num,
    _pairs,
    _reads,
    _starts,
)
from .tensor import bm_canon


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
    return Fraction(_omega((_num(j.u, k), _num(j.v, k), j.p, j.q), _num(s, k), k)[0], k)


def merged_strand_value(ka, kb, s):
    """Scan value of a cut pair: the two strands glued along a plateau."""
    s = _frac(s)
    k = lcm(2, s.denominator, *(x.denominator for j in (ka, kb) for x in (j.u, j.v)))
    keys = [(_num(j.u, k), _num(j.v, k), j.p, j.q) for j in (ka, kb)]
    return Fraction(_merged_strand(*keys, _num(s, k), k)[0], k)


def _norm(val, k):
    """``norm_circle`` of val/k, as an integer over k: into (-k, k]."""
    if -k < val <= k:
        return val
    val %= 2 * k
    return val - 2 * k if val > k else val


def _omega(key, s, k):
    """(value, slope in s) of ``omega`` on integers over an even scale k.

    The basepoint is k; the slope is p on the left ramp, q on the right
    ramp, and 0 on a plateau or at the basepoint.
    """
    u, v, p, q = key
    h = k // 2
    if v - u > k:
        if u - h < s <= u + h:
            return p * (s - u - h), p
        if u + h < s <= v - h:
            return 0, 0
    else:
        if p == q:
            raise DomainError(
                "interval %r with equal parities must have length > 1"
                % (_interval(key, k),)
            )
        if u - h < s <= v - h:
            return p * (s - u - h), p
        if v - h < s <= u + h:
            return _norm(p * (v - u - k), k), 0
    if v - h < s <= v + h:
        return _norm(q * (s - v + h), k), q
    return k, 0


def _merged_strand(ka, kb, s, k):
    """(value, slope) of ``merged_strand_value`` on integer keys over an even scale k."""
    h = k // 2
    if s <= kb[0] - h:
        return _omega(ka, s, k)
    if s >= ka[1] + h:
        return _omega(kb, s, k)
    return _norm(ka[3] * (kb[0] - ka[1]), k), 0


def scan_core(windows, pam, u, t):
    """Raw (value, label) emissions of the window at t, evaluated at u.

    ``windows`` is the WindowIndex of the configuration being scanned.  The
    read runs on integers over K = lcm(2S, u.denominator, t.denominator),
    with S the scale of the index: ``WindowIndex.read`` finds first fit of
    the window (t - 1, t + 1) on endpoint keys, slicing the index's normal
    form when the configuration chains, and each unit is evaluated there,
    so the only Fraction built is its value.  Replacing an elementary piece
    closes the outer ends that keep adjacent windows consistent (see
    ``_units``).
    """
    u, t = _frac(u), _frac(t)
    k = lcm(2 * windows.scale, u.denominator, t.denominator)
    s, c = _num(u, k), _num(t, k)
    lo, hi = c - k, c + k
    items = windows.read(k, lo, hi, pam)
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
    return _unit_track(keys, s, k)[0]


def _unit_track(keys, s, k):
    """The (value, slope) over k of a unit from ``_units`` at s."""
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


class MooreLoop:
    """Exact piecewise-affine loop over [0, s]: tracks c1*u + c0 per segment.

    The loop is stored on integers: breakpoints over a scale k, and per
    segment a list of (c1, c0, label) tracks with the slope c1 over d and
    the intercept c0 over k*d.  A traced loop has d = 1, k the trace's
    scale, and one shared list for consecutive equal segments.
    ``MooreLoop(s, breakpoints, segments)`` takes rationals, with k the
    lcm of the denominators of s, the breakpoints and the intercepts, and
    d that of the slopes.

    ``breakpoints`` (one Fraction each) and ``segments`` (a tuple per run
    of equal segments, one Fraction per distinct intercept) are views of
    a traced loop, built on first read; a loop built from them keeps them
    as given.  Equality and the hash compare (s, breakpoints, segments).
    ``loop_eval`` finds its segment by bisecting the integer breakpoints
    and evaluates the tracks on integers: O(log n + tracks).
    """

    def __init__(self, s, breakpoints, segments):
        d = lcm(*(c1.denominator for seg in segments for c1, _, _ in seg))
        k = lcm(
            s.denominator,
            *(x.denominator for x in breakpoints),
            *(c0.denominator for seg in segments for _, c0, _ in seg),
        )
        points = tuple([_num(x, k) for x in breakpoints])
        tracks = tuple([[(_num(c1, d), _num(c0, k * d), m) for c1, c0, m in seg] for seg in segments])
        self._init(s, k, d, points, tracks)
        vars(self).update(breakpoints=breakpoints, segments=segments)

    @classmethod
    def _scaled(cls, s, k, points, tracks):
        """The loop with integer breakpoints and (c1, c0, label) tracks over k."""
        loop = cls.__new__(cls)
        loop._init(s, k, 1, tuple(points), tuple(tracks))
        return loop

    def _init(self, s, k, d, points, tracks):
        if s <= 0:
            raise ValueError("loop length must be positive")
        if len(tracks) != len(points) - 1:
            raise ValueError("segment count must be breakpoint count - 1")
        if points[0] != 0 or points[-1] != _num(s, k):
            raise ValueError("breakpoints must run from 0 to %s" % s)
        if not all(map(lt, points, points[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        vars(self).update(s=s, _k=k, _d=d, _points=points, _tracks=tracks)

    @cached_property
    def breakpoints(self):
        k = self._k
        return tuple([Fraction(x, k) for x in self._points])

    @cached_property
    def segments(self):
        # built only for a traced loop (d = 1): a loop built from its
        # views keeps them
        intercepts, out, prev = _Intercepts(self._k), [], None
        for seg in self._tracks:
            if seg is not prev:
                prev = seg
                exact = tuple([(c1, intercepts[c0], m) for c1, c0, m in seg])
            out.append(exact)
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.s, self.breakpoints, self.segments) == (other.s, other.breakpoints, other.segments)

    def __hash__(self):
        return hash((self.s, self.breakpoints, self.segments))

    def __repr__(self):
        return "MooreLoop(s=%r, breakpoints=%r, segments=%r)" % (self.s, self.breakpoints, self.segments)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class _Intercepts(dict):
    """Integer intercepts over k to their Fractions, each built on first use."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __missing__(self, c0):
        frac = self[c0] = Fraction(c0, self.k)
        return frac


def loop_eval(loop, u, pam):
    """The value of the loop at u in [0, s]: ``bm_canon`` of its tracks there.

    At an inner breakpoint the segment to its left is read, as
    ``bisect_left`` on the breakpoints picks it: the first integer
    breakpoint at or above ceil(u*k) ends that segment.
    """
    u = _frac(u)
    n, q = u.numerator, u.denominator
    if n < 0 or n * loop._k > q * loop._points[-1]:
        raise DomainError("parameter %s outside [0, %s]" % (u, loop.s))
    seg = max(bisect_left(loop._points, -(-n * loop._k // q)) - 1, 0)
    return _segment_value(loop, seg, u, pam)


def _segment_value(loop, i, u, pam):
    """``bm_canon`` of the tracks of segment i at u.

    Each track is evaluated and normalized on integers over K*d, with
    K = lcm(k, u.denominator); only the values passed on are Fractions.
    """
    k, q = loop._k, u.denominator
    big = lcm(k, q)
    f, x, scale = big // k, u.numerator * (big // q), big * loop._d
    return bm_canon(pam, [(Fraction(_norm(c1 * x + c0 * f, scale), scale), m) for c1, c0, m in loop._tracks[i]])


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
    it.  Each initial segment gets its (c1, c0, label) tracks from one of
    two paths below, and one loop splits, shares, builds and checks them.

    The general path (``_read_segments``) reads the segments at their
    midpoints, window radius T, through ``labeled._reads``: a segment is
    read only when some endpoint has changed side of a window end since
    the last read, which happens at the first segment and at each segment
    that starts at an endpoint +-1.  Each read is one ``WindowIndex.read``.
    Every other segment takes the last read, centred at c, with each
    clipped end moved by m - c (``_reads`` proves that the content, its
    normal form, first fit and its one sum agree), and units are built
    once per read.

    Inside a segment nothing else moves either.  No endpoint +-1/2 is
    crossed, and a clipped end stays a whole unit from the centre, so each
    unit stays on one branch of ``_omega`` or ``_merged_strand``: the
    basepoint, a constant, or a ramp.  (A clipped piece whose other end
    passes the centre changes its length test there, and both branches
    give the same ramp.)  No clipped end selects its own ramp: a left one
    has s - u = T, so s > u + T/2, and a right one has v - s = T.  So the
    slope the branch returns beside the value at m, p, q or 0, is the
    track's slope c1, the values lie strictly inside (-T, T), and c0 is
    the value at m less c1 * m.  Every key and T / 2 is even, so the value
    at an even parameter and c0 are even.  For the same reasons the four
    checks of the three-point derivation that the tests keep as an oracle
    cannot fail: two reads inside one segment have the same labels, no
    track meets the basepoint inside unless it stays there, every slope is
    -1, 0 or 1, and the tracks are affine at m.

    When the index stores a chain, the chain path (``_chain_segments``)
    reads no window.  ``labeled._centres_to_read`` first decides, with no
    read, the window at the first midpoint of each window content
    (``labeled._starts``), where the general path would read; if one
    fails, the general path runs and raises that window's error.  Else at
    each midpoint m the chain read of (m - T, m + T) is the slice of the
    chain's pieces that meet it, kept by hinted bisection as m grows, and
    its units are those pieces, an end cut at m - T or m + T (where
    ``_moved`` puts it) taking the parity opposite to the piece's other
    end, as ``_units`` closes it (``_cut_key``), and the whole window open
    at both.  Only the first piece can be cut on the left and only the
    last on the right, and when both are, with one label, and ``_pairs``
    accepts them, they make a cut pair, whose track goes last; the other
    tracks come in chain order.  The slice and its cuts, and so the cut
    pair, change only where m passes a chain endpoint +-T, a breakpoint,
    so they are bisected again only at a segment that starts there.  The
    tracks are evaluated at the first segment, at a segment that starts
    at a chain endpoint +-T/2, and at one whose cut pair (two pieces, or
    none) differs from the segment before; every other segment takes the
    list before it.  That list is the one an evaluation would give:

    - A piece changes branch only where m passes an uncut end +-T/2, a
      breakpoint, and since m lies inside its segment, only at a segment
      that starts there.  No cut end selects its own ramp (above), and its
      length test changes where the other end passes m, where both
      branches agree: a piece cut on the left at m - T gives 0 up to
      v - T/2, the ramp of v up to v + T/2 and the basepoint beyond; one
      cut on the right at m + T gives the basepoint up to u - T/2, the ramp
      of u up to u + T/2 and 0 beyond; the whole window gives 0.
      ``_merged_strand`` changes strand at its uncut inner ends +-T/2.
    - A piece changing its cut keeps its track.  It enters the slice cut
      on the right at m = u - T and leaves it cut on the left at
      m = v + T, at the basepoint both times (m <= u - T/2, m > v + T/2),
      so it leaves no track then.  It is cut on the left once m reaches
      u + T, beyond u + T/2, where uncut it gives 0, the ramp of v or the
      basepoint, as its left-cut form does; it stays cut on the right
      until m passes v - T, below v - T/2, where uncut it gives the
      basepoint, the ramp of u or 0, as its right-cut form does; and
      where a piece turns into the whole window or out of it, both forms
      give 0.
    - So with the cut pair unchanged the same tracks come in the same
      order: a piece that enters or leaves has none, the others keep
      chain order and a pair's stays last, and on one branch a track's
      slope and intercept do not change.

    Two tracks with slopes differing by 1 or 2 and even intercepts cross
    at an integer.  The parts of a split segment keep their parent's
    tracks, and two affine tracks cross at most once, so no part has a
    crossing inside and one crossing pass is enough; a segment with fewer
    than two tracks has nothing to cross.

    A segment whose integer tracks equal those of the segment before it
    (a piece that meets a window end while its unit sits at the
    basepoint leaves them unchanged) shares that segment's track list,
    like the parts of a split segment, and with it the tuple of the
    loop's ``segments`` view.

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
    the two end checks.  Each side's labels there need no check of their
    own: they are labels of its segment's units, a part of first fit's
    tuple, whose sum the read checked, and a part of a summable tuple sums.

    The loop takes the integer breakpoints and track lists as they are,
    so Fractions are built only to word an error: a window that fails to
    decompose is read again by ``scan_core`` a third of the way along the
    segment that first meets it, and the error names that window;
    unsummable labels at an end, a discontinuity or a non-empty end is
    worded through ``bm_canon``.
    """
    s = _positive(s, "loop length")
    windows = WindowIndex(xi, pam)
    k = 4 * lcm(2 * windows.scale, s.denominator)
    f, half, end = k // windows.scale, k // 2, _num(s, k)
    ends = {x * f for key, _ in windows._keys for x in key[:2]}
    grid = sorted({0, end, *(t for x in ends for t in (x - k, x - half, x + half, x + k) if 0 < t < end)})
    mids = [(lo + hi) // 2 for lo, hi in zip(grid, grid[1:])]

    segments = _chain_segments(windows, k, grid, mids, pam)
    if segments is None:
        segments = _read_segments(windows, k, grid, mids, pam)
    points, tracks, seg = [], [], None
    for lo, hi, new in zip(grid, grid[1:], segments):
        if new != seg:
            seg = new
        points.append(lo)
        tracks.append(seg)
        if len(seg) > 1:
            for x in _crossings(seg, lo, hi):
                points.append(x)
                tracks.append(seg)
    points.append(end)

    loop = MooreLoop._scaled(s, k, points, tracks)
    if _circle_sums(loop, 0, _side(tracks[0], 0, k), 0, k, pam):
        raise TraceError("loop value at 0 is not the empty element", Fraction(0))
    if _circle_sums(loop, -1, _side(tracks[-1], end, k), end, k, pam):
        raise TraceError("loop value at %s is not the empty element" % s, s)
    for i in range(1, len(points) - 1):
        if tracks[i] is tracks[i - 1]:
            continue
        x = points[i]
        left, right = _side(tracks[i - 1], x, k), _side(tracks[i], x, k)
        if left != right and _circle_sums(loop, i - 1, left, x, k, pam) != _circle_sums(loop, i, right, x, k, pam):
            x = Fraction(x, k)
            raise TraceError(
                "loop discontinuity at breakpoint %s: %r vs %r"
                % (x, _segment_value(loop, i - 1, x, pam), _segment_value(loop, i, x, pam)),
                x,
            )
    return loop


def _read_segments(windows, k, grid, mids, pam):
    """The tracks of each initial segment, read through ``labeled._reads``.

    The general path of ``alpha_trace``.  A window that fails is read
    again by ``scan_core`` a third of the way along the first segment
    that meets it, which raises the error naming that window.
    """
    reads, c = _reads(windows, k, k, mids, pam), None
    for lo, hi, m in zip(grid, grid[1:], mids):
        try:
            at, items = next(reads)
            if at != c:
                c, units = at, list(_units(items))
            new = _segment_tracks(units, c, m, k)
        except DomainError:
            u = Fraction(2 * lo + hi, 3 * k)
            scan_core(windows, pam, u, u)
            raise
        yield new


def _segment_tracks(units, c, m, k):
    """The (c1, c0, label) tracks, c0 over k, of the segment with midpoint m.

    ``units`` come from the read of the window (c - k, c + k) that serves
    this segment; each clipped end moves with the centre, so the keys at
    m are the read's own when m is c.  A unit is evaluated once, at m, its
    branch giving the slope (see ``alpha_trace``); one at the basepoint at
    m is there on the whole segment and leaves no track.
    """
    a, b, d = c - k, c + k, m - c
    out = []
    for keys, label in units:
        val, c1 = _unit_track(_moved(keys, a, b, d) if d else keys, m, k)
        if val != k:
            out.append((c1, val - c1 * m, label))
    return out


def _chain_segments(windows, k, grid, mids, pam):
    """The tracks of each initial segment of a stored chain, or None.

    The chain path of ``alpha_trace``, which proves it: None unless
    ``windows`` stores a chain whose window contents all decompose, and
    then one list per segment, a segment that needs no evaluation taking
    the list before it.
    """
    chain = windows._chain
    if chain is None:
        return None
    starts = [mids[j] for j in _starts(_change_points(windows, k, k), mids)]
    for _ in _centres_to_read(windows, k, k, starts, pam):
        return None
    f = k // windows.scale
    keys = [(u * f, v * f, p, q) for (u, v, p, q), _, _ in chain]
    labels = [m for _, m, _ in chain]
    lefts, rights = [key[0] for key in keys], [key[1] for key in keys]
    ends = {x for key in keys for x in key[:2]}
    # past the first segment, the slice and its cuts change only at one
    # that starts at an endpoint +-1, a branch only at an endpoint +-1/2
    moves = {0, *(x + d for x in ends for d in (-k, k))}
    marks = {x + d for x in ends for d in (-k // 2, k // 2)}
    out, tracks, pair, first, stop = [], None, None, 0, 0
    for lo, m in zip(grid, mids):
        a, b = m - k, m + k
        new = lo in marks
        if lo in moves:
            first = bisect_right(rights, a, first)
            stop = bisect_left(lefts, b, stop)
            last = stop - 1
            was, pair = pair, (
                (first, last)
                if last > first and lefts[first] <= a and rights[last] >= b
                and labels[first] == labels[last] and _pairs(keys[first], keys[last])
                else None
            )
            new = new or tracks is None or pair != was
        if new:
            tracks = []
            for i in range(first + (pair is not None), stop - (pair is not None)):
                val, c1 = _omega(_cut_key(keys[i], a, b), m, k)
                if val != k:
                    tracks.append((c1, val - c1 * m, labels[i]))
            if pair is not None:
                val, c1 = _merged_strand(_cut_key(keys[first], a, b), _cut_key(keys[last], a, b), m, k)
                if val != k:
                    tracks.append((c1, val - c1 * m, labels[first]))
        out.append(tracks)
    return out


def _cut_key(key, a, b):
    """A chain key as a unit of the window (a, b) it meets, closed as ``_units`` closes it.

    An end at or beyond a window end is cut there and takes the parity
    opposite to the other end; a key cut on both sides is the whole
    window, open at both ends.
    """
    u, v, p, q = key
    if u <= a:
        return (a, b, OPEN, OPEN) if v >= b else (a, v, -q, q)
    return (u, b, p, -p) if v >= b else key


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

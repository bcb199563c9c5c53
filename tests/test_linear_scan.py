"""Integer window reads, indexed scans and the integer trace against their slow oracles.

The oracle scan reads every window by clipping every piece on Fractions,
decomposes it by listing matchings, and evaluates each unit with the
Fraction ``omega``.  The oracle parameter axis derives each segment's
tracks from three window reads on Fractions, refines split segments in
rounds and checks the loop through ``bm_canon``; it runs over the
Fraction reads or over the keyed ``scan_core``.  The oracle segment read
decomposes the window at each segment's own midpoint.  The library clips,
decomposes and evaluates on integer keys over one scale per read, traces
on one integer scale with one read per window content, and must agree
with the oracles byte for byte, error texts included.  The index bisects
integer endpoints, and the Fraction bisection it replaced must find the
same slices.  The pass that decides a chain's windows without reading
them must give the verdicts of the every-centre oracle and of the read
loop it replaced.  The work guards count clipped pieces, built Intervals, window
decompositions and Fractions, so a quadratic scan or a scan that falls
back to Fractions cannot return without a failing test.
"""

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import accumulate
from math import lcm

import pytest

import pamscan.intervals as intervals
import pamscan.labeled as labeled
import pamscan.scanning as scanning
import pamscan.tensor as tensor
from pamscan import (
    BASEPOINT,
    UNIT,
    CLOSED,
    OPEN,
    DecomposeError,
    DomainError,
    Elem2,
    Interval,
    MooreLoop,
    TraceError,
    WindowIndex,
    admissibility_sweep,
    alpha_eval,
    alpha_trace,
    bm_canon,
    decompose_window,
    in_T_labeled,
    is_admissible,
    lc_sorted,
    loop_eval,
    norm_circle,
    omega,
    restrict,
)
from pamscan.dsl import fmt_loop, parse_config
from pamscan.labeled import E1_LEFT, E1_RIGHT, _decompose_keys, _interval, _moved, _num, _sweep_centres
from pamscan.scanning import merged_strand_value

from genutil import cyclic_pam, odd_primes, rand_admissible, rand_frac, truncated_pam
from test_count_matchings import EPSILONS, PARITIES, centre_sides, oracle_decompose, rand_sweep_input


class FullScan:
    """The slow window read: ``restrict`` clips every piece of ``pieces``."""

    def __init__(self, xi):
        self.pieces = lc_sorted(xi)


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
    content = restrict(windows.pieces, t - 1, t + 1)
    decomp = oracle_decompose(content, t - 1, t + 1, pam)
    units = oracle_replace_elementary(decomp.items)
    return [(unit.value(u), unit.label) for unit in units]


def _track_values(tracks, u):
    """The (value, label) emission of each affine track at u."""
    return [(norm_circle(c1 * u + c0), m) for c1, c0, m in tracks]


def oracle_three_point_tracks(read, windows, pam, lo, hi):
    """Derive the affine tracks of one segment from three window reads."""
    step = (hi - lo) / 3
    u1, u2 = lo + step, hi - step
    pts1 = read(windows, pam, u1, u1)
    pts2 = read(windows, pam, u2, u2)
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
    pts3 = read(windows, pam, mid, mid)
    actual = [(v, m) for v, m in pts3 if v != BASEPOINT]
    if _track_values(tracks, mid) != actual:
        raise TraceError(
            "tracks in segment (%s, %s) are not affine" % (lo, hi)
        )
    return tuple(tracks)


def oracle_check_loop_invariants(loop, pam):
    """Empty ends and one-sided continuity, compared through ``bm_canon``."""
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


def _initial_grid(xi, s, shifts=(-1, F(-1, 2), F(1, 2), 1)):
    """0, s and every endpoint shifted by each of ``shifts`` inside (0, s), on Fractions."""
    grid = {F(0), s}
    for x in {x for j, _ in xi for x in (j.u, j.v)}:
        grid.update(t for t in (x + d for d in shifts) if 0 < t < s)
    return sorted(grid)


def _stretches(xi, s):
    """0, s and every endpoint +-1 inside (0, s): the ends of the trace's window contents."""
    return _initial_grid(xi, s, (-1, 1))


def oracle_segment_tracks(windows, pam, k, m):
    """The (c1, c0, label) tracks of the trace segment with midpoint m, read there.

    The trace's per-segment read: the window (m - k, m + k) decomposed on
    keys at the segment's own midpoint, each unit's value at m and at
    m + 1 with the clipped ends moved by one.
    """
    a, b = m - k, m + k
    items = labeled._decompose_keys(windows.clip(k, a, b), k, a, b, pam)
    out = []
    for keys, label in scanning._units(items):
        val = scanning._unit_value(keys, m, k)
        if val == k:
            continue
        moved = tuple((u + 1 if u == a else u, v + 1 if v == b else v, p, q) for u, v, p, q in keys)
        c1 = scanning._unit_value(moved, m + 1, k) - val
        out.append((c1, val - c1 * m, label))
    return out


def oracle_refined_trace(read, windows, xi, s, pam):
    """The Fraction parameter axis: thirds, refinement rounds, bm_canon checks.

    Breakpoints start from ``_initial_grid``; each segment is derived by
    ``oracle_three_point_tracks`` through ``read``, and a round derives again
    only the segments that an in-segment crossing split.
    """
    s = F(s)
    if s <= 0:
        raise DomainError("loop length must be positive")
    breakpoints = _initial_grid(xi, s)
    known = {}
    for _ in range(4):
        spans = list(zip(breakpoints, breakpoints[1:]))
        crossings = set()
        for lo, hi in spans:
            if (lo, hi) in known:
                continue
            tracks = known[lo, hi] = oracle_three_point_tracks(read, windows, pam, lo, hi)
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
    loop = MooreLoop(s, tuple(breakpoints), tuple(known[span] for span in spans))
    oracle_check_loop_invariants(loop, pam)
    return loop


def oracle_trace(xi, s, pam):
    """The refined Fraction parameter axis over Fraction window reads."""
    return oracle_refined_trace(oracle_scan_core, FullScan(xi), lc_sorted(xi), s, pam)


def oracle_axis_trace(xi, s, pam):
    """The refined Fraction parameter axis over the keyed ``scan_core``."""
    return oracle_refined_trace(scanning.scan_core, WindowIndex(xi, pam), lc_sorted(xi), s, pam)


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
    """is_admissible as (ok, reason, window), every window read and decomposed on
    Fractions until the first that fails."""
    eps, a, b = F(eps), F(support[0]), F(support[1])
    xi = lc_sorted(xi)
    ok, wit = in_T_labeled(xi, pam, witness=True)
    if not ok:
        return False, "not in the tensor region: %r" % (wit,), None
    windows = FullScan(xi)
    for t in oracle_sweep_points(xi, eps):
        try:
            oracle_decompose(restrict(windows.pieces, t - eps, t + eps), t - eps, t + eps, pam)
        except DecomposeError as e:
            return False, str(e), (t - eps, t + eps)
        except DomainError as e:
            return False, str(e), None
    if restrict(xi, a + eps / 2, b - eps / 2) != xi:
        return False, "support leaks outside (%s, %s)" % (a + eps / 2, b - eps / 2), None
    return True, None, None


def _trace_text(trace, xi, s, pam):
    try:
        return fmt_loop(trace(xi, s, pam))
    except (TraceError, DomainError) as e:
        return "%s: %s" % (type(e).__name__, e)


def _assert_matches_oracle(xi, s, pam):
    report = is_admissible(xi, 1, (0, s), pam)
    fast = (_trace_text(alpha_trace, xi, s, pam), repr((report.ok, report.reason, report.window)))
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


def oracle_every_centre(xi, eps, support, pam, read):
    """is_admissible as (ok, reason, window), reading every centre of the sweep
    on keys with ``read`` until the first that fails."""
    eps, a, b = F(eps), F(support[0]), F(support[1])
    windows, pieces = WindowIndex(xi, pam), lc_sorted(xi)
    ok, wit = in_T_labeled(pieces, pam, witness=True)
    if not ok:
        return False, "not in the tensor region: %r" % (wit,), None
    k, e, centres = _sweep_centres([key for key, _ in windows._keys], windows.scale, eps)
    for t in centres:
        try:
            read(windows.clip(k, t - e, t + e), k, t - e, t + e, pam)
        except DecomposeError as err:
            return False, str(err), (F(t - e, k), F(t + e, k))
        except DomainError as err:
            return False, str(err), None
    if restrict(pieces, a + eps / 2, b - eps / 2) != pieces:
        return False, "support leaks outside (%s, %s)" % (a + eps / 2, b - eps / 2), None
    return True, None, None


def oracle_read_loop(xi, eps, support, pam):
    """is_admissible as (ok, reason, window) with its loop before the chain pass:
    ``WindowIndex.read`` at each centre of ``_read_centres`` until the first
    that fails."""
    eps, a, b = F(eps), F(support[0]), F(support[1])
    windows = WindowIndex(xi, pam)
    bad = labeled._tensor_sweep(windows._keys, pam)
    if bad is not None:
        return False, "not in the tensor region: %r" % (("first", bad),), None
    k, e, centres = labeled._read_centres(windows, eps)
    for t in centres:
        try:
            windows.read(k, t - e, t + e, pam)
        except DecomposeError as err:
            return False, str(err), err.window
        except DomainError as err:
            return False, str(err), None
    pieces = lc_sorted(xi)
    if restrict(pieces, a + eps / 2, b - eps / 2) != pieces:
        return False, "support leaks outside (%s, %s)" % (a + eps / 2, b - eps / 2), None
    return True, None, None


def _admissibility(xi, eps, support, pam):
    try:
        report = is_admissible(xi, eps, support, pam)
    except DomainError as e:
        return type(e).__name__, str(e)
    return report.ok, report.reason, report.window


def rand_support(rng, xi, eps):
    """A support around the draw's hull, a margin of 0 to 2 on either side."""
    ends = [x for j, _ in xi for x in (j.u, j.v)]
    a = min(ends) - F(rng.randint(0, 8), 4)
    b = max(max(ends) + F(rng.randint(0, 8), 4), a + eps + F(1, 4))
    return a, b


def content_starts(sides):
    """The first centre of each window content, from ``centre_sides``.

    A centre with endpoints on its right window end only has the content
    of the centre before it, and the centre after one with endpoints on
    its left window end only has that centre's content; every other
    centre starts a content.  There are as many starts as centres whose
    two window ends agree.
    """
    return [
        t
        for i, (t, (left, right)) in enumerate(sides)
        if not (right and not left) and not (i and sides[i - 1][1] == (True, False))
    ]


def _assert_chain_reads(reads, got):
    """A stored chain reads no window, or only the failing one."""
    assert reads == ([sum(got[2]) / 2] if got[0] is False and got[2] else [])


def test_admissible_reasons_match_the_every_centre_oracle(m3, z2, decompose_reads):
    # 2,000 draws over four carriers and four radii (``rand_sweep_input``):
    # the verdict, the reason and the failing window are the oracle's,
    # which reads every centre and stops at the first that fails.  An
    # input that does not chain reads the first centre of each window
    # content, as many as the centres whose window ends agree, up to the
    # first failure and no further, so a first failing centre with an
    # endpoint on its left window end only is read once, as its own
    # window.  A chain reads only its failing window
    seen = dict.fromkeys(("admissible", "window", "left-only failure", "other", "chain"), 0)
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("reasons-" + pam.name)
        labels = [m for m in pam.elements if m != "0"]
        for n in range(500):
            xi, eps = rand_sweep_input(rng, n, pam, labels)
            support = rand_support(rng, xi, eps)
            del decompose_reads[:]
            got = _admissibility(xi, eps, support, pam)
            reads = [F(lo + hi, 2 * k) for lo, hi, k in decompose_reads]
            try:
                want = oracle_every_centre(xi, eps, support, pam, _decompose_keys)
            except DomainError as e:
                want = type(e).__name__, str(e)
            assert got == want, (xi, eps, support, pam.name)
            if _stores_chain(xi, pam):
                seen["chain"] += 1
                _assert_chain_reads(reads, got)
                continue
            sides = centre_sides(xi, eps)
            starts = content_starts(sides)
            assert len(starts) == sum(left == right for _, (left, right) in sides)
            assert reads == starts[: len(reads)], (xi, eps)
            if got[0] is True:
                seen["admissible"] += 1
                assert reads == starts
            elif len(got) == 3 and got[2]:
                seen["window"] += 1
                assert reads[-1] == sum(got[2]) / 2, (xi, eps)
                seen["left-only failure"] += dict(sides)[reads[-1]] == (True, False)
            else:
                seen["other"] += 1
    assert min(seen.values()) >= 100, seen


def test_is_admissible_reads_each_window_content_once(m3, decompose_reads):
    # admissible chains of 8 and 64 clusters read no window.  With one
    # piece split in two coincident ones, so that the input does not
    # chain but is as admissible, there is one keyed read at the first
    # centre of each window content, as many as the midpoints, the outer
    # centres and the centres with endpoints on both window ends; every
    # other centre has an endpoint on one window end only and takes a
    # neighbour's read, which is about half of them
    rng = random.Random("chain-reads")
    for clusters in (8, 64):
        xi, s = rand_admissible(rng, clusters=clusters)
        del decompose_reads[:]
        assert is_admissible(xi, 1, (0, s), m3)
        assert decompose_reads == []
        # split a c-labeled piece into coincident a and b: one normal form
        xi = _unchained(xi)
        assert not _stores_chain(xi, m3)
        del decompose_reads[:]
        assert is_admissible(xi, 1, (0, s), m3)
        sides = centre_sides(xi, 1)
        reads = [F(lo + hi, 2 * k) for lo, hi, k in decompose_reads]
        assert reads == content_starts(sides)
        assert len(reads) == sum(left == right for _, (left, right) in sides)
        assert 2 * len(reads) < 1.2 * len(sides), (len(reads), len(sides))


def _stores_chain(xi, pam):
    try:
        return WindowIndex(xi, pam)._chain is not None
    except DomainError:
        return False


def rand_chain(rng, labels, eps):
    """A chain of 1 to 7 pieces that ``WindowIndex`` stores, with what it leaves out.

    Pieces touch with opposite parities or sit 0 to 2 eps apart, so that
    one window may cut the pieces on both sides of a gap: a cut pair, or
    one that breaks on the label or on the parity.  Half the pieces are shorter than 2 eps, and a third are
    co-parity (p = q), which fails inside a window.  A gap may hold a
    degenerate point or a zero-label piece.
    """
    x, q, xi = F(rng.randint(-8, 8), 4), None, []
    for _ in range(rng.randint(1, 7)):
        gap = F(rng.randint(0, 8), 4) * eps if xi and rng.random() < 0.6 else 0
        p = rng.choice(PARITIES) if q is None or gap else -q
        if gap and rng.random() < 0.4:
            y = x + F(rng.randint(1, 7), 8) * gap
            if rng.random() < 0.5:
                r = rng.choice(PARITIES)
                xi.append((Interval(y, y, r, -r), rng.choice(labels)))
            else:
                xi.append((Interval(x, y, *rng.sample(PARITIES, 2)), "0"))
        u = x + gap
        x = u + (F(rng.randint(1, 15), 8) if rng.random() < 0.5 else 2 + F(rng.randint(0, 16), 8)) * eps
        q = p if rng.random() < 0.33 else -p
        m = xi[-1][1] if xi and xi[-1][1] != "0" and rng.random() < 0.5 else rng.choice(labels)
        xi.append((Interval(u, x, p, q), m))
    return xi


def test_chain_pass_matches_both_oracles(carrier, decompose_reads):
    # 1,000 chain draws per carrier (``rand_chain``), the radius cycling
    # through ``EPSILONS``: (ok, reason, window) is the every-centre
    # oracle's and the read loop's, and the pass reads no window of an
    # admissible chain and only the failing one of a failing chain
    rng = random.Random("chain-pass-" + carrier.name)
    labels = [m for m in carrier.elements if m != "0"]
    seen = Counter()
    for n in range(1000):
        eps = EPSILONS[n % 4]
        xi = rand_chain(rng, labels, eps)
        assert _stores_chain(xi, carrier), xi
        support = rand_support(rng, xi, eps)
        del decompose_reads[:]
        got = _admissibility(xi, eps, support, carrier)
        reads = [F(lo + hi, 2 * k) for lo, hi, k in decompose_reads]
        assert got == oracle_every_centre(xi, eps, support, carrier, _decompose_keys), (xi, eps, support)
        del decompose_reads[:]
        assert got == oracle_read_loop(xi, eps, support, carrier), (xi, eps, support)
        _assert_chain_reads(reads, got)
        if got[0]:
            seen["admissible"] += 1
        elif got[2]:
            seen[next(r for r in ("is not elementary", "no matching makes", "collide but") if r in got[1])] += 1
        else:
            seen["other"] += 1
    assert seen["admissible"] >= 100 and sum(seen.values()) - seen["admissible"] >= 250, seen
    if carrier.name not in ("Z2", "Z5"):
        assert seen["no matching makes"] >= 50, seen


def _window_state(ends, lo, hi):
    """The endpoints on or below the window end lo, and those below hi."""
    return sum(x <= lo for x in ends), sum(x < hi for x in ends)


def _moved_items(items, a, b, d):
    """Keyed elementary ``items`` with each end on a or b moved by d."""
    out = []
    for e in items:
        n = 2 + e[0]  # a cut pair holds two keys
        out.append(e[:1] + _moved(e[1:n], a, b, d) + e[n:])
    return out


def test_reads_match_a_fresh_read_at_every_centre(carrier, decompose_reads):
    # ``labeled._reads`` on arbitrary increasing centres, not only the
    # sweep's or the trace's: critical centres with endpoints on the low
    # window end, the high one or both, and free centres on a scale up to
    # three times finer.  Each yield, moved to its centre, is a fresh read
    # there; a failing input raises the fresh read's error at the same
    # first centre; and there is one read per run of equal states
    # (#{x <= t - e}, #{x < t + e}), at the first centre of the run
    kinds = dict.fromkeys(("low end only", "high end only", "both ends", "failures"), 0)
    rng = random.Random("reads-" + carrier.name)
    labels = [m for m in carrier.elements if m != "0"]
    for n in range(800):
        xi, eps = rand_sweep_input(rng, n, carrier, labels)
        try:
            windows = WindowIndex(xi, carrier)
        except DomainError:
            continue
        k, e, crit = _sweep_centres([key for key, _ in windows._keys], windows.scale, eps)
        f = rng.choice((1, 2, 3))
        k, e, crit = k * f, e * f, [t * f for t in crit]
        ends = [x * (k // windows.scale) for key, _ in windows._keys for x in key[:2]]
        # every centre with endpoints on both window ends, a sample of the
        # other sweep centres, and up to 12 free ones
        on_end = set(ends)
        centres = {t for t in crit if t - e in on_end and t + e in on_end}
        centres.update(rng.sample(crit, rng.randint(1, len(crit))))
        centres.update(rng.randint(crit[0], crit[-1]) for _ in range(rng.randint(0, 12)))
        centres = sorted(centres)
        del decompose_reads[:]
        got = []
        try:
            for t, (c, items) in zip(centres, labeled._reads(windows, k, e, centres, carrier)):
                got.append(items if c == t else _moved_items(items, c - e, c + e, t - c))
        except DomainError as err:
            got.append((type(err).__name__, str(err)))
        want = []
        for t in centres:
            try:
                want.append(_decompose_keys(windows.clip(k, t - e, t + e), k, t - e, t + e, carrier))
            except DomainError as err:
                want.append((type(err).__name__, str(err)))
                kinds["failures"] += 1
                break
        assert got == want, (xi, eps, centres)
        states = [_window_state(ends, t - e, t + e) for t in centres[: len(want)]]
        firsts = [t for i, t in enumerate(centres[: len(want)]) if not i or states[i] != states[i - 1]]
        assert decompose_reads == [(t - e, t + e, k) for t in firsts], (xi, eps, centres)
        for t in centres[: len(want)]:
            low, high = t - e in on_end, t + e in on_end
            kinds["low end only"] += low and not high
            kinds["high end only"] += high and not low
            kinds["both ends"] += low and high
    assert min(kinds.values()) >= 100, kinds


def test_read_centres_are_the_first_centre_of_each_state(carrier):
    # 500 draws per carrier, eps over every denominator from 1 to 7: the
    # centres ``is_admissible`` reads, taken from the change points alone,
    # are the first sweep centre of each run of equal states
    # (#{x <= t - e}, #{x < t + e}), the centres ``_reads`` reads, on the
    # sweep's scale.  The draws include the empty configuration and single
    # degenerate points
    rng = random.Random("read-centres-" + carrier.name)
    labels = [m for m in carrier.elements if m != "0"]
    seen = Counter()
    for n in range(500):
        d = rng.randint(1, 7)
        eps = F(rng.randint(1, 3 * d), d)
        if n % 10 == 0:
            xi, kind = [], "empty"
        elif n % 10 == 1:
            x, p = _q(rng, -3, 3), rng.choice((OPEN, CLOSED))
            xi, kind = [(Interval(x, x, p, -p), rng.choice(labels))], "point"
        else:
            xi, _ = rand_sweep_input(rng, n, carrier, labels)
            xi, kind = [(j, m if m in carrier.elements else labels[0]) for j, m in xi], "pieces"
        windows = WindowIndex(xi, carrier)
        k, e, centres = _sweep_centres([key for key, _ in windows._keys], windows.scale, eps)
        ends = [x * (k // windows.scale) for key, _ in windows._keys for x in key[:2]]
        states = [_window_state(ends, t - e, t + e) for t in centres]
        firsts = [t for i, t in enumerate(centres) if not i or states[i] != states[i - 1]]
        assert labeled._read_centres(windows, eps) == (k, e, firsts), (xi, eps)
        seen[kind] += 1
        seen[d] += 1
    assert seen["empty"] == seen["point"] == 50 and all(seen[d] >= 30 for d in range(1, 8)), seen


def test_window_index_matches_restrict(m3):
    # ``WindowIndex.clip`` keys, turned back into Intervals, are ``restrict``
    rng = random.Random(7)
    for _ in range(200):
        xi = [(_rand_piece(rng), rng.choice("abc")) for _ in range(rng.randint(0, 8))]
        # coincident pieces, with the same and with another label
        for j, _ in list(xi[: rng.randint(0, 2)]):
            xi.append((j, rng.choice("abc")))
        windows = WindowIndex(xi, m3)
        ends = [x for j, _ in xi for x in (j.u, j.v)] or [F(0)]
        for _ in range(12):
            a = rng.choice(ends) if rng.random() < 0.5 else rand_frac(rng, -1, 7)
            b = rng.choice(ends) if rng.random() < 0.5 else a + rand_frac(rng, 0, 2)
            a, b = F(a), F(b)
            scale = lcm(windows.scale, a.denominator, b.denominator)
            clipped = windows.clip(scale, _num(a, scale), _num(b, scale))
            got = tuple((_interval(key, scale), m) for key, m, _ in clipped)
            assert got == restrict(xi, a, b), (xi, a, b)


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


def test_integer_bisection_matches_fraction_bisection(m3):
    rng = random.Random(8)
    draws = 0
    while draws < 20000:
        xi = [(_mixed_piece(rng), rng.choice("abc")) for _ in range(rng.randint(0, 10))]
        windows, pieces = WindowIndex(xi, m3), lc_sorted(xi)
        ends = [x for j, _ in xi for x in (j.u, j.v)] or [F(0)]
        for _ in range(20):
            a = _window_end(rng, ends, windows.scale)
            b = _window_end(rng, ends, windows.scale)
            if rng.random() < 0.7:
                a, b = min(a, b), max(a, b)
            # the window over a multiple of S, as a scan read gives it
            k = lcm(windows.scale, a.denominator, b.denominator)
            got = windows._bounds(k, a.numerator * (k // a.denominator), b.numerator * (k // b.denominator))
            assert got == oracle_bounds(pieces, a, b), (xi, a, b)
            draws += 1


def _pair_chain(k):
    """k translated copies of (1,3]:a [7/2,11/2):b with period 7."""
    xi = []
    for i in range(k):
        xi.append((Interval(1 + 7 * i, 3 + 7 * i, OPEN, CLOSED), "a"))
        xi.append((Interval(F(7, 2) + 7 * i, F(11, 2) + 7 * i, CLOSED, OPEN), "b"))
    return xi, F(7 * k)


def test_clipped_pieces_grow_linearly(m3, monkeypatch):
    # every window read, and the support check, bisects the index, and the
    # slice it gets is what it clips; no piece goes through clip_interval
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


def _stretch_reads(xi, s):
    """The midpoint of the first initial segment of each stretch between two
    consecutive points among 0, s and every endpoint +-1."""
    grid, stretches = _initial_grid(xi, s), set(_stretches(xi, s))
    return [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:]) if lo in stretches]


def _per_segment(monkeypatch):
    """Send every trace down the per-segment path, as if no index stored a chain."""
    monkeypatch.setattr(scanning, "_chain_segments", lambda *args: None)


def _unchained(xi):
    """``xi`` with its first c-labeled piece split into coincident a and b pieces.

    The element is the same, but the index stores no chain.
    """
    i = next(i for i, (_, m) in enumerate(xi) if m == "c")
    return [*xi[:i], (xi[i][0], "a"), (xi[i][0], "b"), *xi[i + 1 :]]


def test_trace_reads_each_window_content_once(m3, monkeypatch, decompose_reads):
    xi, s = _pair_chain(8)
    # one pair whose facing tracks cross inside a segment
    xi += parse_config("[57,117/2):a [59,61):b", m3)
    s += 7
    scans, built = [], []
    scan = scanning.scan_core

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    new = vars(F)["__new__"]

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(scanning, "scan_core", counting_scan)
    grid = _initial_grid(xi, s)
    # the pair chain is stored as a chain and traced with no read; on the
    # per-segment path there is exactly one keyed decomposition per window
    # content, the stretch between two consecutive points among 0, s and
    # every endpoint +-1, at the midpoint of its first segment; the
    # segments split there at an endpoint +-1/2, and the parts of a
    # segment a crossing split, read nothing.  Both give one loop
    loops = []
    for chained in (True, False):
        with monkeypatch.context() as mp:
            if not chained:
                _per_segment(mp)
            del decompose_reads[:]
            F.__new__ = staticmethod(counting_new)
            try:
                loops.append(alpha_trace(xi, s, m3))
            finally:
                F.__new__ = new
        windows = list(decompose_reads)
        if chained:
            assert windows == []
            continue
        assert len(loops[-1].segments) > len(grid) - 1 > len(windows)
        assert [F(lo + hi, 2 * k) for lo, hi, k in windows] == _stretch_reads(xi, s)
        assert all(F(hi - lo, k) == 2 for lo, hi, k in windows)
    assert _layout(loops[0]) == _layout(loops[1])
    assert scans == []
    # a successful trace builds no Fraction: none per read, and none for
    # the loop, whose views are built when first read
    assert built == [], len(built)
    # admissible chains of 8 and 64 clusters read no window either; with
    # one piece split in two coincident ones, so that the input does not
    # chain, the reads are the same in number and place as above
    rng = random.Random("trace-reads")
    for clusters in (8, 64):
        xi, s = rand_admissible(rng, clusters=clusters)
        del decompose_reads[:]
        loop = alpha_trace(xi, s, m3)
        assert decompose_reads == []
        xi = _unchained(xi)
        assert WindowIndex(xi, m3)._chain is None
        assert alpha_trace(xi, s, m3) == loop
        assert [F(lo + hi, 2 * k) for lo, hi, k in decompose_reads] == _stretch_reads(xi, s)


def test_trace_builds_each_segment_and_intercept_once(m3, monkeypatch):
    # a 64-cluster chain: the trace builds no Fraction, and only a
    # breakpoint between two different segments is compared, a sorted
    # side each, beside the two end checks; reading ``segments`` builds
    # one Fraction per distinct intercept, a segment with the integer
    # tracks of the one before sharing its tuple, reading ``breakpoints``
    # one Fraction per breakpoint, and a second read builds nothing
    xi, s = rand_admissible(random.Random("work-64"), clusters=64)
    sides, built = [], []
    side = scanning._side

    def counting_side(*args):
        sides.append(args)
        return side(*args)

    new = vars(F)["__new__"]

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(scanning, "_side", counting_side)
    F.__new__ = staticmethod(counting_new)
    try:
        loop = alpha_trace(xi, s, m3)
        traced = len(built)
        segments = loop.segments
        from_segments = len(built) - traced
        breakpoints = loop.breakpoints
        from_breakpoints = len(built) - traced - from_segments
        assert loop.segments is segments and loop.breakpoints is breakpoints
        again = len(built) - traced - from_segments - from_breakpoints
    finally:
        F.__new__ = new
    assert traced == 0 and again == 0, (traced, again)
    assert from_breakpoints == len(breakpoints) == len(segments) + 1
    shared = differ = 0
    for a, b in zip(segments, segments[1:]):
        if a == b:
            assert a is b
            shared += 1
        else:
            differ += 1
    intercepts, tracks = {}, 0
    for seg in segments:
        for _, c0, _ in seg:
            assert intercepts.setdefault(c0, c0) is c0
            tracks += 1
    assert shared > 0 and differ > 0 and len(intercepts) < tracks, (shared, differ, len(intercepts), tracks)
    assert len(sides) == 2 + 2 * differ
    assert from_segments == len(intercepts), (from_segments, len(intercepts))


def _layout(loop):
    """A loop's scale, integer breakpoints and tracks, and which neighbouring segments share one list."""
    return loop._k, loop._points, loop._tracks, [a is b for a, b in zip(loop._tracks, loop._tracks[1:])]


def test_window_content_reads_match_segment_reads(m3, z2, monkeypatch):
    # 2,400 traces: every segment's tracks, moved from its window content's
    # read and each unit evaluated once, its branch giving the slope, are
    # ``oracle_segment_tracks``, a read at the segment's own midpoint m
    # evaluated at m and m + 1.  A trace with that oracle in place of
    # ``_segment_tracks`` builds the same loops (``_layout``) and gives the
    # same text or error.  At every inner breakpoint the trace's verdict
    # (equal sorted sides, or else equal circle sums) is the verdict of
    # bm_canon on the two sides' tracks.  The draws hold pieces of every
    # parity pair and degenerate points, and cut pairs, crossing tracks
    # and failing traces come up.  Every trace takes the per-segment path,
    # the chains among the draws included
    _per_segment(monkeypatch)
    made, segments, cover = [], [], Counter()
    scaled, segment_tracks, crossings = scanning.MooreLoop._scaled, scanning._segment_tracks, scanning._crossings

    def capturing_loop(*args):
        made.append(scaled(*args))
        return made[-1]

    def recording_tracks(units, m0, m, k):
        segments.append((m0, m, k, segment_tracks(units, m0, m, k)))
        cover["cut pair"] += any(len(keys) == 2 for keys, _ in units)
        return segments[-1][3]

    def counting_crossings(*args):
        out = crossings(*args)
        cover["crossing"] += bool(out)
        return out

    monkeypatch.setattr(scanning.MooreLoop, "_scaled", capturing_loop)
    monkeypatch.setattr(scanning, "_segment_tracks", recording_tracks)
    monkeypatch.setattr(scanning, "_crossings", counting_crossings)
    seen = dict.fromkeys(("moved", "sides equal", "sides differ, sums equal", "discontinuity"), 0)
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("content-" + pam.name)
        labels = [m for m in pam.elements if m != "0"]
        for n in range(600):
            if n < 200:
                xi, s = rand_admissible(rng, 4)
                if pam is not m3 or n % 2:
                    rel = {m: rng.choice(labels) for m in "abc"}
                    xi = [(j, rel[m]) for j, m in xi]
            else:
                xi, s = _overlapping(rng, labels)
            del made[:], segments[:]
            text = _trace_text(alpha_trace, xi, s, pam)
            windows = WindowIndex(xi, pam)
            for m0, m, k, tracks in segments:
                assert tracks == oracle_segment_tracks(windows, pam, k, m), (xi, s, pam.name, F(m, k))
                seen["moved"] += m != m0
            traced = len(made)
            with monkeypatch.context() as mp:
                mp.setattr(scanning, "_segment_tracks", lambda units, c, m, k: oracle_segment_tracks(windows, pam, k, m))
                assert _trace_text(alpha_trace, xi, s, pam) == text, (xi, s, pam.name)
            assert [_layout(x) for x in made[traced:]] == [_layout(x) for x in made[:traced]], (xi, s, pam.name)
            del made[traced:]
            cover["failing"] += "Error: " in text
            cover["degenerate"] += any(j.u == j.v for j, _ in xi)
            cover.update({(j.p, j.q) for j, _ in xi if j.u < j.v})
            if not made:
                continue
            loop, k = made[0], 4 * lcm(2 * windows.scale, F(s).denominator)
            ints, first = {}, None
            tracks = [ints.setdefault(id(t), [(c1, int(c0 * k), m) for c1, c0, m in t]) for t in loop.segments]
            assert tracks == list(loop._tracks) and [int(x * k) for x in loop.breakpoints] == list(loop._points)
            for i in range(1, len(loop.segments)):
                bp = loop.breakpoints[i]
                x = int(bp * k)
                left, right = scanning._side(tracks[i - 1], x, k), scanning._side(tracks[i], x, k)
                sums = left == right or (
                    scanning._circle_sums(loop, i - 1, left, x, k, pam)
                    == scanning._circle_sums(loop, i, right, x, k, pam)
                )
                want = bm_canon(pam, _track_values(loop.segments[i - 1], bp)) == bm_canon(
                    pam, _track_values(loop.segments[i], bp)
                )
                assert sums == want, (xi, s, pam.name, bp)
                seen["sides equal" if left == right else "sides differ, sums equal" if sums else "discontinuity"] += 1
                first = bp if first is None and not want else first
            # the trace stops at the first discontinuity, unless an end fails first
            if first is None or "discontinuity" in text:
                assert ("discontinuity at breakpoint %s:" % first in text) == (first is not None), (xi, s, text)
            else:
                assert "not the empty element" in text, (xi, s, text)
    assert min(seen.values()) >= 10, seen
    assert min(cover.values()) >= 100 and len(cover) == 8, cover


LARGE_PRIMES = odd_primes(40)[4:]


def rand_trace_chain(rng, labels):
    """A configuration that chains, with what the chain leaves out, and a length to trace it over.

    One to eight pieces a quarter to 4 long.  A piece touches the one
    before it with the opposite parity, or sits a quarter to 3 beyond it,
    often under the same label and facing it with the opposite parity,
    so that a window cuts both and they pair, or with the same parity or
    another label, so that they do not.  A gap may hold a degenerate
    point or a zero-labelled piece.  Pieces with equal parities are
    mostly long enough to fit no window, but not always, and nearby
    labels need not sum, so windows fail.  One draw in five moves each
    endpoint by 1/p^12 for its own prime p >= 11, joints together, so the
    index's scale exceeds 2^80.  The length ends the loop before, on or past
    the last piece's reach, so some ends are not empty.
    """
    x, q, m, xi = F(rng.randint(1, 8), 4), None, rng.choice(labels), []
    for _ in range(rng.randint(1, 8)):
        if q is not None and rng.random() < 0.35:
            p = -q
        else:
            if q is not None:
                gap = F(rng.randint(1, 12), 4)
                if rng.random() < 0.3:
                    y = x + gap * F(rng.randint(0, 4), 4)
                    if rng.random() < 0.5:
                        r = rng.choice(PARITIES)
                        xi.append((Interval(y, y, r, -r), rng.choice(labels)))
                    else:
                        xi.append((Interval(y, y + F(rng.randint(1, 8), 4), *rng.sample(PARITIES, 2)), UNIT))
                x += gap
            p = -q if q is not None and rng.random() < 0.5 else rng.choice(PARITIES)
        if rng.random() < 0.5:
            m = rng.choice(labels)
        v = x + F(rng.randint(1, 16), 4)
        q = p if v - x >= 2 and rng.random() < 0.4 or rng.random() < 0.04 else -p
        xi.append((Interval(x, v, p, q), m))
        x = v
    s = x + F(rng.randint(-4, 8), 4)
    if rng.random() < 0.2:
        shift = dict(zip(sorted({y for j, _ in xi for y in (j.u, j.v)}), (F(1, p**12) for p in LARGE_PRIMES)))
        xi = [(Interval(shift[j.u] + j.u, shift[j.v] + j.v, j.p, j.q), m) for j, m in xi]
    rng.shuffle(xi)
    return xi, s if s > 0 else F(1, 4)


def test_chain_trace_matches_the_per_segment_path(carrier, monkeypatch):
    # 2,000 chain draws per carrier (``rand_trace_chain``), each traced on
    # the chain path and again on the per-segment path: the same loops
    # (``_layout``: scale, breakpoints, tracks and list sharing) and the
    # same text or error.  Where the chain path runs, its windows come up
    # with a cut pair that pairs and with one cut on both sides that does
    # not, its tracks cross, and the draws hold degenerate points and zero
    # labels and large scales; a failing window sends the trace down the
    # per-segment path, and some loops fail their end or continuity check
    made, reads, chained, crossed = [], [], [], []
    scaled, chain_segments, segment_tracks, crossings = (
        scanning.MooreLoop._scaled, scanning._chain_segments, scanning._segment_tracks, scanning._crossings)

    def capturing_loop(*args):
        made.append(_layout(scaled(*args)))
        return scaled(*args)

    def recording_chain(*args):
        out = chain_segments(*args)
        chained.append(out is not None)
        return out

    def recording_tracks(units, c, m, k):
        reads.append((units, c, k))
        return segment_tracks(units, c, m, k)

    def recording_crossings(*args):
        out = crossings(*args)
        crossed.append(bool(out))
        return out

    monkeypatch.setattr(scanning.MooreLoop, "_scaled", capturing_loop)
    monkeypatch.setattr(scanning, "_chain_segments", recording_chain)
    monkeypatch.setattr(scanning, "_segment_tracks", recording_tracks)
    monkeypatch.setattr(scanning, "_crossings", recording_crossings)
    rng = random.Random("chain-trace-" + carrier.name)
    labels = [m for m in carrier.elements if m != UNIT]
    seen = Counter()
    for _ in range(2000):
        xi, s = rand_trace_chain(rng, labels)
        windows = WindowIndex(xi, carrier)
        assert windows._chain is not None, xi
        del made[:], chained[:], reads[:], crossed[:]
        text = _trace_text(alpha_trace, xi, s, carrier)
        got, crossing = made[:], any(crossed)
        with monkeypatch.context() as mp:
            _per_segment(mp)
            del made[:], reads[:]
            assert _trace_text(alpha_trace, xi, s, carrier) == text, (xi, s)
        assert made == got, (xi, s)
        if not chained[0]:
            assert text.startswith("DecomposeError: window ("), (xi, s, text)
            seen["failing window"] += 1
            continue
        seen[text.split(":")[0] if "Error" in text else "loop"] += 1
        seen["crossing"] += crossing
        seen["degenerate or zero"] += any(j.u == j.v or m == UNIT for j, m in xi)
        seen["large scale"] += windows.scale.bit_length() > 80
        for units, c, k in reads:
            singles = [keys[0] for keys, _ in units if len(keys) == 1]
            if any(len(keys) == 2 for keys, _ in units):
                seen["pair"] += 1
            elif any(u == c - k < v < c + k for u, v, _, _ in singles) and any(c - k < u < v == c + k for u, v, _, _ in singles):
                seen["cut on both sides, unpaired"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 8, seen


def test_circle_sums_match_bm_canon():
    # drawn sides over Z/5, where every label tuple sums: the map summed
    # from a side is bm_canon's points, so equal sides give equal values;
    # sides with the same values under other labels and other sums come
    # up, so a side blind to labels fails here
    pam, k = cyclic_pam(5), 8
    rng = random.Random("sides")
    relabelled = 0
    for _ in range(2000):
        left = [(rng.choice((-1, 0, 1)), rng.choice((-4, -2, 0, 2, 8)), rng.choice(pam.elements)) for _ in range(rng.randint(0, 4))]
        right = [(c1, c0, rng.choice(pam.elements) if rng.random() < 0.3 else m) for c1, c0, m in left]
        rng.shuffle(right)
        x = rng.choice((0, 2))
        canon = []
        for tracks in (left, right):
            side = scanning._side(tracks, x, k)
            want = bm_canon(pam, [(norm_circle(F(c1 * x + c0, k)), m) for c1, c0, m in tracks])
            points = dict(want.points)
            if want.m0 is not None:
                points[F(0)] = want.m0
            sums = scanning._circle_sums(None, 0, side, x, k, pam)
            assert {F(v, k): t for v, t in sums.items()} == points, (tracks, x)
            canon.append((side, want))
        (ls, lw), (rs, rw) = canon
        assert lw == rw or ls != rs, (left, right, x)
        relabelled += lw != rw and [v for v, _ in ls] == [v for v, _ in rs]
    assert relabelled >= 100, relabelled


def test_scan_reads_neither_count_nor_check_the_tensor(m3, monkeypatch):
    # a read is first fit and one sum.  On the pair chain with its crossing
    # pair, and again with two overlapping pieces of summable labels after
    # it, no trace, evaluation or admissibility read counts matchings or
    # runs the tensor sweep; is_admissible runs the sweep once, for its own
    # check of the whole, which only the overlapping configuration takes
    # past the chain test, and in_T never
    xi, s = _pair_chain(8)
    xi += parse_config("[57,117/2):a [59,61):b", m3)
    s += 7
    duo = parse_config("[64,65):a [129/2,131/2):b", m3)
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return wrapper

    count = labeled._count_matchings
    monkeypatch.setattr(labeled, "_count_matchings", counted("count", count))
    sweep = labeled._tensor_sweep

    def sweeping(items, pam):
        calls.append(("sweep", labeled._is_chain(items)))
        return sweep(items, pam)

    monkeypatch.setattr(labeled, "_tensor_sweep", sweeping)
    monkeypatch.setattr(tensor, "in_T", counted("in_T", tensor.in_T))
    for config, length, chain in ((xi, s, True), (xi + list(duo), s + 4, False)):
        alpha_trace(config, length, m3)
        for u in range(int(length) + 1):
            alpha_eval(config, u + F(1, 3), m3)
        assert calls == []
        assert is_admissible(config, 1, (0, length), m3)
        assert calls == [("sweep", chain)]
        del calls[:]
        # decompose_window still counts, once per result
        for t in range(int(length) + 1):
            window = restrict(config, t - 1, t + 1)
            assert decompose_window(window, t - 1, t + 1, m3) == oracle_decompose(window, t - 1, t + 1, m3)
        assert calls.count("count") == int(length) + 1
        del calls[:]


def test_a_label_that_no_window_meets_is_checked(m3):
    # the index checks every label once, so [5,6):zz is refused by reads
    # and a trace whose windows never meet it
    xi = [(Interval(0, 1, CLOSED, OPEN), "a"), (Interval(5, 6, CLOSED, OPEN), "zz")]
    for read in (
        lambda: alpha_eval(xi, F(1, 2), m3),
        lambda: alpha_trace(xi, 3, m3),
        lambda: next(admissibility_sweep(xi, 1, m3)),
        lambda: is_admissible(xi, 1, (-1, 8), m3),
    ):
        with pytest.raises(DomainError, match="^unknown element 'zz' of pam 'M3'$"):
            read()


def test_large_lcm_chain_matches_oracle(m3):
    # every endpoint of the 16-cluster pair chain moves by 1/p for its own
    # prime p, so the index's scale is the product of 64 primes
    xi, s = _pair_chain(16)
    shifts = iter(F(1, p) for p in odd_primes(70)[6:])
    xi = [
        (Interval(j.u + next(shifts), j.v + next(shifts), j.p, j.q), m) for j, m in xi
    ]
    assert WindowIndex(xi, m3).scale.bit_length() > 400
    assert is_admissible(xi, 1, (0, s), m3)
    _assert_matches_oracle(xi, s, m3)


DENS = (2, 3, 4, 5, 6, 8, 12)
# what each error a window read can raise says
READ_ERRORS = ("is not elementary", "collide but", "no matching makes", "coincident interval")


def _q(rng, lo, hi):
    """A rational in [lo, hi] over one of DENS."""
    return _q_over(rng, DENS, lo, hi)


def _q_over(rng, dens, lo, hi):
    """A rational in [lo, hi] over one of ``dens``."""
    d = rng.choice(dens)
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
            windows, full = WindowIndex(xi, pam), FullScan(xi)
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
    # a 32-cluster chain through alpha_trace and is_admissible: no window
    # read, and not the support check either, builds an Interval or calls
    # clip_interval, and no read goes through the public decompose_window
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
    monkeypatch.setattr(intervals, "clip_interval", counted("clip_interval", intervals.clip_interval))
    alpha_trace(xi, s, m3)
    assert is_admissible(xi, 1, (0, s), m3)
    assert calls == {"Interval": 0, "clip_interval": 0, "decompose_window": 0}, calls


OVERLAP_DENS = (2, 3, 4, 6)


def _overlapping(rng, labels):
    """1 to 5 pieces that may overlap, ends in [0, 12] over 2, 3, 4 or 6, and a length s."""
    xi = []
    for _ in range(rng.randint(1, 5)):
        u = _q_over(rng, OVERLAP_DENS, 0, 11)
        v = min(u + _q_over(rng, OVERLAP_DENS, 0, 4), F(12))
        p, q = rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED))
        xi.append((Interval(u, v, p, -p if u == v else q), rng.choice(labels)))
    s = max(j.v for j, _ in xi) + _q_over(rng, OVERLAP_DENS, -1, 2)
    return xi, s if s > 0 else F(1)


def test_integer_trace_matches_fraction_axis(m3, z2):
    # 5,000 traces against the three-point derivation, its refinement
    # rounds and the bm_canon checks over the keyed scan_core: 250
    # relabelled admissible chains and 1,000 overlapping draws per carrier
    seen = dict.fromkeys(("ok", "split", "empty end", "discontinuity", "DecomposeError", "DomainError"), 0)
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("trace-" + pam.name)
        labels = [m for m in pam.elements if m != "0"]
        for n in range(1250):
            if n < 250:
                xi, s = rand_admissible(rng, 2)
                if pam is not m3 or n % 2:
                    rel = {m: rng.choice(labels) for m in "abc"}
                    xi = [(j, rel[m]) for j, m in xi]
            else:
                xi, s = _overlapping(rng, labels)
            fast = _trace_text(alpha_trace, xi, s, pam)
            assert fast == _trace_text(oracle_axis_trace, xi, s, pam), (xi, s, pam.name)
            if fast.startswith("moore"):
                seen["ok"] += 1
                seen["split"] += fast.count("breakpoint") > len(_initial_grid(xi, F(s)))
            elif "not the empty element" in fast:
                seen["empty end"] += 1
            elif "discontinuity" in fast:
                seen["discontinuity"] += 1
            else:
                seen[fast.split(":")[0]] += 1
    assert min(seen.values()) >= 10, seen

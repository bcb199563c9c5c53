"""``WindowIndex.read`` on a stored chain against the general read.

An index whose pieces, degenerate keys and zero labels left out, chain
stores their normal form once, and a read slices it.  The general read
clips the window and decomposes the clipped content with
``_decompose_keys``.  The two must agree on every window: the same items,
or the same exception type, text and failing window.
"""

import random
from fractions import Fraction as F
from math import lcm

import pamscan.labeled as labeled
import pamscan.scanning as scanning
from pamscan import CLOSED, OPEN, UNIT, DecomposeError, Interval, WindowIndex, alpha_trace, is_admissible
from pamscan.dsl import parse_config

from genutil import cyclic_pam, truncated_pam

READ = labeled._decompose_keys


def _general(windows, k, lo, hi, pam):
    return READ(windows.clip(k, lo, hi), k, lo, hi, pam)


def _outcome(f, *args):
    try:
        return f(*args)
    except DecomposeError as err:
        return type(err).__name__, str(err), err.window


def rand_chain(rng, pam):
    """1 to 9 pieces that chain, with degenerate points and zero labels among them.

    A piece touches the one before it (opposite parity, often the same
    label, so the two paste) or leaves a gap; it is a quarter to 3 long,
    so a piece with equal parities may fit inside a window.  A degenerate
    point or a zero-labelled piece may land anywhere, overlaps included.
    """
    labels = [m for m in pam.elements if m != UNIT]
    xi, x, q, m = [], F(rng.randint(-8, 8), 4), None, rng.choice(labels)
    for _ in range(rng.randint(1, 9)):
        roll = rng.random()
        if roll < 0.1:
            y, p = x - F(rng.randint(0, 8), 4), rng.choice((OPEN, CLOSED))
            xi.append((Interval(y, y, p, -p), rng.choice(labels)))
            continue
        if roll < 0.2:
            y = x - F(rng.randint(0, 8), 4)
            xi.append((Interval(y, y + F(rng.randint(1, 8), 4), rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED))), UNIT))
            continue
        if q is not None and rng.random() < 0.6:
            p = -q
            if rng.random() < 0.5:
                m = rng.choice(labels)
        else:
            x += F(rng.randint(1, 6), 4) if q is not None else 0
            p, m = rng.choice((OPEN, CLOSED)), rng.choice(labels)
        v = x + F(rng.randint(1, 12), 4)
        q = rng.choice((OPEN, CLOSED))
        xi.append((Interval(x, v, p, q), m))
        x = v
    rng.shuffle(xi)
    return xi


def rand_windows(rng, xi, n):
    """n windows (lo, hi) around the draw; ends on its endpoints or on a finer grid."""
    ends = [x for j, _ in xi for x in (j.u, j.v)]
    a, b = min(ends) - 1, max(ends) + 1
    out = []
    while len(out) < n:
        lo, hi = (
            rng.choice(ends) if rng.random() < 0.4 else a + F(rng.randint(0, int(12 * (b - a))), 12)
            for _ in range(2)
        )
        if lo < hi and hi - lo <= 5:
            out.append((lo, hi))
    return out


def test_chain_read_matches_the_general_read(m3, z2, monkeypatch):
    # 2,000 chains per carrier, 12 windows each, read on scales 1 to 3
    # times finer than the windows need: each chain read equals the
    # general read, items or error.  A read that succeeds normalizes
    # nothing; a failing one falls through to the general read, which
    # normalizes its clipped content once
    seen = dict.fromkeys(("pasted", "degenerate or zero", "reads", "cut pairs"), 0)
    calls = []
    normal_keys = labeled._normal_keys
    monkeypatch.setattr(labeled, "_normal_keys", lambda *args: calls.append(args) or normal_keys(*args))
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("chain-read-" + pam.name)
        failures = 0
        for _ in range(2000):
            xi = rand_chain(rng, pam)
            windows = WindowIndex(xi, pam)
            kept = [(key, m) for key, m in windows._keys if key[0] < key[1] and m != UNIT]
            assert windows._chain is not None, xi
            seen["pasted"] += len(windows._chain) < len(kept)
            seen["degenerate or zero"] += len(kept) < len(xi)
            for lo, hi in rand_windows(rng, xi, 12):
                k = lcm(windows.scale, lo.denominator, hi.denominator) * rng.choice((1, 2, 3))
                a, b = lo.numerator * (k // lo.denominator), hi.numerator * (k // hi.denominator)
                del calls[:]
                got = _outcome(windows.read, k, a, b, pam)
                normalized = len(calls)
                want = _outcome(_general, windows, k, a, b, pam)
                assert got == want, (xi, lo, hi)
                failed = isinstance(want, tuple)
                assert normalized == failed, (xi, lo, hi)
                seen["reads"] += 1
                seen["cut pairs"] += not failed and any(e[0] for e in want)
                failures += failed
        # M3, Z/5 and {0..6} fail on unsummable labels too, Z2 only on
        # pieces that are not elementary
        assert failures >= 1000, (pam.name, failures)
    assert min(seen["pasted"], seen["degenerate or zero"]) >= 4000 and seen["cut pairs"] >= 1000, seen
    assert seen["reads"] == 4 * 2000 * 12, seen


def test_overlapping_input_takes_the_general_path(m3):
    # the clip merges (1,2]:a and (1,2]:b, which takes the cut pair apart
    # (see ROADMAP); that presentation-dependent read is kept
    xi = parse_config("[-3,2]:a (1,2]:b (3,10):a", m3)
    windows = WindowIndex(xi, m3)
    assert windows._chain is None
    report = is_admissible(xi, F(3, 2), (-10, 20), m3)
    assert not report and report.window == (1, 4)
    assert report.reason.startswith("window (1, 4): no matching makes the label multiset summable")
    got = _outcome(windows.read, 2, 2, 8, m3)
    assert got == _outcome(_general, windows, 2, 2, 8, m3)
    assert got[2] == (1, 4)


def test_pinned_chain_reads(m3):
    # [0,1):a and [1,2):a paste into [0,2):a before any read; a point and a
    # zero label are left out, so the index still chains
    xi = parse_config("[0,1):a [1,2):a [1,4):0 (5/2,3):b", m3) + ((Interval(F(3, 2), F(3, 2), OPEN, CLOSED), "b"),)
    windows = WindowIndex(xi, m3)
    assert [(key, m) for key, m, _ in windows._chain] == [((0, 4, 1, -1), "a"), ((5, 6, -1, -1), "b")]
    # window (1/2, 3): the pasted piece is cut on the left, (5/2,3):b is
    # cut on the right, and a + b sums
    assert windows.read(2, 1, 6, m3) == [(0, (1, 4, -1, -1), "a", "left"), (0, (5, 6, -1, -1), "b", "right")]
    # a cut pair: (1/2,2):a and [3,7/2):a, open and closed at the cut
    pair = WindowIndex(parse_config("[0,2):a [3,4):a", m3), m3)
    assert pair.read(2, 1, 7, m3) == [(1, (1, 4, -1, -1), (6, 7, 1, -1), "a")]
    # co-parity inside: [1,2] is not elementary, worded by the general read
    bad = WindowIndex(parse_config("[1,2]:a", m3), m3)
    err = _outcome(bad.read, 1, 0, 3, m3)
    assert err == ("DecomposeError", "window (0, 3): piece Interval(u=Fraction(1, 1), v=Fraction(2, 1), p=1, q=1):a is not elementary", (0, 3))


def _slice_items(windows, k, lo, hi, read):
    """The keyed items that a ``_chain_reads`` answer (first, stop, paired) names.

    The chain pieces [first, stop) clipped to (lo, hi) over k, the first
    and the last joined into a cut pair when ``paired``, in sort order.
    """
    first, stop, paired = read
    f = k // windows.scale
    items, ends = [], []
    for (u, v, p, q), m, _ in windows._chain[first:stop]:
        u, v = u * f, v * f
        if u <= lo and v >= hi:
            items.append((0, (lo, hi, OPEN, OPEN), m, labeled.E1_WHOLE))
        elif u <= lo:
            ends.append(((lo, v, OPEN, q), m, labeled.E1_LEFT))
        elif v >= hi:
            ends.append(((u, hi, p, OPEN), m, labeled.E1_RIGHT))
        else:
            items.append((0, (u, v, p, q), m, labeled.E1_INTERIOR))
    if paired:
        (kl, m, _), (kr, _, _) = ends
        items.append((1, kl, kr, m))
    else:
        items += [(0, key, m, kind) for key, m, kind in ends]
    return sorted(items)


def test_chain_reads_match_the_general_read(m3, z2):
    # 1,000 chains per carrier, each read in one pass of ``_chain_reads``
    # at 24 increasing centres of one radius, on scales 1 to 3 times finer
    # than the centres need: the pass yields None exactly where the
    # general read fails, and elsewhere the slice, its cuts and its pair
    # are the general read's items
    seen = dict.fromkeys(("fails", "empty", "whole", "cut pairs", "unpaired cuts"), 0)
    for pam in (m3, z2, cyclic_pam(5), truncated_pam(6)):
        rng = random.Random("chain-reads-" + pam.name)
        for _ in range(1000):
            xi = rand_chain(rng, pam)
            windows = WindowIndex(xi, pam)
            wins = rand_windows(rng, xi, 12)
            e = (wins[0][1] - wins[0][0]) / 2
            centres = sorted({lo + e for lo, _ in wins} | {hi - e for _, hi in wins})
            k = lcm(windows.scale, e.denominator, *(t.denominator for t in centres)) * rng.choice((1, 2, 3))
            ts = [t.numerator * (k // t.denominator) for t in centres]
            ek = e.numerator * (k // e.denominator)
            reads = list(labeled._chain_reads(windows, k, ek, ts, pam))
            assert len(reads) == len(ts)
            for t, read in zip(ts, reads):
                lo, hi = t - ek, t + ek
                want = _outcome(_general, windows, k, lo, hi, pam)
                if read is None:
                    assert isinstance(want, tuple), (xi, e, t, k)
                    seen["fails"] += 1
                    continue
                assert want == _slice_items(windows, k, lo, hi, read), (xi, e, t, k)
                seen["empty"] += read[0] == read[1]
                seen["whole"] += any(e[0] == 0 and e[3] == labeled.E1_WHOLE for e in want)
                seen["cut pairs"] += read[2]
                seen["unpaired cuts"] += not read[2] and sum(e[0] == 0 and e[3] in ("left", "right") for e in want) == 2
    assert min(seen.values()) >= 500, seen


def test_one_chain_pass_per_trace_and_per_admissibility(m3, monkeypatch):
    # a chain trace decides its windows in one pass of ``_chain_reads`` and
    # lists no change points; ``is_admissible`` makes one pass too
    passes, changes = [], []
    chain_reads, change_points = labeled._chain_reads, labeled._change_points

    def counting_reads(*args):
        passes.append(args[3])
        return chain_reads(*args)

    monkeypatch.setattr(scanning, "_chain_reads", counting_reads)
    monkeypatch.setattr(labeled, "_chain_reads", counting_reads)
    monkeypatch.setattr(labeled, "_change_points", lambda *args: changes.append(args) or change_points(*args))
    xi = parse_config("[2,4):a [5,6):a (7,9]:b [19/2,11):a", m3)
    assert WindowIndex(xi, m3)._chain is not None
    alpha_trace(xi, 13, m3)
    assert len(passes) == 1 and changes == []
    del passes[:]
    assert is_admissible(xi, 1, (0, 13), m3)
    assert len(passes) == 1 and len(passes[0]) > 1

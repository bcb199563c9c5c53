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
from pamscan import CLOSED, OPEN, UNIT, DecomposeError, Interval, WindowIndex, is_admissible
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

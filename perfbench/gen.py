"""Seeded input generators for the benchmark.

Inputs are plain tuples so that they do not depend on pamscan: a piece is
``(u, v, p, q, label)`` with Fraction endpoints on an eighths grid and
parities +1 (closed) / -1 (open).  Every draw comes from a ``random.Random``
seeded with a string, so a given seed yields byte-identical inputs on every
run and under every PYTHONHASHSEED.
"""

from __future__ import annotations

import random
from fractions import Fraction

CLOSED, OPEN = 1, -1
E = Fraction(1, 8)
HALF_OPEN = ((OPEN, CLOSED), (CLOSED, OPEN))


def rng_for(*parts):
    """Independent stream for one (workload, seed, round, ...) tuple."""
    return random.Random(":".join(str(p) for p in parts))


def grid(rng, lo, hi):
    """Uniform eighth-grid rational in [lo, hi]."""
    return Fraction(rng.randint(int(Fraction(lo) * 8), int(Fraction(hi) * 8)), 8)


# --- M3 chains (the paper's headline carrier) -----------------------------

def _single(rng, x, label):
    p, q = rng.choice(HALF_OPEN)
    v = x + grid(rng, Fraction(1, 2), 3)
    return [(x, v, p, q, label)], v


def _co_parity(rng, x, label):
    p = rng.choice((OPEN, CLOSED))
    v = x + grid(rng, 2, 4)
    return [(x, v, p, p, label)], v


def _cut_pair(rng, x, label):
    # facing ends with complementary parities, closer than a window spans
    pi = rng.choice((OPEN, CLOSED))
    lv = x + grid(rng, 2, 3)
    ru = lv + grid(rng, E, 2 - E)
    rv = ru + grid(rng, 2, 3)
    left = (x, lv, rng.choice((OPEN, CLOSED)), pi, label)
    right = (ru, rv, -pi, rng.choice((OPEN, CLOSED)), label)
    return [left, right], rv


def _duo(rng, x, labels, crossing=False):
    m1, m2 = labels
    p, q = rng.choice(HALF_OPEN)
    v1 = x + grid(rng, Fraction(1, 2), 2)
    u2 = v1 + grid(rng, E, 2 - E)
    p2, q2 = rng.choice(HALF_OPEN)
    if crossing:
        # facing ends with opposite slopes, closer than one unit: their
        # tracks cross inside a segment, so the trace needs a refinement
        p, q = (CLOSED, OPEN) if rng.random() < 0.5 else (OPEN, CLOSED)
        p2, q2 = (-q, q)
        # the crossing at (v1 + u2) / 2 then misses every initial breakpoint
        v1 = x + grid(rng, 1, 2)
        u2 = v1 + grid(rng, E, Fraction(3, 4))
        v2 = u2 + grid(rng, Fraction(5, 4), 2)
    else:
        v2 = u2 + grid(rng, Fraction(1, 2), 2)
    return [(x, v1, p, q, m1), (u2, v2, p2, q2, m2)], v2


def chain(rng, k):
    """An admissible M3 configuration of exactly k clusters, support (0, s).

    The four cluster kinds are those of the test-suite generator (a
    half-open piece, a co-parity piece of length >= 2, a same-label cut
    pair, two nearby pieces with summable labels).  Each kind appears k/4
    times in seeded order, so every chain of a tier has 3k/2 pieces and
    tiers differ in size only.  The first two-piece cluster always has
    crossing tracks, so every trace takes one refinement round; without it
    whether a chain needs one is a coin flip that doubles its cost.
    Clusters sit more than a window apart, so the chain is 1-admissible by
    construction and already in normal form.
    """
    kinds = [i % 4 for i in range(k)]
    rng.shuffle(kinds)
    x = Fraction(1, 2) + E + grid(rng, 0, 1)
    pieces = []
    crossed = False
    for kind in kinds:
        if kind == 0:
            got, x = _single(rng, x, rng.choice("abc"))
        elif kind == 1:
            got, x = _co_parity(rng, x, rng.choice("abc"))
        elif kind == 2:
            got, x = _cut_pair(rng, x, rng.choice("abc"))
        else:
            got, x = _duo(rng, x, rng.choice((("a", "b"), ("b", "a"))), crossing=not crossed)
            crossed = True
        pieces.extend(got)
        x += 2 + grid(rng, 0, 1)
    s = pieces[-1][1] + Fraction(1, 2) + E + grid(rng, 0, 1)
    return tuple(sorted(pieces)), s


M3_PARTITIONS = {"c": (("a", "b"), ("b", "a"))}


def unpaste(rng, pieces, target):
    """Cut the pieces into ``target`` touching pieces, keeping the element.

    The cuts are spread evenly over the pieces (piece i gets its share of
    ``target``), so inputs of one tier cost about the same to normalize;
    each cut point w is drawn inside the piece and splits it into
    (u, w r) + (w -r, v) with one side of w closed.
    """
    out = []
    for i, (u, v, p, q, m) in enumerate(pieces):
        share = target // len(pieces) + (i < target % len(pieces))
        ws = sorted(rng.sample(range(1, 64 * share), share - 1))
        ends = [u] + [u + (v - u) * Fraction(w, 64 * share) for w in ws] + [v]
        left = p
        for a, b in zip(ends, ends[1:]):
            r = q if b == v else rng.choice((OPEN, CLOSED))
            out.append((a, b, left, r, m))
            left = -r
    return out


def rewrite(rng, pieces, labels, partitions, spots):
    """One presentation change that fixes the element (test-suite moves).

    Splits a label along a partition over the same interval, adds a
    degenerate point at a free position popped from ``spots``, or adds a
    zero-labeled piece.
    """
    out = list(pieces)
    kind = rng.choice(("degenerate", "zero", "split", "split"))
    splittable = [i for i, pc in enumerate(out) if partitions.get(pc[4])]
    if kind == "split" and splittable:
        u, v, p, q, m = out.pop(rng.choice(splittable))
        x, y = rng.choice(partitions[m])
        out.append((u, v, p, q, x))
        out.append((u, v, p, q, y))
    elif kind == "degenerate" and spots:
        w = spots.pop()
        p, q = rng.choice(HALF_OPEN)
        out.append((w, w, p, q, rng.choice(labels)))
    else:
        w = grid(rng, 1, 3)
        p, q = rng.choice(HALF_OPEN)
        out.append((w, w + 1, p, q, "0"))
    return out


def symmetric(rng):
    """A mirror-invariant 1-admissible M3 configuration over (-s, s).

    Optional zero-crossing piece plus up to two mirrored strands, with a
    jointly summable label multiset (the test-suite budgets).
    """
    budgets = (
        ("c", ()), ("a", ("b",)), ("b", ("a",)), ("a", ()),
        (None, ("a", "b")), (None, ("c",)),
    )
    mu, strands = rng.choice(budgets)
    pieces = []
    edge = Fraction(0)
    if mu is not None:
        r = grid(rng, E, Fraction(3, 2))
        q = rng.choice((OPEN, CLOSED))
        pieces.append((-r, r, -q, q, mu))
        edge = r
    for m in strands:
        cut = grid(rng, edge + E, edge + E + 1)
        v = cut + grid(rng, 2, 3)
        p, q = -rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED))
        pieces.append((cut, v, p, q, m))
        pieces.append((-v, -cut, -q, -p, m))
        edge = v
    s = max(edge + Fraction(1, 2) + E + grid(rng, 0, 1), Fraction(2))
    return tuple(sorted(pieces)), s


# --- dense-label carriers ---------------------------------------------------

def disjoint_window_pieces(rng, n, a, b):
    """n pairwise disjoint half-open pieces strictly inside (a, b).

    Pieces sit in n equal slots with a gap on each side, so no two touch
    and every piece is an interior elementary piece of the window.
    """
    slot = (b - a) / n
    out = []
    for i in range(n):
        lo = a + i * slot
        u = lo + slot * Fraction(rng.randint(1, 3), 16)
        v = lo + slot * Fraction(rng.randint(12, 15), 16)
        p, q = rng.choice(HALF_OPEN)
        out.append((u, v, p, q))
    return out

"""Seeded generators for the randomized suites.

Everything returns exact rationals on an eighths grid.  The admissible
generator is correct by construction: cluster contents are summable
window-locally, clusters sit farther apart than a window spans, and the
support leaves a margin beyond the thickening.  All generators are driven
by a caller-owned random.Random so failures replay from the seed.
``ConfigCarrier`` and ``small_tables`` are a shared oracle carrier and the
valid small carriers the randomized suites draw from.
"""

import functools
import itertools
from fractions import Fraction

from pamscan import (
    CLOSED,
    OPEN,
    UNIT,
    FinitePam,
    IncompatibleConfig,
    Interval,
    PamError,
    lc_sorted,
    merge_summable,
    mirror_config,
    normalize_config,
)

E = Fraction(1, 8)
HALF_OPEN = ((OPEN, CLOSED), (CLOSED, OPEN))


def cyclic_pam(n):
    """Z/n on the elements 0, g1, ..., g(n-1)."""

    def g(i):
        return "g%d" % i if i else UNIT

    return FinitePam(
        "Z%d" % n,
        [g(i) for i in range(n)],
        {(g(i), g(k)): g((i + k) % n) for i in range(1, n) for k in range(i, n)},
    )


def truncated_pam(n):
    """{0..n} under addition, defined while the total stays at most n."""
    return FinitePam(
        "T%d" % n,
        [str(i) for i in range(n + 1)],
        {
            (str(i), str(k)): str(i + k)
            for i in range(1, n + 1)
            for k in range(i, n + 1)
            if i + k <= n
        },
    )


class ConfigCarrier:
    """Reduced interval configurations under the merge partial sum.

    The oracle of the sweep ``in_T_labeled`` runs: ``in_T`` on this carrier
    and ``PamCarrier`` decides a labeled configuration by the cliques of its
    insummability graph.  A bare Interval is read as a one-piece
    configuration, and a degenerate piece reduces to ().
    """

    @staticmethod
    def _reduce(c):
        if isinstance(c, Interval):
            c = (c,)
        return normalize_config(c)

    def pair_sum(self, c1, c2):
        return merge_summable(self._reduce(c1), self._reduce(c2))

    def tuple_sum(self, cs):
        pieces = []
        for c in cs:
            pieces.extend(self._reduce(c))
        try:
            return normalize_config(pieces)
        except IncompatibleConfig:
            return None


@functools.cache
def small_tables():
    """Every valid carrier on the three nonzero elements a, b, c: 255 tables.

    The enumeration of ``test_pam_scan``: each unordered pair of nonzero
    elements sums to nothing, to 0 or to one of a, b, c.
    """
    ids = ("a", "b", "c")
    pairs = list(itertools.combinations_with_replacement(ids, 2))
    tables = []
    for values in itertools.product((None, UNIT) + ids, repeat=len(pairs)):
        try:
            tables.append(FinitePam("T", (UNIT,) + ids, {p: v for p, v in zip(pairs, values) if v is not None}))
        except PamError:
            pass
    return tuple(tables)


def odd_primes(n):
    """The first n odd primes: denominators whose lcm is their product."""
    out, k = [], 3
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 2
    return out


def rand_frac(rng, lo, hi):
    """Uniform eighth-grid rational in [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    return Fraction(rng.randint(int(lo * 8), int(hi * 8)), 8)


def _cluster_single(rng, x, label):
    p, q = rng.choice(HALF_OPEN)
    length = rand_frac(rng, Fraction(1, 2), 3)
    return [(Interval(x, x + length, p, q), label)], x + length


def _cluster_co_parity(rng, x, label):
    p = rng.choice((OPEN, CLOSED))
    length = rand_frac(rng, 2, 4)
    return [(Interval(x, x + length, p, p), label)], x + length


def _cluster_cut_pair(rng, x, label):
    # two strands of the same label whose facing ends have complementary
    # parities and sit closer than a window spans
    pi = rng.choice((OPEN, CLOSED))
    len1 = rand_frac(rng, 2, 3)
    len2 = rand_frac(rng, 2, 3)
    gap = rand_frac(rng, E, 2 - E)
    left = Interval(x, x + len1, rng.choice((OPEN, CLOSED)), pi)
    right = Interval(
        left.v + gap, left.v + gap + len2, -pi, rng.choice((OPEN, CLOSED))
    )
    return [(left, label), (right, label)], right.v


def _cluster_duo(rng, x, labels):
    m1, m2 = labels
    p, q = rng.choice(HALF_OPEN)
    len1 = rand_frac(rng, Fraction(1, 2), 2)
    first = Interval(x, x + len1, p, q)
    gap = rand_frac(rng, E, 2 - E)
    p2, q2 = rng.choice(HALF_OPEN)
    len2 = rand_frac(rng, Fraction(1, 2), 2)
    second = Interval(first.v + gap, first.v + gap + len2, p2, q2)
    return [(first, m1), (second, m2)], second.v


def rand_admissible(rng, max_clusters=3, clusters=None):
    """A 1-admissible configuration together with its support length.

    Support is (0, s).  Each cluster is one of: a half-open piece, a
    co-parity piece of length at least two, a same-label cut pair, or two
    nearby pieces with distinct summable labels.  There are ``clusters``
    of them, or a random number up to ``max_clusters``.
    """
    x = Fraction(1, 2) + E + rand_frac(rng, 0, 1)
    pieces = []
    for _ in range(clusters or rng.randint(1, max_clusters)):
        kind = rng.randrange(4)
        if kind == 0:
            got, x = _cluster_single(rng, x, rng.choice(("a", "b", "c")))
        elif kind == 1:
            got, x = _cluster_co_parity(rng, x, rng.choice(("a", "b", "c")))
        elif kind == 2:
            got, x = _cluster_cut_pair(rng, x, rng.choice(("a", "b", "c")))
        else:
            got, x = _cluster_duo(rng, x, rng.choice((("a", "b"), ("b", "a"))))
        pieces.extend(got)
        x += 2 + rand_frac(rng, 0, 1)
    s = pieces[-1][0].v + Fraction(1, 2) + E + rand_frac(rng, 0, 1)
    return lc_sorted(pieces), s


def rand_rewrite(rng, xi, pam):
    """One random presentation change that fixes the underlying element."""
    xi = list(xi)
    choices = ["degenerate", "zero"]
    if any(not j.is_degenerate and j.length >= Fraction(1, 4) for j, _ in xi):
        choices.append("unpaste")
    if any(pam.nonzero_partitions(m) for _, m in xi):
        choices.append("split")
    kind = rng.choice(choices)
    if kind == "unpaste":
        idx = rng.choice(
            [
                i
                for i, (j, _) in enumerate(xi)
                if not j.is_degenerate and j.length >= Fraction(1, 4)
            ]
        )
        j, m = xi.pop(idx)
        w = rand_frac(rng, j.u + E, j.v - E)
        r = rng.choice((OPEN, CLOSED))
        xi.append((Interval(j.u, w, j.p, r), m))
        xi.append((Interval(w, j.v, -r, j.q), m))
    elif kind == "split":
        idx = rng.choice(
            [i for i, (_, m) in enumerate(xi) if pam.nonzero_partitions(m)]
        )
        j, m = xi.pop(idx)
        x, y = rng.choice(pam.nonzero_partitions(m))
        xi.append((j, x))
        xi.append((j, y))
    elif kind == "degenerate":
        w = rand_frac(rng, 1, 3)
        p, q = rng.choice(HALF_OPEN)
        xi.append((Interval(w, w, p, q), rng.choice(pam.elements)))
    else:
        w = rand_frac(rng, 1, 3)
        p, q = rng.choice(HALF_OPEN)
        xi.append((Interval(w, w + 1, p, q), "0"))
    return lc_sorted(xi)


def rand_symmetric(rng, cover_safe=False):
    """A mirror-invariant 1-admissible configuration over (-s, s).

    Optional zero-crossing piece plus up to two strand doubles; the label
    multiset is chosen jointly summable so every window decomposes.  With
    cover_safe the crossing piece is thin (its value escapes 1/2) and all
    strands start beyond 1.
    """
    if cover_safe:
        mu_label = rng.choice(("a", "b", "c"))
        if mu_label == "c":
            strand_labels = ()
        else:
            partner = "b" if mu_label == "a" else "a"
            strand_labels = rng.choice(((), (partner,)))
    else:
        budgets = [
            ("c", ()), ("a", ("b",)), ("b", ("a",)), ("a", ()),
            (None, ("a", "b")), (None, ("c",)),
        ]
        mu_label, strand_labels = rng.choice(budgets)
    pieces = []
    edge = Fraction(0)
    if mu_label is not None:
        # a thin crossing piece keeps its value beyond 1/2
        r = E if cover_safe else rand_frac(rng, E, Fraction(3, 2))
        q = rng.choice((OPEN, CLOSED))
        pieces.append((Interval(-r, r, -q, q), mu_label))
        edge = r
    positive = []
    for m in strand_labels:
        lo = max(edge + E, Fraction(1)) if cover_safe else edge + E
        cut = rand_frac(rng, lo, lo + 1)
        length = rand_frac(rng, 2, 3)
        pi = rng.choice((OPEN, CLOSED))
        positive.append((Interval(cut, cut + length, -pi, rng.choice((OPEN, CLOSED))), m))
        edge = cut + length
    pieces.extend(positive)
    pieces.extend(mirror_config(positive))
    s = edge + Fraction(1, 2) + E + rand_frac(rng, 0, 1)
    if s < 2:
        s = Fraction(2)
    return lc_sorted(pieces), s


def rand_bm_pairs(rng, pam, allow_zero_coord=True):
    """Raw circle pairs with a jointly summable label multiset."""
    content = rng.choice([("a",), ("b",), ("c",), ("a", "b")])
    used = set()
    pairs = []
    for m in content:
        while True:
            t = Fraction(rng.randint(-7, 8), 8)
            if allow_zero_coord or t != 0:
                if t not in used:
                    break
        used.add(t)
        pairs.append((t, m))
    return pairs

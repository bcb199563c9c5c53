"""Tensor-style multiset calculus over a pair of partial sum carriers.

A carrier provides a partial pairwise sum, tuple sums, and (when finite or
enumerable) element and partition listings.  A multiset of pairs lies in the
tensor region when, for every sub-multiset, pairwise insummability of one
projection forces tuple summability of the other, in both directions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .pam import UNIT, DomainError, FinitePam, PamError
from .intervals import (
    IncompatibleConfig, Interval, _frac, interval_leq, merge_summable, normalize_config,
)

# Nodes a rewrite search (``labeled.config_eq``) may see, both sides
# together, before it answers UNKNOWN.
SEARCH_NODE_CAP = 20000


class EqVerdict(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


class PamCarrier:
    """A finite partial abelian monoid viewed as a sum carrier."""

    is_trivial = False

    def __init__(self, pam: FinitePam):
        self.pam = pam

    def zero(self):
        return UNIT

    def is_zero(self, x):
        return self.pam.is_zero(x)

    def pair_sum(self, x, y):
        return self.pam.pair_sum(x, y)

    def tuple_sum(self, xs):
        return self.pam.sum_tuple(xs)

    def partitions(self, m):
        return self.pam.partitions(m)

    def elements(self):
        return list(self.pam.elements)

    def sort_key(self, x):
        return self.pam.index(x)


class _BasedSet:
    """A based set with the trivial partial sum: only the base is a unit.

    A subclass sets ``base`` and gives ``point(x)``, which checks x, or
    normalizes it, and returns its canonical value.
    """

    is_trivial = True

    def zero(self):
        return self.base

    def is_zero(self, x):
        return self.point(x) == self.base

    def pair_sum(self, x, y):
        x, y = self.point(x), self.point(y)
        if x == self.base:
            return y
        if y == self.base:
            return x
        return None

    def tuple_sum(self, xs):
        nontrivial = [x for x in map(self.point, xs) if x != self.base]
        if len(nontrivial) > 1:
            return None
        return nontrivial[0] if nontrivial else self.base

    def partitions(self, m):
        m = self.point(m)
        if m == self.base:
            return [(self.base, self.base)]
        return [(self.base, m), (m, self.base)]


class TrivialCarrier(_BasedSet):
    """A finite based set with the trivial partial sum."""

    def __init__(self, points, base="0"):
        self.points = tuple(points)
        self.base = base
        if base not in self.points:
            raise PamError("base %r missing from carrier points" % (base,))

    def point(self, x):
        if x not in self.points:
            raise DomainError("unknown point %r" % (x,))
        return x

    def elements(self):
        return list(self.points)

    def sort_key(self, x):
        return self.points.index(x)


BASEPOINT = Fraction(1)


def norm_circle(t):
    """Normalize a rational to the circle's fundamental domain (-1, 1]."""
    t = _frac(t)
    if -t.denominator < t.numerator <= t.denominator:
        return t
    r = t % 2
    if r > 1:
        r -= 2
    return r


class CircleCarrier(_BasedSet):
    """The circle of radius one as a based set; basepoint 1 (= -1)."""

    base = BASEPOINT

    def point(self, t):
        return norm_circle(t)

    sort_key = point

    def elements(self):
        return None


class ConfigCarrier:
    """Reduced interval configurations under the merge partial sum."""

    is_trivial = False

    def zero(self):
        return ()

    def is_zero(self, c):
        return len(self._reduce(c)) == 0

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

    def partitions(self, c):
        return None

    def elements(self):
        return None

    def sort_key(self, c):
        return tuple(j.sort_key() for j in self._reduce(c))


def _insummable_masks(carrier, xs):
    """Bitmask per index: which partners are insummable with it.

    The masks a test of every pair gives; ``in_T`` says why each way of
    building them is exact.
    """
    if len(xs) < 2:
        return [0] * len(xs)
    if isinstance(carrier, ConfigCarrier):
        return _overlap_masks([carrier._reduce(c) for c in xs])
    return _twin_masks(carrier, xs)


def _overlap_masks(reduced):
    """Insummability masks of reduced configurations, by a sweep over hulls.

    Two configurations whose hull closures are disjoint chain, so only the
    pairs still open when a hull starts are tested.  A degenerate piece
    reduces to () and sums with everything.
    """
    masks = [0] * len(reduced)
    open_ends = []
    open_now = {}
    for lo, i in sorted((c[0].u, i) for i, c in enumerate(reduced) if c):
        while open_ends and open_ends[0][0] < lo:
            del open_now[heappop(open_ends)[1]]
        c = reduced[i]
        for k, d in open_now.items():
            if len(c) == len(d) == 1:
                clash = not (interval_leq(c[0], d[0]) or interval_leq(d[0], c[0]))
            else:
                clash = merge_summable(c, d) is None
            if clash:
                masks[i] |= 1 << k
                masks[k] |= 1 << i
        open_now[i] = c
        heappush(open_ends, (c[-1].v, i))
    return masks


def _twin_masks(carrier, xs):
    """Insummability masks by value: one ``pair_sum`` per pair of values.

    A value is summed with itself only when it occurs twice.
    """
    groups = {}
    for i, x in enumerate(xs):
        groups[x] = groups.get(x, 0) | 1 << i
    values = list(groups)
    partners = dict.fromkeys(values, 0)
    for a, x in enumerate(values):
        if groups[x] & (groups[x] - 1) and carrier.pair_sum(x, x) is None:
            partners[x] |= groups[x]
        for y in values[a + 1:]:
            if carrier.pair_sum(x, y) is None:
                partners[x] |= groups[y]
                partners[y] |= groups[x]
    return [partners[x] & ~(1 << i) for i, x in enumerate(xs)]


def in_T(c1, c2, pairs, witness=False):
    """Tensor-region membership for a multiset of pairs.

    For every sub-multiset: if the first coordinates are pairwise insummable
    the second coordinates must be tuple-summable, and symmetrically.  Such
    a sub-multiset is a clique of the insummability graph.  Summability in
    every carrier here passes to parts (a part of a summable tuple sums), so
    some clique fails exactly when some maximal clique fails, and only the
    maximal cliques are summed.  The witness is (side, indices): an
    inclusion-minimal failing clique inside the first failing maximal one.

    The graph is the one a test of every pair gives, built in near-linear
    time when few coordinates collide.  Two reduced configurations whose
    hull closures are disjoint chain, so the sweep over hulls tests only
    pairs whose closures meet.  A label, circle or trivial sum depends only
    on the two values, so equal coordinates are twins and one sum per pair
    of values decides every edge between them.  The pivot scan stops at the
    first vertex no later vertex can beat, which is the vertex ``max``
    returns, so the cliques and the witness come out in the same order.
    """
    pairs = list(pairs)
    for k, side, ca, cb in ((0, "first", c1, c2), (1, "second", c2, c1)):
        others = [p[1 - k] for p in pairs]

        def sums(indices):
            return cb.tuple_sum([others[i] for i in indices])

        for clique in _maximal_cliques(_insummable_masks(ca, [p[k] for p in pairs])):
            indices = list(_bits(clique))
            if len(indices) >= 2 and sums(indices) is None:
                bad = (side, _minimal_unsummable(sums, indices))
                return (False, bad) if witness else False
    return (True, None) if witness else True


def _bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(masks):
    """Every maximal clique of the graph with adjacency bitmasks ``masks``.

    Bron-Kerbosch with pivoting (Tomita, Tanaka and Takahashi 2006), on a
    stack so a large clique cannot exhaust the recursion limit.  A node
    (r, p, x) is a clique r, the vertices p that may extend it and those x
    that extend it but were branched on already.  Yields bitmasks.
    """
    stack = [(0, (1 << len(masks)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        pivot = _pivot(masks, p, x)
        for v in _bits(p & ~masks[pivot]):
            stack.append((r | 1 << v, p & masks[v], x & masks[v]))
            p &= ~(1 << v)
            x |= 1 << v


def _pivot(masks, p, x):
    """The vertex of ``p | x`` with the most neighbours in ``p``, lowest first.

    This is the vertex ``max`` picks, found without scanning past it when
    no later vertex can beat it: a vertex of ``p`` has at most |p| - 1
    neighbours in ``p``, a vertex of ``x`` at most |p|, and a tie keeps the
    earlier vertex.
    """
    size = p.bit_count()
    best = -1
    for u in _bits(p | x):
        d = (masks[u] & p).bit_count()
        if d > best:
            best, pivot = d, u
        if best == size or (best == size - 1 and not x >> (u + 1)):
            break
    return pivot


def _canon_pairs(c1, c2, pairs):
    return tuple(sorted(pairs, key=lambda p: (c1.sort_key(p[0]), c2.sort_key(p[1]))))


def _trivial_canon(c1, c2, pairs):
    """Exact canonical form when either carrier is trivial.

    Group by the trivial-side coordinate, sum the other side within each
    group (summability is forced by tensor membership), then drop pairs with
    a zero on either side.
    """
    if c1.is_trivial:
        key_side, sum_side = 0, 1
        kc, sc = c1, c2
    else:
        key_side, sum_side = 1, 0
        kc, sc = c2, c1
    groups = {}
    for p in pairs:
        k = kc.point(p[key_side])
        if k != kc.base:
            groups.setdefault(k, []).append(p[sum_side])
    out = []
    for k, vals in groups.items():
        total = sc.tuple_sum(vals)
        if total is None:
            raise DomainError(
                "not in the tensor region: coordinate %r carries unsummable labels %r"
                % (k, vals)
            )
        if sc.is_zero(total):
            continue
        pair = (k, total) if key_side == 0 else (total, k)
        out.append(pair)
    return _canon_pairs(c1, c2, out)


def _bidirectional_search(start_a, start_b, neighbors, depth):
    """Bounded bidirectional walk between two nodes.

    ``neighbors(node)`` returns a set of nodes.  Each round grows the side
    that has seen fewer nodes.  Returns EQUAL when the two reachability sets
    meet, DISTINCT when both are exhausted first, and UNKNOWN after
    ``depth`` rounds or once more than ``SEARCH_NODE_CAP`` nodes have been
    seen.
    """
    seen_a, seen_b = {start_a}, {start_b}
    frontier_a, frontier_b = {start_a}, {start_b}
    if seen_a & seen_b:
        return EqVerdict.EQUAL
    for _ in range(depth):
        if not frontier_a and not frontier_b:
            return EqVerdict.DISTINCT
        if frontier_a and (not frontier_b or len(seen_a) <= len(seen_b)):
            grow, seen = frontier_a, seen_a
        else:
            grow, seen = frontier_b, seen_b
        new = set()
        for node in grow:
            new |= neighbors(node)
        new -= seen
        seen |= new
        if grow is frontier_a:
            frontier_a = new
        else:
            frontier_b = new
        if seen_a & seen_b:
            return EqVerdict.EQUAL
        if len(seen_a) + len(seen_b) > SEARCH_NODE_CAP:
            return EqVerdict.UNKNOWN
    if not frontier_a and not frontier_b:
        return EqVerdict.DISTINCT
    return EqVerdict.UNKNOWN


@dataclass(frozen=True)
class BMElement:
    """Canonical point of the circle tensored with a pam.

    ``m0`` is the optional label at circle coordinate 0; ``points`` are
    (coordinate, label) pairs with coordinates strictly increasing in
    (-1, 1), none zero, and no zero labels.
    """

    m0: object
    points: tuple

    def __post_init__(self):
        pts = tuple((Fraction(t), m) for t, m in self.points)
        object.__setattr__(self, "points", pts)
        last = None
        for t, m in pts:
            if not (-1 < t < 1) or t == 0:
                raise ValueError("coordinate %s outside the punctured domain" % t)
            if last is not None and t <= last:
                raise ValueError("coordinates must be strictly increasing")
            if m == UNIT:
                raise ValueError("zero label at coordinate %s" % t)
            last = t
        if self.m0 == UNIT:
            raise ValueError("use m0=None for an absent zero-coordinate label")

    @property
    def is_empty(self):
        return self.m0 is None and not self.points

    @property
    def level(self):
        """Number of points, the zero-coordinate one included."""
        return (0 if self.m0 is None else 1) + len(self.points)

    def to_pairs(self):
        out = []
        if self.m0 is not None:
            out.append((Fraction(0), self.m0))
        out.extend(self.points)
        return out


BM_EMPTY = BMElement(None, ())


def bm_canon(pam, pairs):
    """Canonical form of a circle/label pair multiset.

    Requires the labels off the basepoint to be jointly summable (raising
    DomainError with a minimal witnessing subset otherwise), then takes
    ``_trivial_canon`` over the circle and the pam: basepoint coordinates
    drop, and coincident coordinates merge by summing unless the sum is 0.
    """
    pairs = list(pairs)
    labels = []
    for t, m in pairs:
        t = norm_circle(t)
        pam.check_element(m)
        if t != BASEPOINT and m != UNIT:
            labels.append(m)
    if pam.sum_tuple(labels) is None:
        raise DomainError(
            "not in the tensor region: labels %r are not jointly summable"
            % (_minimal_unsummable(pam.sum_tuple, labels),)
        )
    canon = _trivial_canon(CircleCarrier(), PamCarrier(pam), pairs)
    m0 = next((m for t, m in canon if t == 0), None)
    return BMElement(m0, tuple((t, m) for t, m in canon if t != 0))


def _minimal_unsummable(sums, items):
    """An inclusion-minimal sub-list of ``items`` on which ``sums`` is None.

    ``sums(items)`` must be None, and ``sums`` must pass summability to
    parts.  Walks the items from the end and drops each one whose removal
    leaves the rest unsummable, in O(n^2) sums.  Every proper sub-list of
    the witness sums: each kept item was kept because the witness at that
    step summed without it, and a part of a summable family sums.
    """
    witness = list(items)
    for i in reversed(range(len(witness))):
        rest = witness[:i] + witness[i + 1:]
        if sums(rest) is None:
            witness = rest
    return witness

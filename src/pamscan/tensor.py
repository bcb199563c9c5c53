"""Tensor regions over a pair of partial sum carriers, and circle sums.

A carrier provides a partial pairwise sum and tuple sums.  A multiset of
pairs lies in the tensor region when, for every sub-multiset, pairwise
insummability of one projection forces tuple summability of the other, in
both directions; ``in_T`` decides it, with a minimal witness.  ``bm_canon``
gives the canonical form of a circle/label pair multiset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .pam import UNIT, DomainError, FinitePam, PamError
from .intervals import _frac

# Nodes a rewrite search (``labeled.config_eq``) may see, both sides
# together, before it answers UNKNOWN.
SEARCH_NODE_CAP = 20000


class EqVerdict(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


class PamCarrier:
    """A finite partial abelian monoid viewed as a sum carrier."""

    def __init__(self, pam: FinitePam):
        self.pam = pam

    def pair_sum(self, x, y):
        return self.pam.pair_sum(x, y)

    def tuple_sum(self, xs):
        return self.pam.sum_tuple(xs)


class _BasedSet:
    """A based set with the trivial partial sum: only the base is a unit.

    A subclass sets ``base`` and gives ``point(x)``, which checks x, or
    normalizes it, and returns its canonical value; both sums read them.
    """

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


def _insummable_masks(carrier, xs):
    """Bitmask per index: which partners are insummable with it.

    The masks a test of every pair gives, made by value: one ``pair_sum``
    per pair of values, and a value is summed with itself only when it
    occurs twice.  ``in_T`` says why that is exact.
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

    The graph is the one a test of every pair gives.  A label, circle or
    trivial sum depends only on the two values, so equal coordinates are
    twins and one sum per pair of values decides every edge between them.
    The pivot scan stops at the first vertex no later vertex can beat,
    which is the vertex ``max`` returns, so the cliques and the witness
    come out in the same order.  Labeled interval configurations are
    decided by ``in_T_labeled`` instead, in one sweep over their endpoints.
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

    @classmethod
    def _canonical(cls, m0, points):
        """A BMElement from parts already in the checked form, unchecked.

        ``points`` must hold Fraction coordinates, strictly increasing in
        (-1, 1) and none zero, with nonzero labels, and ``m0`` must be None
        or nonzero; ``bm_canon`` builds them so.
        """
        z = object.__new__(cls)
        object.__setattr__(z, "m0", m0)
        object.__setattr__(z, "points", points)
        return z

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


def bm_canon(pam, pairs):
    """Canonical form of a circle/label pair multiset.

    Requires the labels off the basepoint to be jointly summable (raising
    DomainError with a minimal witnessing subset otherwise).  Basepoint
    coordinates and zero labels drop, and the labels at each coordinate
    sum, which cannot fail since a part of a summable tuple sums; a zero
    total drops too.  The label at coordinate 0 becomes ``m0``.  The
    result skips BMElement's checks, which it meets by construction:
    ``norm_circle`` gives Fractions in (-1, 1], the basepoint 1 drops, the
    coordinates are distinct keys emitted in order, and zero totals drop.
    """
    labels = []
    groups = {}
    for t, m in pairs:
        t = norm_circle(t)
        pam.check_element(m)
        if t != BASEPOINT and m != UNIT:
            labels.append(m)
            groups.setdefault(t, []).append(m)
    _require_joint_sum(pam, labels)
    m0, points = None, []
    for t in sorted(groups):
        total = pam.sum_tuple(groups[t])
        if total == UNIT:
            continue
        if t == 0:
            m0 = total
        else:
            points.append((t, total))
    return BMElement._canonical(m0, tuple(points))


def _require_joint_sum(pam, labels):
    """Raise DomainError, naming a minimal witness, unless ``labels`` sum jointly."""
    if pam.sum_tuple(labels) is None:
        raise DomainError(
            "not in the tensor region: labels %r are not jointly summable"
            % (_minimal_unsummable(pam.sum_tuple, labels),)
        )


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

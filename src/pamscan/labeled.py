"""Labeled interval configurations: normal forms, windows, admissibility.

A labeled configuration is a multiset of (interval, label) pairs with labels
in a finite partial abelian monoid.  Tensor membership ties the two partial
sums together: wherever intervals refuse to merge, their labels must sum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate, count
from math import gcd, lcm

from .pam import UNIT, DomainError
from .intervals import CLOSED, OPEN, Interval, _frac, _positive, clip_interval, is_compatible
from .tensor import ConfigCarrier, EqVerdict, PamCarrier, _bidirectional_search, in_T

_CONFIGS = ConfigCarrier()


class DecomposeError(DomainError):
    """A window's content admits no elementary decomposition.

    ``window`` is the failing window (lo, hi) as Fractions, when known.
    """

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


def lc_sorted(pairs):
    """Canonical ordering of a labeled configuration: interval, then label."""
    return tuple(sorted(pairs, key=lambda jm: (jm[0].sort_key(), jm[1])))


def in_T_labeled(xi, pam, witness=False):
    """Tensor membership of a labeled configuration.

    A compatible interval multiset short-circuits to True: all of its
    sub-multisets are compatible, so neither direction of the tensor
    condition has anything to force.  A witness is on the "first" side:
    a failing clique of pairwise insummable labels has two overlapping
    pieces, and those fail first on the interval side.
    """
    xi = list(xi)
    for _, m in xi:
        pam.check_element(m)
    if is_compatible([j for j, _ in xi]):
        return (True, None) if witness else True
    pairs = [((j,), m) for j, m in xi]
    return in_T(_CONFIGS, PamCarrier(pam), pairs, witness=witness)


def _endpoint_keys(pieces):
    """The common scale S of ``pieces`` and each piece under its integer key.

    S is the lcm of every endpoint denominator, so each endpoint x is the
    integer x.numerator * (S // x.denominator) over S.  Scaling by S > 0
    keeps order and equality, so the key (u*S, v*S, p, q) sorts, groups and
    compares exactly as ``Interval.sort_key`` does, on integers alone.
    Returns S and a list of (key, label, interval); sorted, that list is in
    ``lc_sorted`` order, and entries that tie on key and label are equal.
    """
    scale = lcm(*{x.denominator for j, _ in pieces for x in (j.u, j.v)})
    return scale, _keys_over(pieces, scale)


def _keys_over(pieces, scale):
    """(key, label, interval) for each piece, endpoints as integers over ``scale``."""
    return [((_num(j.u, scale), _num(j.v, scale), j.p, j.q), m, j) for j, m in pieces]


def _num(x, scale):
    """The rational x as an integer over ``scale``, which its denominator divides."""
    return x.numerator * (scale // x.denominator)


def _interval(key, scale):
    """The Interval whose integer key over ``scale`` is ``key``."""
    u, v, p, q = key
    return Interval(Fraction(u, scale), Fraction(v, scale), p, q)


def labeled_normalize(xi, pam):
    """Deterministic normal form of a labeled configuration.

    The moves are applied one at a time, always the leftmost applicable one
    in ``lc_sorted`` order: drop zero labels, drop degenerate intervals,
    merge two identical intervals by summing their labels (the two of
    lowest element index first), and paste a touching equal-label pair with
    complementary parities, the lowest piece that has a partner onto its
    lowest partner.  A pasted piece that coincides with another is merged
    at once.  A failing label merge means the input was outside the tensor
    region and raises DomainError naming the interval and the two labels.

    The moves are replayed in that order through an index of left ends, so
    the cost is O(n log n) for n pieces rather than a re-sort and rescan
    per move; pieces are sorted, grouped and matched on the integer keys of
    ``_endpoint_keys``, and only a piece that a paste made is built as an
    Interval, once, at the end.  A run of touching pieces pastes in one
    walk: a paste's result that sorts below every queued piece would be
    the next one popped, and its left end, the popped piece's, has nothing
    waiting under it, so it is pasted again at once instead of being
    queued (``_paste`` gives the proof).  The result is canonical only
    where the moves converge to one answer: a configuration with two
    irreducible presentations (such as [0,1):g1 [1/2,1):g1 [1,2):g1 over
    Z/5, where either g1 piece ending at 1 may take the paste) gets the
    one this order reaches.
    """
    xi = tuple(xi)
    for _, m in xi:
        pam.check_element(m)
    scale, keyed = _endpoint_keys(xi)
    keyed.sort()
    return tuple(
        (j or _interval(key, scale), m) for key, m, j in _normal_keys(keyed, pam, scale)
    )


def _normal_keys(keyed, pam, scale):
    """The normal form of sorted (key, label, interval) triples over ``scale``.

    Returns such triples in key order, one per key; a piece a paste made
    carries no interval.  Labels must be checked already.  The interval is
    read only to pass it on, and an error rebuilds the one it names from
    its key, so callers on the scan path pass None for it.

    One pass over the sorted triples drops degenerate keys and zero
    labels; only where keys coincide does it collect the run's labels and
    merge them, keeping the first triple's interval.
    """
    items = []
    i, n = 0, len(keyed)
    while i < n:
        key, m, j = keyed[i]
        i += 1
        if i < n and keyed[i][0] == key:
            run = i - 1
            while i < n and keyed[i][0] == key:
                i += 1
            if key[0] == key[1]:
                continue
            m = _merge_labels(key, scale, [x for _, x, _ in keyed[run:i] if x != UNIT], pam)
            if m is None:
                continue
        elif key[0] == key[1] or m == UNIT:
            continue
        items.append((key, m, j))
    if len(items) < 2 or not _some_paste(items):
        return items
    return _paste(items, pam, scale)


def _some_paste(items):
    """True when some piece of keyed ``items`` pastes onto another."""
    lefts = {(u, p, m) for (u, _, p, _), m, _ in items}
    return any((v, -q, m) in lefts for (_, v, _, q), m, _ in items)


def _coincident_sum(key, scale, m1, m2, pam):
    """Merge two labels on the interval keyed ``key``, lower element index first."""
    s = pam.pair_sum(m1, m2)
    if s is None:
        raise DomainError(
            "not in the tensor region: coincident interval %r carries "
            "unsummable labels (%s, %s)" % (_interval(key, scale), m1, m2)
        )
    return s


def _merge_labels(key, scale, labels, pam):
    """Sum the labels on one interval, two of lowest index at a time.

    ``labels`` holds no 0.  Returns None when no label is left.
    """
    if len(labels) < 2:
        return labels[0] if labels else None
    heap = sorted((pam.index(m), m) for m in labels)
    while len(heap) > 1:
        s = _coincident_sum(key, scale, heappop(heap)[1], heappop(heap)[1], pam)
        if s != UNIT:
            heappush(heap, (pam.index(s), s))
    return heap[0][1] if heap else None


class _Piece:
    """A piece in the paste index; dead once pasted or merged away."""

    __slots__ = ("j", "m", "key", "live")

    def __init__(self, j, m, key):
        self.j, self.m, self.key, self.live = j, m, key, True


def _prune(heap):
    """Pop dead pieces off the top of a heap of (..., piece) entries."""
    while heap and not heap[0][-1].live:
        heappop(heap)
    return heap


def _paste(items, pam, scale):
    """Paste the distinct, labeled ``items`` to a fixpoint.

    ``items`` holds (key, label, interval) in key order, keyed over
    ``scale``.  Pastes create no endpoint, so those integers cover every
    piece that appears; a key sorts as its interval does and names the
    piece in ``live``.  A pasted piece is a key and a label only, and
    leaves with no interval.  Pieces leave ``todo`` in key order.  One
    with no live partner waits under the left end a partner would have and
    is queued again when a piece with that left end is added.  Only a merge
    adds a new left end, by putting a new label on it, and that is the one
    move that reaches behind the cursor.  Dead pieces are skipped when they
    surface.  Sorted ``items`` are already a heap, both as ``todo`` and
    under each left end, so they are loaded by appending.

    A popped piece that pastes is walked: the paste's result is pasted
    again at once, with no ``_Piece`` and no round trip through ``todo``,
    for as long as it has a live partner, coincides with no live piece
    and sorts below the top live entry of ``todo``.  The walk makes the
    moves the queue would, in the same order.  Queued, the result would
    be the next piece popped, as it sorts below every live entry; it
    needs no ``lefts`` or ``live`` entry meanwhile, as nothing else moves
    until the walk stops.  And queuing it would release no waiting piece,
    as its left end is the popped piece's, which stayed live from its own
    queuing to its pop, so nothing began to wait under that end since.
    The walk stops at a coincident merge, at a result with no live
    partner, and at a result that a queued piece sorts below; the result,
    or the merged piece, is then queued through ``add``.
    """
    order = count()
    live = {}  # key -> piece
    lefts = {}  # (u, p, label) -> heap of (v, q, n, piece)
    waiting = {}  # (u, p, label) -> pieces that would paste onto such a piece
    todo = []

    def add(j, m, key):
        piece = live[key] = _Piece(j, m, key)
        left = (key[0], key[2], m)
        heappush(_prune(lefts.setdefault(left, [])), (key[1], key[3], next(order), piece))
        for c in waiting.pop(left, ()):
            if c.live:
                heappush(todo, (c.key, next(order), c))
        heappush(todo, (key, next(order), piece))

    for key, m, j in items:
        piece = live[key] = _Piece(j, m, key)
        n = next(order)
        lefts.setdefault((key[0], key[2], m), []).append((key[1], key[3], n, piece))
        todo.append((key, n, piece))
    while todo:
        a = heappop(todo)[-1]
        if not a.live:
            continue
        (u, v, p, q), m = a.key, a.m
        right = (v, -q, m)
        partners = _prune(lefts.get(right, []))
        if not partners:
            waiting.setdefault(right, []).append(a)
            continue
        a.live = False
        del live[a.key]
        while True:
            b = heappop(partners)[-1]
            if not partners:
                del lefts[right]
            b.live = False
            del live[b.key]
            _, v, _, q = b.key
            key = (u, v, p, q)
            x = live.pop(key, None)
            if x is not None:
                x.live = False
                s = _coincident_sum(key, scale, *sorted((m, x.m), key=pam.index), pam)
                if s != UNIT:
                    add(x.j, s, key)
                break
            right = (v, -q, m)
            partners = _prune(lefts.get(right, []))
            if not partners or _prune(todo) and todo[0][0] < key:
                add(None, m, key)
                break
    return [(key, live[key].m, live[key].j) for key in sorted(live)]


def config_eq(x1, x2, pam, method="nf", depth=6):
    """Equality in the labeled configuration space.

    ``nf`` compares normal forms: EQUAL is always right, but DISTINCT is
    not exact over every carrier, where the moves need not converge (see
    ``labeled_normalize``).  ``search`` runs a bounded bidirectional walk
    over one-step rewrites and answers UNKNOWN once it is out of bounds.

    The search runs on integer keys.  S is the lcm of the endpoint
    denominators of x1 and x2, whose endpoints are the extra cuts.  A node
    is (e, items): the pieces as sorted ((u, v, p, q), label) keys over
    S * 2**e, with e the fewest halvings its endpoints need.  An odd
    midpoint cut doubles a node, and a paste or drop that removes its last
    odd endpoint halves it back, so equal configurations give equal nodes
    and the search sees the nodes the ``lc_sorted`` presentation would.

    Exhausting both sides proves DISTINCT only when both starts are in the
    tensor region T.  The moves out of a start outside T are filtered to
    those that land in T, so from such a start the search answers UNKNOWN
    instead; an EQUAL is a chain of moves and stands.
    """
    if method == "nf":
        return (
            EqVerdict.EQUAL
            if labeled_normalize(x1, pam) == labeled_normalize(x2, pam)
            else EqVerdict.DISTINCT
        )
    if method != "search":
        raise ValueError("unknown method %r" % method)
    x1, x2 = tuple(x1), tuple(x2)
    scale, keyed = _endpoint_keys(x1 + x2)
    cuts = sorted({x for key, _, _ in keyed for x in key[:2]})
    n = len(x1)
    starts = [(0, tuple(sorted((key, m) for key, m, _ in part))) for part in (keyed[:n], keyed[n:])]
    verdict = _bidirectional_search(*starts, lambda node: _rewrite_keys(node, pam, cuts, scale), depth)
    # both starts were expanded, so their labels are known
    if verdict is EqVerdict.DISTINCT and not (in_T_labeled(x1, pam) and in_T_labeled(x2, pam)):
        return EqVerdict.UNKNOWN
    return verdict


def labeled_rewrite_neighbors(xi, pam, extra_cuts=()):
    """One-step rewrites of a labeled configuration, as ``lc_sorted`` tuples.

    Pastes and unpastes (cut points drawn from endpoints, piece midpoints and
    ``extra_cuts``), merges and splits of labels over coincident intervals,
    and drops of zero labels or degenerate pieces.  The moves are made on
    integer keys by ``_rewrite_keys``, the generator ``config_eq`` searches
    with, over the lcm of every endpoint and cut denominator.

    Every move maps the tensor region T into T, so an input in T admits
    each candidate unchecked, and only an input outside T has its
    candidates checked one by one.  Two pieces conflict when neither
    interval precedes the other; a degenerate piece reduces to () and
    conflicts with nothing.  A configuration is in T when the labels of
    each clique of conflicting pieces sum, and two pieces with insummable
    labels never conflict.  Move by move:

    - a drop: T is hereditary, as every clique of a sub-multiset is a
      clique of the whole;
    - an unpaste of j into j1, j2: the two parts are in order, a piece
      that conflicts with a part conflicts with j, and a piece in order
      with j is in order with both parts.  So a clique through one part
      is a clique through j with the same labels, and a piece whose
      label is insummable with m stays in order with the parts;
    - a split of m into a + b over j: a clique through both (j, a) and
      (j, b) sums as the clique through (j, m) does, by associativity,
      and one through one part sums because a part of a summable tuple
      sums.  A label x insummable with a is insummable with a + b = m,
      so the label side carries over from (j, m);
    - a merge of (j, m1), (j, m2) into (j, m1 + m2): a clique through the
      merged piece is a clique through both parents with the same sum.
      If a piece k whose label is insummable with m1 + m2 conflicted
      with j, then {k, (j, m1), (j, m2)} would be a clique in the parent
      whose labels do not sum;
    - a paste of j1, j2 into j: a nondegenerate piece that conflicts with j
      conflicts with j1 or with j2.  If k1 conflicted only with j1 and
      k2 only with j2, then k1 ends where j1 ends at the latest and k2
      starts where j2 starts at the earliest, and j1.q != j2.p puts k1
      before k2.  So a clique through j is a clique through j1 or through
      j2.  A piece in order with both j1 and j2 is in order with j, or is
      a degenerate point at the cut.  A degenerate j1 or j2 makes the
      paste the drop of that piece.
    """
    items = list(xi)
    # The keyed check reads the labels in key order; reading them here in
    # input order, items[0] last, raises on the unknown label that the
    # first per-candidate check would.
    for _, m in items[1:] + items[:1]:
        pam.check_element(m)
    cuts = [_frac(w) for w in extra_cuts]
    scale = lcm(*{x.denominator for j, _ in items for x in (j.u, j.v)}, *{w.denominator for w in cuts})
    node = (0, tuple(sorted((key, m) for key, m, _ in _keys_over(items, scale))))
    out = _rewrite_keys(node, pam, sorted({_num(w, scale) for w in cuts}), scale)
    return {tuple((_interval(key, scale << e), m) for key, m in cand) for e, cand in out}


def _rewrite_keys(node, pam, cuts, scale):
    """The neighbors of the search node ``node`` over ``scale``, as a set of nodes.

    ``node`` is (e, items), sorted ((u, v, p, q), label) keys over
    scale * 2**e with e canonical (see ``config_eq``), and ``cuts`` are
    sorted integers over ``scale``.  Membership in T is checked once, on
    Intervals built from the node's keys; a node outside T checks each
    candidate too (see ``labeled_rewrite_neighbors``).  Each
    candidate is the node's sorted rest with at most two keys inserted,
    doubled for an odd midpoint and halved by ``_halved`` when a paste or
    drop removes an odd endpoint.
    """
    e, items = node
    pieces = [(_interval(key, scale << e), m) for key, m in items]
    # Membership reads the labels in order; reading items[0] last names,
    # of two unknown labels, the one a per-candidate check meets first.
    inside = in_T_labeled(pieces[1:] + pieces[:1], pam)
    out = set()

    def admit(e, cand):
        if inside or in_T_labeled([(_interval(key, scale << e), m) for key, m in cand], pam):
            out.add((e, cand))

    doubled = None
    for i, (key, m) in enumerate(items):
        u, v, p, q = key
        rest = items[:i] + items[i + 1 :]
        if m == UNIT or u == v:
            admit(*_halved(e, rest, u, v))
        if u < v:
            ws = {c << e for c in cuts[bisect_right(cuts, u >> e) : bisect_left(cuts, -(-v >> e))]}
            if (u + v) & 1:
                if doubled is None:
                    doubled = tuple(((2 * a, 2 * b, c, d), n) for (a, b, c, d), n in items)
                drest = doubled[:i] + doubled[i + 1 :]
                w = u + v
                for r in (CLOSED, OPEN):
                    admit(e + 1, _with(drest, ((2 * u, w, p, r), m), ((w, 2 * v, -r, q), m)))
            else:
                ws.add((u + v) >> 1)
            for w in ws:
                for r in (CLOSED, OPEN):
                    admit(e, _with(rest, ((u, w, p, r), m), ((w, v, -r, q), m)))
        if m != UNIT:
            for a, b in pam.nonzero_partitions(m):
                admit(e, _with(rest, (key, a), (key, b)))

    for i, (k1, m1) in enumerate(items):
        for k in range(i + 1, len(items)):
            k2, m2 = items[k]
            if k1 != k2 and m1 != m2:
                continue
            rest = items[:i] + items[i + 1 : k] + items[k + 1 :]
            if k1 == k2:
                s = pam.pair_sum(m1, m2)
                if s is not None:
                    admit(e, _with(rest, (k1, s)))
            if m1 == m2:
                for (u1, v1, p1, q1), (u2, v2, p2, q2) in ((k1, k2), (k2, k1)):
                    if v1 == u2 and q1 != p2:
                        admit(*_halved(e, _with(rest, ((u1, v2, p1, q2), m1)), v1))
    return out


def _with(rest, *new):
    """The sorted keyed pieces ``rest`` with the pieces ``new`` inserted."""
    out = list(rest)
    for x in new:
        insort(out, x)
    return tuple(out)


def _halved(e, items, *gone):
    """The node (e, items) made canonical after a move took the endpoints ``gone``.

    A canonical node with e > 0 has an odd endpoint, so only a move that
    takes one away can leave every endpoint even; the node is then halved
    as often as its endpoints allow, down to e = 0.
    """
    if not (e and any(x & 1 for x in gone)):
        return e, items
    g = 0
    for (u, v, _, _), _ in items:
        g = gcd(g, u, v)
    h = e if g == 0 else min(e, (g & -g).bit_length() - 1)
    if not h:
        return e, items
    return e - h, tuple(((u >> h, v >> h, p, q), m) for (u, v, p, q), m in items)


def restrict(xi, a, b):
    """Set intersection with the open window (a, b), labels kept."""
    a, b = _frac(a), _frac(b)
    out = []
    for j, m in xi:
        c = clip_interval(j, a, b)
        if c is not None:
            out.append((c, m))
    return lc_sorted(out)


class WindowIndex:
    """A configuration indexed for repeated window reads on integers.

    Pieces are kept in ``lc_sorted`` order under their integer keys over
    the scale S of ``_endpoint_keys``, next to their left ends and the
    running maximum of their right ends.  A window (lo, hi), given as
    integers over a multiple K of S, bisects both to the slice of pieces
    that can meet it; every piece outside that slice has v <= lo or
    u >= hi and clips to nothing.  ``clip`` cuts the slice to the window
    without building a Fraction or an Interval, so a scan or admissibility
    read stays on integers from the index to its value.  Every label is
    checked against ``pam`` once, in key order, here: a read does not
    check the labels of its window again, and a label that no window
    meets is still checked.
    """

    __slots__ = ("pieces", "scale", "_keys", "_lefts", "_reach")

    def __init__(self, xi, pam):
        self.scale, keyed = _endpoint_keys(tuple(xi))
        keyed.sort()
        for _, m, _ in keyed:
            pam.check_element(m)
        self.pieces = tuple((j, m) for _, m, j in keyed)
        self._keys = [(key, m) for key, m, _ in keyed]
        self._lefts = [key[0] for key, _, _ in keyed]
        self._reach = list(accumulate((key[1] for key, _, _ in keyed), max))

    def _bounds(self, scale, lo, hi):
        """The slice (first, stop) of pieces that can meet the window (lo, hi).

        ``lo`` and ``hi`` are integers over ``scale``, a multiple K of S.
        The slice holds the pieces whose reach exceeds lo and whose left end
        lies below hi.  An integer over S exceeds lo/K iff it exceeds its
        floor, and lies below hi/K iff it lies below its ceiling, so
        bisecting at floor(lo*S/K) and ceil(hi*S/K) is exact.
        """
        f = scale // self.scale
        return bisect_right(self._reach, lo // f), bisect_left(self._lefts, -(-hi // f))

    def clip(self, scale, lo, hi):
        """The window (lo, hi) as sorted (key, label, None) triples over ``scale``.

        ``scale`` is a multiple of S and ``lo``, ``hi`` are integers over it.
        Each piece is clipped as ``clip_interval`` clips it: surviving ends
        keep their parity, cut ends open, and a width-zero result drops.
        """
        f = scale // self.scale
        first, stop = self._bounds(scale, lo, hi)
        out = []
        for (u, v, p, q), m in self._keys[first:stop]:
            u, v = u * f, v * f
            if u == v:
                if lo < u < hi:
                    out.append(((u, v, p, q), m, None))
                continue
            if u <= lo:
                u, p = lo, OPEN
            if v >= hi:
                v, q = hi, OPEN
            if u < v:
                out.append(((u, v, p, q), m, None))
        out.sort()
        return out

    def restrict(self, a, b):
        """``restrict`` of the configuration to (a, b), read through ``clip``."""
        a, b = _frac(a), _frac(b)
        scale = lcm(self.scale, a.denominator, b.denominator)
        return tuple(
            (_interval(key, scale), m)
            for key, m, _ in self.clip(scale, _num(a, scale), _num(b, scale))
        )


def mirror_config(xi):
    return lc_sorted((j.mirror(), m) for j, m in xi)


def translate_config(xi, d):
    return lc_sorted((j.translate(d), m) for j, m in xi)


def double(xi):
    """The configuration together with its mirror image."""
    return lc_sorted(tuple(xi) + mirror_config(xi))


def is_mirror_invariant(xi, pam):
    return labeled_normalize(xi, pam) == labeled_normalize(mirror_config(xi), pam)


def split_sides(nf):
    """Split a normal form into negative, zero-crossing and positive parts.

    Zero-crossing pieces must be mirror-shaped: (-w, w) with complementary
    parities.  Pieces with an endpoint exactly at 0 must be open there.
    """
    s_minus, s_zero, s_plus = [], [], []
    for j, m in nf:
        if j.u < 0 < j.v:
            if j.u != -j.v or j.p != -j.q:
                raise DomainError(
                    "zero-crossing piece %r is not mirror-shaped" % (j,)
                )
            s_zero.append((j, m))
        elif j.u >= 0:
            if j.u == 0 and j.p == CLOSED:
                raise DomainError("piece %r is closed at 0" % (j,))
            s_plus.append((j, m))
        elif j.v <= 0:
            if j.v == 0 and j.q == CLOSED:
                raise DomainError("piece %r is closed at 0" % (j,))
            s_minus.append((j, m))
    return tuple(s_minus), tuple(s_zero), tuple(s_plus)


def _mirror_split(nf):
    """The zero-crossing and positive parts of a mirror-invariant normal form.

    Raises DomainError unless the negative side is exactly the mirror of the
    positive side.
    """
    s_minus, s_zero, s_plus = split_sides(nf)
    if mirror_config(s_minus) != lc_sorted(s_plus):
        raise DomainError("configuration is not mirror-invariant")
    return s_zero, s_plus


def positive_part(eta, pam):
    """Fold a mirror-invariant configuration onto the half line.

    Zero-crossing pieces (-w, w) become [0, w) with the right parity kept;
    the positive pieces are kept as they are.  The negative side must be
    exactly the mirror of the positive side.
    """
    nf = labeled_normalize(eta, pam)
    if labeled_normalize(mirror_config(nf), pam) != nf:
        raise DomainError("configuration is not mirror-invariant")
    s_zero, s_plus = _mirror_split(nf)
    folded = [(Interval(0, j.v, CLOSED, j.q), m) for j, m in s_zero]
    return lc_sorted(folded + list(s_plus))


# --- window decomposition -------------------------------------------------

E1_WHOLE = "whole"
E1_LEFT = "left"
E1_RIGHT = "right"
E1_INTERIOR = "interior"


@dataclass(frozen=True)
class Elem1:
    kind: str
    piece: Interval
    label: str

    def sort_key(self):
        return (0, self.piece.sort_key(), self.label)


@dataclass(frozen=True)
class Elem2:
    """A cut pair: anchored strands with one shared label, counted once."""

    left: Interval
    right: Interval
    label: str

    def sort_key(self):
        return (1, self.left.sort_key(), self.right.sort_key(), self.label)


@dataclass(frozen=True)
class DecompResult:
    items: tuple
    count: int


def _classify(key, lo, hi):
    """The elementary kind of a piece keyed ``key`` in the window (lo, hi), or None."""
    u, v, p, q = key
    if u == lo and v == hi:
        return E1_WHOLE if p == OPEN and q == OPEN else None
    if u == lo:
        return E1_LEFT if p == OPEN and lo < v < hi else None
    if v == hi:
        return E1_RIGHT if q == OPEN and lo < u < hi else None
    if lo < u and v < hi and p + q == 0:
        return E1_INTERIOR
    return None


def decompose_window(xi_t, a, b, pam):
    """Decompose window content into elementary configurations.

    The content is first normalized (so the reading is class-level), then
    each piece is classified against the window (a, b); left- and
    right-anchored pieces with one shared label and complementary cut
    parities may pair up into cut pairs.  A matching of left to right
    pieces is valid when the resulting label tuple is summable.  Returns
    the first valid matching in the order that prefers, left by left, the
    first free partner over none, along with the number of valid matchings.

    Nothing is listed.  The first valid matching is first fit, each left
    piece in turn taking the first free compatible right piece.  Left
    pieces come in order of their cuts, so each has the most partners of
    those still to come, and its first free partner is the one the fewest
    of them can use; trading partners puts that pair in a maximum matching
    of what is left.  So first fit keeps a maximum completion at every
    step, and that completion has the fewest labels: a part of a summable
    tuple sums, so it is valid whenever any matching is.  The read
    (``_decompose_keys``, on integer endpoints over the lcm of every
    denominator, a and b included) checks first fit alone, and the count
    is made here, by ``_count_matchings``, only for the result.
    """
    a, b = _frac(a), _frac(b)
    xi_t = tuple(xi_t)
    scale = lcm(a.denominator, b.denominator, *(x.denominator for j, _ in xi_t for x in (j.u, j.v)))
    keyed = _keys_over(xi_t, scale)
    keyed.sort()
    for _, m, _ in keyed:
        pam.check_element(m)
    items = _decompose_keys(keyed, scale, _num(a, scale), _num(b, scale), pam)
    return _decomp_result(items, scale, pam)


def _decomp_result(items, scale, pam):
    """The DecompResult of keyed elementary ``items`` over ``scale``, counted."""
    out = []
    for e in items:
        if e[0]:
            out.append(Elem2(_interval(e[1], scale), _interval(e[2], scale), e[3]))
        else:
            out.append(Elem1(e[3], _interval(e[1], scale), e[2]))
    return DecompResult(items=tuple(out), count=_count_matchings(pam, items))


def _decompose_keys(keyed, scale, lo, hi, pam):
    """First fit of ``decompose_window`` on integers, over ``scale``.

    ``keyed`` holds the window content as sorted (key, label, interval)
    triples, its labels checked, and (lo, hi) is the window, all integers
    over ``scale``.
    Returns the elementary items of first fit.  An item is (0, key, label,
    kind) for a single piece and (1, left key, right key, label) for a cut
    pair; items sort as the ``sort_key`` of Elem1 and Elem2 sorts them.

    A read is four steps: normal form, classify, first fit, and one sum of
    first fit's labels, a cut pair's label once.  Some matching is valid
    exactly when that sum is defined (see ``decompose_window``), and then
    the window is in the tensor region: the two pieces of a cut pair chain
    (kl ends before kr starts), so a clique of overlapping pieces holds at
    most one of them, and its labels, a part of the summed tuple, sum.  The
    label side then holds too (see ``in_T_labeled``).  So only a failing
    read builds Intervals and runs ``in_T_labeled``, whose error wins.
    """
    w = _normal_keys(keyed, pam, scale)
    items, lefts, rights = [], [], []
    for key, m, _ in w:
        kind = _classify(key, lo, hi)
        if kind is None:
            raise _read_error(
                w, scale, lo, hi, pam, "piece %r:%s is not elementary" % (_interval(key, scale), m)
            )
        if kind == E1_LEFT:
            lefts.append((key, m))
        elif kind == E1_RIGHT:
            rights.append((key, m))
        else:
            items.append((0, key, m, kind))
    for kl, ml in lefts:
        kr = next((kr for kr, mr in rights if mr == ml and kl[1] < kr[0] and kl[3] + kr[2] == 0), None)
        if kr is None:
            items.append((0, kl, ml, E1_LEFT))
        else:
            rights.remove((kr, ml))
            items.append((1, kl, kr, ml))
    items.extend([(0, kr, mr, E1_RIGHT) for kr, mr in rights])
    # one checked label sums to itself, so only two or more are summed
    if len(items) > 1 and pam.sum_tuple([e[3] if e[0] else e[2] for e in items]) is None:
        raise _read_error(
            w, scale, lo, hi, pam,
            "no matching makes the label multiset summable (content %r)"
            % ([(_interval(key, scale), m) for key, m, _ in w],),
        )
    items.sort()
    return items


def _read_error(w, scale, lo, hi, pam, reason):
    """The DecomposeError of a failing read of ``w``; a tensor failure wins."""
    pieces = [(_interval(key, scale), m) for key, m, _ in w]
    ok, wit = in_T_labeled(pieces, pam, witness=True)
    if not ok:
        js, ms = zip(*(pieces[i] for i in wit[1]))
        reason = "pieces %r collide but their labels %r are not jointly summable" % (list(js), list(ms))
    window = Fraction(lo, scale), Fraction(hi, scale)
    return DecomposeError("window (%s, %s): %s" % (*window, reason), window)


def _count_matchings(pam, items):
    """The number of valid matchings of a window whose first fit is ``items``.

    ``items`` are keyed elementary items as ``_decompose_keys`` returns
    them.  Whole and interior pieces are in every tuple; every anchored
    piece, in a cut pair or not, may take part in a matching.  A left
    piece kl and a right piece kr are compatible when they share a label
    and a cut parity and kl's right end lies before kr's left end, so each
    board (the pieces of one label and one cut parity) is a Ferrers board:
    the partners of its rows are nested.  Taking the rows by number of
    partners c, each row extends the board's rook numbers by
    r'[k] = r[k] + r[k-1] * (c - k + 1) (Goldman, Joichi and White, Rook
    theory I, 1975).  Boards are independent, and a board with k pairs, of
    at most K, adds K - k copies of its label to the tuple of a maximum
    matching.  That tuple is summed once, and the extra copies are folded
    in board by board through a map from partial sum to number of ways.
    """
    boards, labels = {}, []
    for e in items:
        if e[0]:
            _, left, right, m = e
        else:
            _, key, m, kind = e
            left = key if kind == E1_LEFT else None
            right = key if kind == E1_RIGHT else None
            if not (left or right):
                labels.append(m)
                continue
        cuts, starts = boards.setdefault((m, left[3] if left else -right[2]), ([], []))
        if left:
            cuts.append(left[1])
        if right:
            starts.append(right[0])
    folds = []
    for (m, _), (cuts, starts) in boards.items():
        starts.sort()
        rooks = [1]
        for c in sorted(len(starts) - bisect_right(starts, v) for v in cuts):
            if c >= len(rooks):
                rooks.append(0)
            rooks = [r + (k and rooks[k - 1] * (c - k + 1)) for k, r in enumerate(rooks)]
        labels += [m] * (len(cuts) + len(starts) - len(rooks) + 1)
        if len(rooks) > 1:
            folds.append((m, rooks))
    total = pam.sum_tuple(labels)
    if total is None:
        return 0
    ways = {total: 1}
    for m, rooks in folds:
        grown = {}
        for s, n in ways.items():
            for r in reversed(rooks):
                grown[s] = grown.get(s, 0) + n * r
                s = pam.pair_sum(s, m)
                if s is None:
                    break
        ways = grown
    return sum(ways.values())


def _sweep_centres(keys, scale, eps):
    """The window centres of ``window_sweep_points`` as integers.

    ``keys`` are integer keys over ``scale``.  Returns (K, e, centres):
    the scale K = 2 * lcm(scale, eps.denominator), eps over K, and the
    sorted centres over K.  Every end and every critical point e +- eps is
    then an even integer, so each midpoint is an integer too, and one scale
    serves every window of the sweep.
    """
    k = 2 * lcm(scale, eps.denominator)
    f = k // scale
    e = _num(eps, k)
    ends = {x * f for key in keys for x in key[:2]}
    if not ends:
        return k, e, [0]
    crit = sorted({x + d for x in ends for d in (-e, e)})
    centres = set(crit)
    centres.update((x + y) // 2 for x, y in zip(crit, crit[1:]))
    centres.add(crit[0] - k)
    centres.add(crit[-1] + k)
    return k, e, sorted(centres)


def window_sweep_points(xi, eps):
    """Window centers that cover every combinatorial type of restriction."""
    scale, keyed = _endpoint_keys(tuple(xi))
    k, _, centres = _sweep_centres([key for key, _, _ in keyed], scale, _frac(eps))
    return [Fraction(t, k) for t in centres]


def _moved(keys, a, b, d):
    """``keys`` with each end on the window end a or b moved by d."""
    return tuple([(u + d if u == a else u, v + d if v == b else v, p, q) for u, v, p, q in keys])


def _moved_items(items, a, b, d):
    """Keyed elementary ``items`` with each end on a or b moved by d."""
    out = []
    for e in items:
        n = 2 + e[0]  # a cut pair holds two keys
        out.append(e[:1] + _moved(e[1:n], a, b, d) + e[n:])
    return out


def _sweep(windows, eps, pam):
    """Decompose every window of the sweep on integers, each content once.

    Yields (t, K, items), first fit's keyed items with the centre t over
    the scale K of ``_sweep_centres``.  Windows are read through the
    WindowIndex ``windows``, so each read costs a bisection plus the
    pieces near the window.

    Centres alternate: an outer centre, then critical points x +- eps and
    the midpoints between them, then the other outer centre.  Only the
    midpoints, the outer centres and the critical centres with endpoints
    on both window ends are read.  Take a critical centre t whose
    endpoints sit on its left window end lo only, and let d be the
    distance to the next centre.  A piece ending at lo clips to nothing
    and a piece starting at lo is cut open, at t as at t + d; no endpoint
    lies in (lo, lo + d] or in [hi, hi + d], since it would put a critical
    point in (t, t + d].  So, as for a stretch of ``alpha_trace``, the
    normal form, the kinds, first fit, the order of its items and its one
    sum are those of t + d, up to the clipped ends, which sit on the
    window ends: t yields the next read's items with those ends moved back
    by d.  A centre with endpoints on its right window end only yields
    the previous read's items moved forward, by symmetry.  The counts of
    ``_count_matchings`` compare only uncut ends and labels, so they agree
    too.  A left-only centre can fail first, where a piece starting at lo
    and one crossing it clip to one interval there and merge.  So when the
    read after a waiting left-only centre fails, that centre, which has
    the same content, is read again for its own error, the first failing
    window's.
    """
    k, e, centres = _sweep_centres([key for key, _ in windows._keys], windows.scale, eps)
    f = k // windows.scale
    ends = {x * f for key, _ in windows._keys for x in key[:2]}

    def read(t):
        return _decompose_keys(windows.clip(k, t - e, t + e), k, t - e, t + e, pam)

    last = waiting = None
    for t in centres:
        lo, hi = t - e, t + e
        if lo in ends and hi not in ends:
            waiting = t
            continue
        if hi in ends and lo not in ends:
            c, items = last
            yield t, k, _moved_items(items, c - e, c + e, t - c)
            continue
        try:
            items = read(t)
        except DomainError:
            if waiting is not None:
                yield waiting, k, read(waiting)
            raise
        if waiting is not None:
            yield waiting, k, _moved_items(items, lo, hi, waiting - t)
            waiting = None
        last = t, items
        yield t, k, items


def admissibility_sweep(xi, eps, pam):
    """Decompose every combinatorially distinct window; yields (t, result).

    One result per centre of ``window_sweep_points``, each counted; a
    window content shared by neighbouring centres is read once (see
    ``_sweep``), and the first failing window raises its DecomposeError.
    """
    eps = _positive(eps, "eps")
    for t, k, items in _sweep(WindowIndex(xi, pam), eps, pam):
        yield Fraction(t, k), _decomp_result(items, k, pam)


@dataclass(frozen=True)
class AdmissibilityReport:
    """A verdict; a failing window is named in ``window`` as (lo, hi)."""

    ok: bool
    reason: str = None
    window: tuple = None

    def __bool__(self):
        return self.ok


def _is_chain(keys):
    """True when sorted (key, label) pairs chain as ``is_compatible`` asks."""
    return all(x[1] < y[0] or (x[1] == y[0] and x[3] != y[2]) for (x, _), (y, _) in zip(keys, keys[1:]))


def is_admissible(xi, eps, support, pam):
    """Admissibility: tensor membership, decomposable windows, support.

    Returns an AdmissibilityReport; failures carry a reason instead of
    raising.  One WindowIndex serves all three checks.  The labels are
    checked once, by the index; its keys are in ``lc_sorted`` order, so they
    chain exactly when the intervals are compatible, and only an input
    whose keys do not chain goes to ``in_T_labeled`` for its verdict and
    witness.  The windows are swept on the keys, one read per window
    content (see ``_sweep``), and the support check clips on them too.
    ``restrict`` to the inner window keeps the configuration exactly when
    every piece clips to itself, and ``WindowIndex.clip`` clips as
    ``clip_interval`` does, so the support holds exactly when the clipped
    keys are the index's keys scaled to the window's scale.
    """
    eps = _positive(eps, "eps")
    a, b = _frac(support[0]), _frac(support[1])
    if b - a <= eps:
        raise DomainError("support window must be wider than eps")
    windows = WindowIndex(xi, pam)
    if not _is_chain(windows._keys):
        ok, wit = in_T_labeled(windows.pieces, pam, witness=True)
        if not ok:
            return AdmissibilityReport(False, "not in the tensor region: %r" % (wit,))
    try:
        # Every window must decompose: a read checks first fit with one
        # sum and counts nothing.  Over a self-insummable pam a summable
        # tuple holds each nonzero label at most once, which forces the
        # matching, so the count ``admissibility_sweep`` reports is 1 there.
        for _ in _sweep(windows, eps, pam):
            pass
    except DecomposeError as e:
        return AdmissibilityReport(False, str(e), e.window)
    except DomainError as e:
        return AdmissibilityReport(False, str(e))
    lo, hi = a + eps / 2, b - eps / 2
    k = lcm(windows.scale, lo.denominator, hi.denominator)
    f = k // windows.scale
    kept = windows.clip(k, _num(lo, k), _num(hi, k))
    if kept != [((u * f, v * f, p, q), m, None) for (u, v, p, q), m in windows._keys]:
        return AdmissibilityReport(False, "support leaks outside (%s, %s)" % (lo, hi))
    return AdmissibilityReport(True)


@dataclass(frozen=True)
class SymmetricConfig:
    """A mirror-invariant configuration on a symmetric window (-s, s)."""

    config: tuple
    s: Fraction

    def validate(self, pam):
        if not is_mirror_invariant(self.config, pam):
            raise DomainError("configuration is not mirror-invariant")
        report = is_admissible(self.config, 1, (-self.s, self.s), pam)
        if not report:
            raise DomainError(report.reason)
        return self

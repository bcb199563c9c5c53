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
from itertools import accumulate, count, groupby
from math import gcd, inf, lcm

from .pam import UNIT, DomainError
from .intervals import CLOSED, OPEN, Interval, _frac, _positive, clip_interval
from .tensor import EqVerdict, _bidirectional_search, _minimal_unsummable


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

    ``_tensor_sweep`` decides on the sorted keys; its witness, on the
    "first" side, names indices of xi.
    """
    xi = tuple(xi)
    _check_labels(xi, pam)
    _, keyed = _endpoint_keys(xi)
    order = sorted(range(len(keyed)), key=lambda i: keyed[i][0])
    bad = _tensor_sweep([keyed[i] for i in order], pam)
    if not witness:
        return bad is None
    return (True, None) if bad is None else (False, ("first", sorted(order[k] for k in bad)))


def _check_labels(pieces, pam):
    """Check each distinct label of ``pieces`` against ``pam`` once, in input order.

    Every labeled entry point calls this before any other work, so the
    first unknown label in input order raises, whatever the entry point.
    Below it the labels are read unchecked: a search node's labels are
    start labels or sums and parts that ``pam`` returned.
    """
    for m in dict.fromkeys(m for _, m in pieces):
        pam.check_element(m)


def _endpoint_keys(pieces, *extra):
    """The common scale S of ``pieces`` and each piece under its integer key.

    Each endpoint is read once, as its integer ratio a/b.  S is the lcm of
    every b and of the denominators of the rationals ``extra`` (window
    ends, cuts), which ``_num`` then reads as integers over S.  The
    endpoint is the integer a * (S // b) over S.  Scaling by S > 0 keeps
    order and equality, so the key (u*S, v*S, p, q) sorts, groups and
    compares exactly as ``Interval.sort_key`` does, on integers alone.
    Returns S and a list of (key, label, interval) in input order; sorted,
    that list is in ``lc_sorted`` order, and entries that tie on key and
    label are equal.  ``pieces`` is read twice, so it must not be an
    iterator.
    """
    ends = [j.u.as_integer_ratio() + j.v.as_integer_ratio() for j, _ in pieces]
    scale = lcm(*{x for _, b, _, d in ends for x in (b, d)}, *{x.denominator for x in extra})
    return scale, [
        ((a * (scale // b), c * (scale // d), j.p, j.q), m, j)
        for (j, m), (a, b, c, d) in zip(pieces, ends)
    ]


def _num(x, scale):
    """One rational x, such as eps or a window end, as an integer over ``scale``.

    The denominator of x must divide ``scale``.  Pieces are keyed by
    ``_endpoint_keys`` instead.
    """
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

    Each endpoint is keyed once, from its integer ratio, by
    ``_endpoint_keys``.  Pieces are sorted, grouped and matched on those
    keys, and only a piece that a paste made is built as an Interval, once,
    at the end.  It is built unchecked (``Interval._trusted``): its ends
    are ends of valid input pieces, and a paste leaves u < v.  Once
    coincident pieces are merged, a chain (each piece ends before the next
    one starts, or touches it with the opposite parity) pastes in one
    sorted pass, as any order of its pastes reaches one fixpoint
    (``_normal_keys`` gives the proof).  Other inputs replay the moves in
    the order above (``_paste``): a queue in key order yields the lowest
    piece, an index of left ends its lowest partner, and each paste's
    result is queued like an input piece, so the cost is O(n log n) for n
    pieces rather than a re-sort and rescan per move.  The result is
    canonical only where the moves converge to one answer: a configuration
    with two irreducible presentations (such as [0,1):g1 [1/2,1):g1
    [1,2):g1 over Z/5, where either g1 piece ending at 1 may take the
    paste) gets the one this order reaches.
    """
    xi = tuple(xi)
    _check_labels(xi, pam)
    scale, keyed = _endpoint_keys(xi)
    keyed.sort()
    return tuple(
        (j or Interval._trusted(Fraction(u, scale), Fraction(v, scale), p, q), m)
        for (u, v, p, q), m, j in _normal_keys(keyed, pam, scale)
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

    If the kept keys chain (``_is_chain``), a second pass pastes them: a
    piece pastes onto the last output piece exactly when the two touch
    and share a label.  This reaches the fixpoint the move order reaches.
    The kept keys are distinct and none is degenerate, so in a chain every
    piece after x starts at or after x's right end, and every piece after
    x's right neighbour y starts at or after y's right end, which lies
    beyond x's.  Only y can start where x ends, and when it does, its
    parity is opposite to x's: x has at most one partner, y, and pastes
    onto it exactly when their labels agree.  Pasting x and y into z
    leaves a chain of distinct keys: z starts as x does and ends as y
    does, so it chains with x's left neighbour and y's right neighbour as
    x and y did, and every other piece ends at or before z's left end or
    starts at or after its right end, so none coincides with it.  Hence no
    merge ever applies, and no move can raise.  The pasteable joints of z
    are those of x on its left and of y on its right: each paste removes
    one joint and makes none.  Every order of moves therefore ends at the
    chain with every joint removed, which is what one left-to-right fold
    over the sorted keys (``_fold_chain``) builds.  The fold's output
    stays in key order, and a piece it pasted carries no interval, as
    ``_paste``'s do.  Keys that do not chain go to ``_paste``, the one
    path that follows the leftmost-first move order where that order
    decides the answer.
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
    if len(items) < 2:
        return items
    if not _is_chain(items):
        return _paste(items, pam, scale)
    return _fold_chain(items)


def _fold_chain(items):
    """The normal form of a chain of distinct, labeled, nondegenerate ``items``.

    ``items`` are sorted (key, label, interval) triples that chain
    (``_is_chain``).  One left-to-right pass pastes each piece onto the
    last output piece when the two touch and share a label; a pasted
    piece carries no interval.  ``_normal_keys`` proves that this is the
    fixpoint of the moves.
    """
    out = items[:1]
    for item in items[1:]:
        key, m, _ = item
        (u, v, p, _), last, _ = out[-1]
        if v == key[0] and last == m:
            out[-1] = ((u, key[1], p, key[3]), m, None)
        else:
            out.append(item)
    return out


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
    """Paste the distinct, labeled ``items`` to a fixpoint, in move order.

    ``items`` holds (key, label, interval) in key order, keyed over
    ``scale``.  ``_normal_keys`` sends only keys that do not chain here,
    where a paste may make a coincidence and the order of the moves may
    decide the answer; it works on any distinct keys, and the tests
    compare it with the one-pass fold on chains.  Pastes create no
    endpoint, so those integers cover every piece that appears; a key
    sorts as its interval does and names the piece in ``live``.  A pasted
    piece is a key and a label only, and leaves with no interval.

    Pieces leave ``todo`` in key order, and the lowest live one pastes
    onto its lowest partner.  The result merges with the live piece it
    coincides with, if any, and is otherwise queued through ``add`` like
    any other piece.  A piece with no live partner waits under the left
    end a partner would have and is queued again when a piece with that
    left end is added.  Only a merge adds a new left end, by putting a new
    label on it, and that is the one move that reaches behind the cursor.
    Dead pieces are skipped when they surface.  Sorted ``items`` are
    already a heap, both as ``todo`` and under each left end, so they are
    loaded by appending.
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
        b = heappop(partners)[-1]
        a.live = b.live = False
        del live[a.key], live[b.key]
        key = (u, b.key[1], p, b.key[3])
        x = live.pop(key, None)
        if x is None:
            add(None, m, key)
            continue
        x.live = False
        s = _coincident_sum(key, scale, *sorted((m, x.m), key=pam.index), pam)
        if s != UNIT:
            add(x.j, s, key)
    return [(key, live[key].m, live[key].j) for key in sorted(live)]


def config_eq(x1, x2, pam, method="nf", depth=6):
    """Equality in the labeled configuration space.

    ``nf`` compares normal forms: EQUAL is always right, but DISTINCT is
    not exact over every carrier, where the moves need not converge (see
    ``labeled_normalize``).  ``search`` runs a bounded bidirectional walk
    over one-step rewrites and answers UNKNOWN once it is out of bounds.

    Both methods check the labels of x1 and x2 first, in input order, x1's
    before x2's, so an unknown label raises at any depth and before any
    merge fails.  Both then run on integer keys.  S is the lcm of the
    endpoint denominators of x1 and x2, each endpoint keyed once over S.
    ``nf`` puts each side through the steps of ``labeled_normalize``, x1
    first, and compares the (key, label) lists: the normal form reads keys
    only by order and equality, which a common scale keeps, so it builds
    no Interval and raises the merge error ``labeled_normalize`` raises,
    x1's before x2's.

    In the search the endpoints of x1 and x2 are the extra cuts.  A node
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
    if method not in ("nf", "search"):
        raise ValueError("unknown method %r" % method)
    x1, x2 = tuple(x1), tuple(x2)
    _check_labels(x1 + x2, pam)
    scale, keyed = _endpoint_keys(x1 + x2)
    parts = [sorted(keyed[: len(x1)]), sorted(keyed[len(x1) :])]
    if method == "nf":
        w1, w2 = ([(key, m) for key, m, _ in _normal_keys(part, pam, scale)] for part in parts)
        return EqVerdict.EQUAL if w1 == w2 else EqVerdict.DISTINCT
    cuts = sorted({x for key, _, _ in keyed for x in key[:2]})
    starts = [(0, tuple((key, m) for key, m, _ in part)) for part in parts]
    verdict = _bidirectional_search(*starts, lambda node: _rewrite_keys(node, pam, cuts, scale), depth)
    if verdict is EqVerdict.DISTINCT and any(_tensor_sweep(items, pam) is not None for _, items in starts):
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
    xi = tuple(xi)
    _check_labels(xi, pam)
    cuts = [_frac(w) for w in extra_cuts]
    scale, keyed = _endpoint_keys(xi, *cuts)
    node = (0, tuple(sorted((key, m) for key, m, _ in keyed)))
    out = _rewrite_keys(node, pam, sorted({_num(w, scale) for w in cuts}), scale)
    return {tuple((_interval(key, scale << e), m) for key, m in cand) for e, cand in out}


def _rewrite_keys(node, pam, cuts, scale):
    """The neighbors of the search node ``node`` over ``scale``, as a set of nodes.

    ``node`` is (e, items), sorted ((u, v, p, q), label) keys over
    scale * 2**e with e canonical (see ``config_eq``), and ``cuts`` are
    sorted integers over ``scale``.  Labels are not checked here (see
    ``_check_labels``).  Membership in T is checked once, by
    ``_tensor_sweep`` on the node's keys; a node outside T checks each
    candidate too (see ``labeled_rewrite_neighbors``).  Each
    candidate is the node's sorted rest with at most two keys inserted,
    doubled for an odd midpoint and halved by ``_halved`` when a paste or
    drop removes an odd endpoint.
    """
    e, items = node
    inside = _tensor_sweep(items, pam) is None
    out = set()

    def admit(e, cand):
        if inside or _tensor_sweep(cand, pam) is None:
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
    without building a Fraction or an Interval.  The labels are checked
    once, in input order, when the index is built: a read does not check
    the labels of its window again, and a label that no window meets is
    still checked.

    ``read`` is the one window read of the scan and admissibility paths:
    first fit of the window, as ``_decompose_keys`` finds it on the
    clipped content.  When the pieces left after dropping degenerate keys
    and zero labels chain (``_is_chain``), the index also stores their
    normal form, pasted once by ``_fold_chain``, and a read slices it: two
    bisections and one pass over the pieces that meet the window, with no
    normal form and no sort per read.  Other configurations, and a window
    that fails, are read through ``clip`` and ``_decompose_keys``.
    """

    __slots__ = ("scale", "_keys", "_lefts", "_reach", "_chain", "_chain_lefts", "_chain_rights")

    def __init__(self, xi, pam):
        xi = tuple(xi)
        _check_labels(xi, pam)
        self.scale, keyed = _endpoint_keys(xi)
        keyed.sort()
        self._keys = [(key, m) for key, m, _ in keyed]
        self._lefts = [key[0] for key, _, _ in keyed]
        self._reach = list(accumulate((key[1] for key, _, _ in keyed), max))
        kept = [(key, m, None) for key, m in self._keys if key[0] < key[1] and m != UNIT]
        self._chain = _fold_chain(kept) if _is_chain(kept) else None
        if self._chain is not None:
            self._chain_lefts = [key[0] for key, _, _ in self._chain]
            self._chain_rights = [key[1] for key, _, _ in self._chain]

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

    def read(self, scale, lo, hi, pam):
        """First fit of the window (lo, hi): ``_decompose_keys`` of its ``clip``.

        ``scale`` is a multiple of S and ``lo``, ``hi`` are integers over
        it; the items, and the DecomposeError of a window that fails, are
        those of ``_decompose_keys(self.clip(scale, lo, hi), ...)``.  An
        index with no stored chain reads exactly that way.  On a stored
        chain the read bisects the chain's ends to the slice of pieces that
        meet the window and finds first fit in one pass over the slice, with
        no normal form and no sort.  A window that the pass finds failing
        falls through to the general read, which words its error, so
        ``clip`` alone writes how a piece is clipped.

        The read rests on NF(clip(C, W)) = clip(NF(C), W) for a chain C
        with no degenerate or zero-label piece.  The pieces of the general
        read's ``clip`` that C leaves out are degenerate or zero-labeled,
        and ``_normal_keys`` drops them (a zero label coincident with a
        kept piece adds nothing to its merge).  Clipping a chain keeps a
        chain: a piece that meets W keeps its ends inside W and the
        parities there, and ends cut at lo or hi open.  A joint of C (one
        piece ending where the next starts) at x survives the clip exactly
        when lo < x < hi, since a piece that ends at or before lo, or starts
        at or after hi, clips to nothing; a joint at or outside a window
        end loses one of its two pieces.  The clipped pieces are distinct
        and nondegenerate, so the normal form of clip(C, W) only pastes the
        surviving equal-label joints.  Pasting a joint at x inside W and
        then clipping gives the paste of the two clipped pieces, and
        pasting one at x <= lo (x >= hi) and then clipping gives the clip
        of the piece on the far side of x alone.  So both sides paste the
        same joints, and the clip of a normal chain is sorted and normal.

        The chain's left ends and right ends both increase, so bisecting
        them, as ``_bounds`` does, finds the slice of pieces that meet W.
        Only the first piece of the slice can start at or before lo, and
        only the last can end at or after hi: every other piece starts at
        or after its left neighbour's right end, which exceeds lo, and ends
        at or before its right neighbour's left end, which lies below hi.
        So ``_classify`` needs no comparisons here: a piece cut on both
        sides is the whole window, one cut on one side is anchored there,
        and an uncut piece lies strictly inside W and is elementary exactly
        when p + q = 0.  The left-cut piece and the right-cut piece are the
        only anchored ones, so first fit is one test (``_pairs``) between
        them, and the items come out in sort order: the anchored single
        pieces at the ends of the slice and a cut pair last.
        """
        if self._chain is not None:
            f = scale // self.scale
            first = bisect_right(self._chain_rights, lo // f)
            stop = bisect_left(self._chain_lefts, -(-hi // f))
            inner, left, right = [], None, None
            for (u, v, p, q), m, _ in self._chain[first:stop]:
                u, v = u * f, v * f
                if lo < u and v < hi:
                    if p + q:
                        break
                    inner.append((0, (u, v, p, q), m, E1_INTERIOR))
                elif u > lo:
                    right = (u, hi, p, OPEN), m
                elif v < hi:
                    left = (lo, v, OPEN, q), m
                else:
                    inner.append((0, (lo, hi, OPEN, OPEN), m, E1_WHOLE))
            else:
                if left and right and left[1] == right[1] and _pairs(left[0], right[0]):
                    items = inner + [(1, left[0], right[0], left[1])]
                else:
                    items = ([(0, *left, E1_LEFT)] if left else []) + inner
                    items += [(0, *right, E1_RIGHT)] if right else []
                if _sums(items, pam):
                    return items
        return _decompose_keys(self.clip(scale, lo, hi), scale, lo, hi, pam)


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
    exactly the mirror of the positive side.  The normal form is taken
    once: it is a fixpoint of the moves, and the condition of every move
    is mirror-symmetric, so its mirror is a fixpoint too and is compared
    as it is.  A normal form holds no degenerate piece, so the mirror maps
    the pieces with u >= 0 onto those with v <= 0, and once the two forms
    agree the negative side is the positive side's mirror:
    ``split_sides`` alone checks the shape.
    """
    nf = labeled_normalize(eta, pam)
    if mirror_config(nf) != nf:
        raise DomainError("configuration is not mirror-invariant")
    _, s_zero, s_plus = split_sides(nf)
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
    _check_labels(xi_t, pam)
    scale, keyed = _endpoint_keys(xi_t, a, b)
    keyed.sort()
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
    over ``scale``.  Returns the elementary items of first fit.  An item
    is (0, key, label, kind) for a single piece and (1, left key, right
    key, label) for a cut pair; items sort as the ``sort_key`` of Elem1
    and Elem2 sorts them.

    A read is four steps: the normal form w of the content
    (``_normal_keys``), classify, first fit, and one sum of first fit's
    labels, a cut pair's label once.  Some matching is valid exactly when
    that sum is defined (see ``decompose_window``), and then the window is
    in the tensor region: the two pieces of a cut pair chain (kl ends
    before kr starts), so a clique of overlapping pieces holds at most one
    of them, and its labels, a part of the summed tuple, sum.  The label
    side then holds too, by the proof of ``_tensor_sweep``.  So only a
    failing read runs the sweep, and a tensor failure's error wins.
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
        for i, (kr, mr) in enumerate(rights):
            if mr == ml and _pairs(kl, kr):
                del rights[i]
                items.append((1, kl, kr, ml))
                break
        else:
            items.append((0, kl, ml, E1_LEFT))
    items.extend([(0, kr, mr, E1_RIGHT) for kr, mr in rights])
    if not _sums(items, pam):
        raise _read_error(
            w, scale, lo, hi, pam,
            "no matching makes the label multiset summable (content %r)"
            % ([(_interval(key, scale), m) for key, m, _ in w],),
        )
    items.sort()
    return items


def _pairs(kl, kr):
    """Whether a left-anchored piece keyed ``kl`` and a right-anchored ``kr`` make a cut pair.

    The pair needs one label too, which the caller compares.  The left
    piece must end before the right one starts, with complementary
    parities there.
    """
    return kl[1] < kr[0] and kl[3] + kr[2] == 0


def _sums(items, pam):
    """Whether the labels of first fit's keyed ``items`` sum, a cut pair's once."""
    # one checked label sums to itself, so only two or more are summed
    return len(items) < 2 or pam.sum_tuple([e[3] if e[0] else e[2] for e in items]) is not None


def _read_error(w, scale, lo, hi, pam, reason):
    """The DecomposeError of a failing read of ``w``; a tensor failure wins."""
    bad = _tensor_sweep(w, pam)
    if bad is not None:
        js = [_interval(w[i][0], scale) for i in bad]
        reason = "pieces %r collide but their labels %r are not jointly summable" % (js, [w[i][1] for i in bad])
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
    eps = _positive(eps, "eps")
    scale, keyed = _endpoint_keys(tuple(xi))
    k, _, centres = _sweep_centres([key for key, _, _ in keyed], scale, eps)
    return [Fraction(t, k) for t in centres]


def _reads(windows, k, e, centres, pam):
    """First fit at each of the increasing ``centres``, each window content read once.

    ``windows`` is a WindowIndex, ``k`` a multiple of its scale, and the
    window at a centre t is (t - e, t + e), all integers over k.  Yields,
    for each t, (c, items): the centre c at which ``WindowIndex.read``
    read first fit's keyed ``items``, not moved; with each key end on
    c - e or c + e moved by t - c (``_moved``) they are the items at t.
    A read that fails raises at its own centre.  Its one caller is the
    per-segment path of ``scanning.alpha_trace`` (``_read_segments``),
    which moves only the keys it evaluates.

    The state of a centre t is the pair (#{x <= t - e}, #{x < t + e}) over
    the endpoints x, and t is read exactly when its state differs from the
    state of the centre before it.  On integer centres the first count
    grows at t = x + e and the second at t = x - e + 1, so one sorted list
    of those change points (``_change_points``) tells whether the state
    has changed: ``_starts`` finds the centres where it has by one
    bisection per change point, and ``_read_centres`` lists the read
    centres of a sweep from the change points alone.

    Two centres c < t with one state have one content, up to the clipped
    ends.  ``WindowIndex.clip`` clips an end on lo like one below lo and an
    end on hi like one above hi: a piece ending at or below lo or starting
    at or above hi clips to nothing, a point included, one starting at or
    below lo is cut open at lo, and one ending at or above hi is cut open
    at hi.  No endpoint changes side of either window end between c and
    t, so the same pieces survive, the same ends are cut, and every uncut
    end lies strictly inside both windows; only the clipped ends move, and
    they sit on the window ends and move together, by t - c.  So no piece
    of the content starts at the right window end or ends at the left one,
    and a clipped end takes part in no paste; two keys are equal at c
    exactly when they are at t, and they sort in the same order, a clipped
    left end below every uncut one and a clipped right end above.  The
    kinds of ``_classify`` test uncut ends against the window ends, and
    first fit compares the uncut ends of its pairs.  So the normal form,
    the kinds, first fit and the order of its items are c's, up to the
    clipped ends; first fit's labels are the same tuple, so its one sum,
    and a failure with it, are c's too.  The counts of ``_count_matchings``
    compare only uncut ends and labels, so they agree as well.  Hence each
    centre takes the last read, moved, and the first centre of a failing
    content is read, so the first failing window words its own error.
    """
    starts = set(_starts(_change_points(windows, k, e), centres))
    for j, t in enumerate(centres):
        if j in starts:
            c, items = t, windows.read(k, t - e, t + e, pam)
        yield c, items


def _starts(changes, centres):
    """The sorted indices of the increasing ``centres`` that start a window content.

    The first centre does, and so does the first centre at or past each
    of the ``changes`` (``_change_points``) beyond it: a later centre
    starts one exactly when a change point lies between the centre before
    it, exclusive, and itself, inclusive (see ``_reads``).
    """
    after = {bisect_left(centres, x) for x in changes if x > centres[0]}
    return sorted({0, *after} - {len(centres)})


def _change_points(windows, k, e):
    """The sorted x + e and x - e + 1 over the endpoints x of ``windows``, over k."""
    f = k // windows.scale
    return sorted({x * f + d for key, _ in windows._keys for x in key[:2] for d in (e, 1 - e)})


def _read_centres(windows, eps):
    """(K, e, centres): the centres of ``_sweep_centres`` that ``_reads`` reads.

    One centre per window content; ``is_admissible`` decides its windows
    at them (``_centres_to_read``).  Those are crit[0] - K and the first
    centre at or past each change point.  Over K every end and e are even, so a change point x + e is a
    critical point, its own centre, and one x - e + 1 lies just past the
    critical point x - e, below the largest.  Its centre is the midpoint of
    x - e and the next critical point, which is the next change point
    rounded down to even; halving their sum floors it there.
    """
    k = 2 * lcm(windows.scale, eps.denominator)
    e = _num(eps, k)
    changes = _change_points(windows, k, e)
    centres = [changes[0] - 1 - k] if changes else [0]
    centres += [(t - 1 + changes[i + 1]) // 2 if t % 2 else t for i, t in enumerate(changes)]
    return k, e, centres


def _centres_to_read(windows, k, e, centres, pam):
    """The increasing ``centres`` at which ``is_admissible`` reads its window.

    Every centre, unless ``windows`` stores a chain; then, with no window
    read, those at which the chain read of ``WindowIndex.read`` finds no
    first fit, where the general read fails too and words the error.
    ``scanning.alpha_trace`` asks it of the first centre of each window
    content, and builds a chain's loop with no read when none fails.  At
    a centre that read slices the chain to the pieces [first, stop) that
    meet the window (lo, hi), and as the window moves right both ends only
    move forward.  Only the first piece can start at or before lo and only
    the last can end at or after hi; with l and r telling whether they do,
    the strictly inner pieces are [first + l, stop - r), or none when one
    piece is cut on both sides (then stop - r = first + l - 1).  The read
    breaks exactly when one of them has p + q != 0, which a prefix count
    of such pieces tells.  Otherwise its items are the pieces of the
    slice, except that the left-cut and right-cut pieces, two of one
    label, make a cut pair with that label when ``_pairs`` accepts them.
    A cut keeps the uncut end and its parity, all that ``_pairs``
    compares, so it is asked of the chain keys.  So the items' labels are
    those of [first, stop - paired), and the read succeeds exactly when
    fewer than two remain or they sum (``_sums``); ``FinitePam.sum_tuple``
    is order-free, so each range is summed once.
    """
    chain = windows._chain
    if chain is None:
        yield from centres
        return
    f = k // windows.scale
    lefts = [u * f for u in windows._chain_lefts]
    rights = [v * f for v in windows._chain_rights]
    labels = [m for _, m, _ in chain]
    flagged = [0, *accumulate(key[2] + key[3] != 0 for key, _, _ in chain)]
    sums, first, stop = {}, 0, 0
    for t in centres:
        lo, hi = t - e, t + e
        first = bisect_right(rights, lo, first)
        stop = bisect_left(lefts, hi, stop)
        if first == stop:
            continue
        cut_l, cut_r = lefts[first] <= lo, rights[stop - 1] >= hi
        if flagged[stop - cut_r] > flagged[first + cut_l]:
            yield t
            continue
        paired = (cut_l and cut_r and stop - first > 1 and labels[first] == labels[stop - 1]
                  and _pairs(chain[first][0], chain[stop - 1][0]))
        j = stop - paired
        if j - first > 1:
            if (first, j) not in sums:
                sums[first, j] = pam.sum_tuple(labels[first:j]) is not None
            if not sums[first, j]:
                yield t


def _moved(keys, a, b, d):
    """``keys`` with each end on the window end a or b moved by d."""
    return tuple([(u + d if u == a else u, v + d if v == b else v, p, q) for u, v, p, q in keys])


def admissibility_sweep(xi, eps, pam):
    """Decompose every combinatorially distinct window; yields (t, result).

    One result per centre of ``window_sweep_points``, each read by
    ``WindowIndex.read`` and counted; the first failing window raises its
    DecomposeError.
    """
    eps = _positive(eps, "eps")
    windows = WindowIndex(xi, pam)
    k, e, centres = _sweep_centres([key for key, _ in windows._keys], windows.scale, eps)
    for t in centres:
        yield Fraction(t, k), _decomp_result(windows.read(k, t - e, t + e, pam), k, pam)


@dataclass(frozen=True)
class AdmissibilityReport:
    """A verdict; a failing window is named in ``window`` as (lo, hi)."""

    ok: bool
    reason: str = None
    window: tuple = None

    def __bool__(self):
        return self.ok


def _is_chain(items):
    """True when sorted ``items``, each led by its key, chain as ``is_compatible`` asks.

    Each key must end before the next one starts, or where it starts with
    the opposite parity.
    """
    v, q = -inf, None
    for item in items:
        u, w, p, r = item[0]
        if v > u or v == u and q == p:
            return False
        v, q = w, r
    return True


def _tensor_sweep(items, pam):
    """None when sorted ``items``, each led by its key, are in the tensor region T.

    Otherwise a witness: ascending positions of pairwise conflicting pieces
    whose labels do not sum, though those of every proper part do.  Labels
    must be checked already.  A chain (``_is_chain``) is in T; else, skipping
    degenerate keys, at each endpoint x in increasing order let TH be the
    pieces with u < x < v, E_c and E_o those ending at x closed or open, and
    S_c and S_o those starting there closed or open.  The witness is
    ``_minimal_unsummable`` of the first of TH+E_c+E_o, TH+S_c+S_o,
    TH+E_c+S_c and TH+E_o+S_o whose labels do not sum.

    T asks that the labels of every clique of conflicting pieces sum, and
    that the pieces of every clique of insummable labels chain.  A
    degenerate piece reduces to none (``normalize_config``), so it is in no
    clique of pieces; two others conflict when neither precedes the other
    (``interval_leq``).  Let x be the largest left end of a clique K.  Each
    piece of K conflicts with one starting at x, so lies in TH, E or S at x.
    Pieces of TH+E, or of TH+S, share an open interval next to x; one
    ending and one starting at x conflict exactly when their parities there
    agree, as ``interval_leq`` refuses a closed-closed or open-open touch.
    So the four sets are cliques, and K lies in TH+E, in TH+S, or in the set
    of the parity its pieces of E and S share: as a part of a summable tuple
    sums, the interval side holds exactly when the four sets sum.  Pieces
    that do not chain hold a conflicting pair (the first sorted pair out of
    precedence; only degenerate pieces precede backwards), so a failing
    clique of labels fails on the interval side too, which decides T alone.

    TH+E_c+E_o, the cell before x, was summed as TH+S_c+S_o one endpoint
    before; TH+S_c+S_o is TH, a part of that cell, when nothing starts at
    x; TH+E_c+S_c is a part of a cell unless E_c and S_c both hold a piece,
    as TH+E_o+S_o is unless E_o and S_o do.  Only the sets left are summed,
    so the first failing set is the one the full order finds.  Each set is
    summed from TH's total, which exists, as TH is a part of the last
    TH+S_c+S_o summed: that sum while pieces only start, or, at the first
    start after a piece ends, the root of a tree of partial sums over the
    start order of the pieces (``_PartialSums``), where each piece that
    ended since became UNIT.  Until TH holds ``_TREE_MIN`` pieces at such
    a start, TH is summed afresh there instead, fewer than ``_TREE_MIN``
    labels each time; the tree is built from TH at the first such start
    where it holds that many, so small sweeps and sweeps whose pieces only
    start build none.  Every node of the tree sums a part of TH, so every node
    sums, and each piece that starts or ends costs O(log n) ``pair_sum``
    calls, once, when the tree is next read.  Nested pieces pass O(n)
    labels in all, and pieces that end and start under a wide TH
    O(n log n); sorting the 2n ends costs O(n log n).
    """
    if _is_chain(items):
        return None
    ends = []
    for i, item in enumerate(items):
        u, v, p, q = item[0]
        if u < v:
            ends += ((u, 1, p, i), (v, 0, q, i))
    ends.sort()

    def sums(indices, *total):
        return pam.sum_tuple([*total, *(items[i][1] for i in indices)])

    through, total, tree = {}, UNIT, None
    for _, group in groupby(ends, lambda end: end[0]):
        at = {(side, parity): [] for side in (0, 1) for parity in (CLOSED, OPEN)}
        for _, side, parity, i in group:
            at[side, parity].append(i)
        ec, eo, sc, so = at[0, CLOSED], at[0, OPEN], at[1, CLOSED], at[1, OPEN]
        for i in ec + eo:
            leaf = through.pop(i)
            if tree is not None:
                tree[leaf] = UNIT
            total = None
        if sc or so:
            if total is None:
                if tree is None and len(through) >= _TREE_MIN:
                    tree = _PartialSums(len(ends) // 2, pam)
                    through = {i: tree.append(items[i][1]) for i in through}
                if tree is None:
                    total = sums(through) if through else UNIT
                else:
                    total = tree.total()
            opened = sc + so
            new = sums(opened, total) if len(through) + len(opened) > 1 else items[opened[0]][1]
            for part in (opened, ec and sc and ec + sc, eo and so and eo + so):
                if part and (new if part is opened else sums(part, total)) is None:
                    return _minimal_unsummable(sums, sorted([*through, *part]))
            for i in opened:
                through[i] = None if tree is None else tree.append(items[i][1])
            total = new
    return None


# the least TH, in pieces, that _tensor_sweep keeps in a tree of partial
# sums rather than summing afresh; on small overlapping inputs (2 to 9
# pieces) the tree cost more than the sums it saves
_TREE_MIN = 8


class _PartialSums:
    """A tree of partial sums over up to n labels, appended in order.

    Leaf i is the i-th label appended, or UNIT once it is set so; a node
    is the sum of its two children.  A changed leaf marks its node stale,
    and ``total`` sums the stale nodes level by level, so each change
    costs O(log n) ``pair_sum`` calls once, and only when the total is
    read.  Every part of the leaves must sum.
    """

    __slots__ = ("nodes", "size", "count", "stale", "pam")

    def __init__(self, n, pam):
        self.size = 1 << n.bit_length()
        self.nodes = [UNIT] * (2 * self.size)
        self.count, self.stale, self.pam = 0, set(), pam

    def append(self, label):
        """Put ``label`` at the next leaf; returns the leaf."""
        leaf = self.size + self.count
        self.count += 1
        self[leaf] = label
        return leaf

    def __setitem__(self, leaf, label):
        self.nodes[leaf] = label
        self.stale.add(leaf >> 1)

    def total(self):
        """The sum of every leaf."""
        nodes, stale = self.nodes, self.stale
        while stale:
            for i in stale:
                a, b = nodes[2 * i], nodes[2 * i + 1]
                nodes[i] = a if b == UNIT else b if a == UNIT else self.pam.pair_sum(a, b)
            stale = {i >> 1 for i in stale if i > 1}
        self.stale = set()
        return nodes[1]


def is_admissible(xi, eps, support, pam):
    """Admissibility: tensor membership, decomposable windows, support.

    Returns an AdmissibilityReport; failures carry a reason instead of
    raising.  One WindowIndex serves all three checks.  The labels are
    checked once, by the index, and ``_tensor_sweep`` decides tensor
    membership on its keys; they are in ``lc_sorted`` order, so a witness
    names positions in ``lc_sorted(xi)``.  The windows are decided at the
    centres of ``_read_centres``, one per content.  On a stored chain one
    pass (``_centres_to_read``) decides them with no window read, and only
    the first failing window is read, by ``WindowIndex.read``, to word its
    error; other configurations read each of them.  The support check
    clips on the keys too.  ``restrict`` to the inner window keeps the
    configuration exactly when every piece clips to itself, and
    ``WindowIndex.clip`` clips as ``clip_interval`` does, so the support
    holds exactly when the clipped keys are the index's keys scaled to the
    window's scale.
    """
    eps = _positive(eps, "eps")
    a, b = _frac(support[0]), _frac(support[1])
    if b - a <= eps:
        raise DomainError("support window must be wider than eps")
    windows = WindowIndex(xi, pam)
    bad = _tensor_sweep(windows._keys, pam)
    if bad is not None:
        return AdmissibilityReport(False, "not in the tensor region: %r" % (("first", bad),))
    k, e, centres = _read_centres(windows, eps)
    try:
        # Every window must decompose: a read checks first fit with one
        # sum and counts nothing.  Over a self-insummable pam a summable
        # tuple holds each nonzero label at most once, which forces the
        # matching, so the count ``admissibility_sweep`` reports is 1 there.
        for t in _centres_to_read(windows, k, e, centres, pam):
            windows.read(k, t - e, t + e, pam)
    except DecomposeError as err:
        return AdmissibilityReport(False, str(err), err.window)
    except DomainError as err:
        return AdmissibilityReport(False, str(err))
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

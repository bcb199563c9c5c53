"""Finite partial abelian monoids.

A partial abelian monoid is a based set with a partially defined, symmetric,
associative sum for which the base element "0" is a unit.  A carrier lists
its nonunit sums, one per unordered pair; unit sums (0 + a = a) are
implicit.  FinitePam keeps every summable ordered pair, both orders and the
unit sums included, so a pair absent from it is insummable.
"""

from __future__ import annotations

UNIT = "0"


class PamError(Exception):
    """Structural problem: malformed table or violated axiom."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class DomainError(Exception):
    """A value lies outside the domain of the requested operation."""


class UndecidedError(DomainError):
    """An internal bound ran out before the operation decided; the message names it.

    Nothing in the library raises it now: a bounded configuration search
    reports UNKNOWN through ``EqVerdict``.  It stays a public name.
    """


class FinitePam:
    """A finite partial abelian monoid given by an explicit sum table.

    ``sums`` maps unordered pairs of element ids to their sum, or lists
    ((a, b), c) items in order, so that a pair may be given twice.  The
    constructor validates the whole structure and raises PamError carrying
    every violation found, each with a witnessing triple or pair.  A table
    whose element ids repeat is refused with the repeated ids named, and
    without the associativity scan, whose triples are ill-defined there.
    """

    __slots__ = ("name", "elements", "_index", "_pairs", "_parts")

    def __init__(self, name, elements, sums):
        self.name = name
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._pairs = {}
        problems = self._build(sums)
        if len(self._index) == len(self.elements):
            problems += self._violations()
        if problems:
            raise PamError(
                "invalid partial abelian monoid %r: %s" % (name, "; ".join(problems)),
                violations=problems,
            )

    def _build(self, sums):
        """Fill ``_pairs``, the sum of every summable ordered pair, unit sums
        included, and ``_parts``, the pairs of each sum in element-index
        order; return the problems found in the table itself."""
        out = []
        index = self._index
        # _index keeps an id's last position, so every earlier one repeats it
        repeated = dict.fromkeys(e for i, e in enumerate(self.elements) if index[e] != i)
        if repeated:
            out.append("duplicate element ids: %s" % ", ".join(repeated))
        if UNIT not in self._index:
            out.append("missing unit element %r" % UNIT)
            return out
        pairs = self._pairs
        for x in self.elements:
            pairs[UNIT, x] = pairs[x, UNIT] = x
        for (a, b), c in sums.items() if hasattr(sums, "items") else sums:
            for x in (a, b, c):
                if x not in self._index:
                    out.append("sum %s + %s = %s uses unknown element %s" % (a, b, c, x))
                    break
            else:
                if a == UNIT or b == UNIT:
                    # implicit unit sums may be restated, but only consistently
                    other = b if a == UNIT else a
                    if c != other:
                        out.append("unit violation: %s + %s = %s" % (a, b, c))
                    continue
                old = pairs.get((a, b))
                if old is not None and old != c:
                    out.append("conflicting sums for (%s, %s): %s and %s" % (a, b, old, c))
                else:
                    pairs[a, b] = pairs[b, a] = c
        parts = self._parts = {}
        for xy in sorted(pairs, key=lambda xy: (index[xy[0]], index[xy[1]])):
            parts.setdefault(pairs[xy], []).append(xy)
        return out

    def _table(self):
        """``tab[i][j]``: the index of element i + element j, or None."""
        index = self._index
        n = len(self.elements)
        tab = [[None] * n for _ in range(n)]
        for (a, b), c in self._pairs.items():
            tab[index[a]][index[b]] = index[c]
        return tab

    def _triples(self, tab):
        """The triples that can fail, as (a, b, cs) for each non-unit pair
        (a, b) in element order: cs lists the c to check, in element order.

        When a+b is defined every non-unit c is checked; otherwise only the
        c with b+c defined.
        """
        index = self._index
        order = [index[e] for e in self.elements if e != UNIT]
        rows = [[c for c in order if row[c] is not None] for row in tab]
        for a in order:
            row = tab[a]
            for b in order:
                yield a, b, order if row[b] is not None else rows[b]

    def _violations(self):
        """Associativity scan, exhaustive over the triples that can fail.

        The axiom: (a,b) and (a+b,c) are summable iff (b,c) and (a,b+c) are,
        and then the totals agree.  A triple that contains the unit holds
        by the unit law: both sides reduce to the sum of the other two.  A
        side can be defined only if its inner pair is, so when neither
        (a,b) nor (b,c) is defined both sides are undefined and the triple
        holds.  ``_triples`` skips exactly these, so the work is O(n^2) for
        the table plus O(D*n) for D defined pairs.  The product order is
        lexicographic on positions; the scan runs a, b and c over positions
        in that order and only leaves triples out, so the failures come out
        in ``itertools.product`` order, each with its witnessing triple.
        """
        if UNIT not in self._index:
            return []
        elements = self.elements
        tab = self._table()
        undefined = [None] * len(elements)
        out = []
        for a, b, cs in self._triples(tab):
            row_a, row_b = tab[a], tab[b]
            ab = row_a[b]
            row_ab = undefined if ab is None else tab[ab]
            for c in cs:
                left = row_ab[c]
                bc = row_b[c]
                right = None if bc is None else row_a[bc]
                if left == right:
                    continue
                x, y, z = elements[a], elements[b], elements[c]
                if left is None or right is None:
                    side = "(%s+%s)+%s" if right is None else "%s+(%s+%s)"
                    detail = "only %s is defined" % (side % (x, y, z))
                else:
                    detail = "%s != %s" % (elements[left], elements[right])
                out.append("associativity fails at triple (%s, %s, %s): %s" % (x, y, z, detail))
        return out

    def check_element(self, x):
        if x not in self._index:
            raise DomainError("unknown element %r of pam %r" % (x, self.name))
        return x

    def index(self, x):
        return self._index[self.check_element(x)]

    def pair_sum(self, a, b):
        """The sum of two elements, or None when the pair is insummable."""
        self.check_element(a)
        self.check_element(b)
        return self._add(a, b)

    def _add(self, a, b):
        """``pair_sum`` of two elements already checked: one dict lookup."""
        return self._pairs.get((a, b))

    def defined(self, a, b):
        return self.pair_sum(a, b) is not None

    def sum_tuple(self, elems):
        """Total sum of a tuple, None if undefined.

        Sums are symmetric, and the constructor checks that (a+b)+c is
        defined exactly when a+(b+c) is, with equal values.  So swapping two
        adjacent summands changes neither definedness nor value, every
        ordering folds like the given one, and one left fold decides the sum.
        """
        elems = tuple(elems)
        index = self._index
        for x in elems:
            if x not in index:
                self.check_element(x)
        if not elems:
            return UNIT
        add = self._pairs.get
        acc = elems[0]
        for x in elems[1:]:
            acc = add((acc, x))
            if acc is None:
                return None
        return acc

    def is_self_insummable(self):
        """True when a + a is undefined for every nonzero a."""
        return all(
            not self.defined(a, a) for a in self.elements if a != UNIT
        )

    def partitions(self, m):
        """Ordered pairs (x, y) with x + y = m, sorted by element index."""
        return list(self._parts.get(self.check_element(m), ()))

    def nonzero_partitions(self, m):
        return [(x, y) for x, y in self.partitions(m) if x != UNIT and y != UNIT]

    def sum_rows(self):
        """Nonunit sums as (a, b, c) rows, a before b, in element-index order."""
        index = self._index
        rows = [
            (a, b, c)
            for (a, b), c in self._pairs.items()
            if a != UNIT and b != UNIT and index[a] <= index[b]
        ]
        rows.sort(key=lambda r: (index[r[0]], index[r[1]]))
        return rows

    def __repr__(self):
        return "FinitePam(%r, %d elements, %d sums)" % (
            self.name,
            len(self.elements),
            len(self.sum_rows()),
        )


def validate_pam(name, elements, sums):
    """Build a FinitePam, returning (pam, []) or (None, violations)."""
    try:
        return FinitePam(name, elements, sums), []
    except PamError as e:
        if e.violations:
            return None, e.violations
        raise

"""Finite partial abelian monoids.

A partial abelian monoid is a based set with a partially defined, symmetric,
associative sum for which the base element "0" is a unit.  Sums are stored
sparsely: a pair that is absent from the table is insummable.  Unit sums
(0 + a = a) are implicit and never stored.
"""

from __future__ import annotations

import itertools

UNIT = "0"


class PamError(Exception):
    """Structural problem: malformed table or violated axiom."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class DomainError(Exception):
    """A value lies outside the domain of the requested operation."""


class FinitePam:
    """A finite partial abelian monoid given by an explicit sum table.

    ``sums`` maps unordered pairs of element ids to their sum.  The
    constructor validates the whole structure and raises PamError carrying
    every violation found, each with a witnessing triple or pair.
    """

    __slots__ = ("name", "elements", "_index", "_sums")

    def __init__(self, name, elements, sums):
        self.name = name
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._sums = {}
        problems = self._build(sums)
        problems += self._violations()
        if problems:
            raise PamError(
                "invalid partial abelian monoid %r: %s" % (name, "; ".join(problems)),
                violations=problems,
            )

    def _build(self, sums):
        out = []
        if len(set(self.elements)) != len(self.elements):
            out.append("duplicate element ids")
        if UNIT not in self._index:
            out.append("missing unit element %r" % UNIT)
            return out
        for (a, b), c in dict(sums).items():
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
                key = self._key(a, b)
                if key in self._sums and self._sums[key] != c:
                    out.append(
                        "conflicting sums for (%s, %s): %s and %s"
                        % (a, b, self._sums[key], c)
                    )
                else:
                    self._sums[key] = c
        return out

    def _key(self, a, b):
        if self._index[a] <= self._index[b]:
            return (a, b)
        return (b, a)

    def _violations(self):
        """Exhaustive associativity scan over ordered triples.

        The axiom: (a,b) and (a+b,c) are summable iff (b,c) and (a,b+c) are,
        and then the totals agree.  Each failure reports its witnessing
        triple.
        """
        if UNIT not in self._index:
            return []
        out = []
        add = self._add
        for a, b, c in itertools.product(self.elements, repeat=3):
            ab = add(a, b)
            left = add(ab, c) if ab is not None else None
            bc = add(b, c)
            right = add(a, bc) if bc is not None else None
            if (left is None) != (right is None):
                side = "(%s+%s)+%s" % (a, b, c) if left is not None else "%s+(%s+%s)" % (a, b, c)
                out.append(
                    "associativity fails at triple (%s, %s, %s): only %s is defined"
                    % (a, b, c, side)
                )
            elif left is not None and left != right:
                out.append(
                    "associativity fails at triple (%s, %s, %s): %s != %s"
                    % (a, b, c, left, right)
                )
        return out

    def check_element(self, x):
        if x not in self._index:
            raise DomainError("unknown element %r of pam %r" % (x, self.name))
        return x

    def index(self, x):
        return self._index[self.check_element(x)]

    def is_zero(self, x):
        return self.check_element(x) == UNIT

    def pair_sum(self, a, b):
        """The sum of two elements, or None when the pair is insummable."""
        self.check_element(a)
        self.check_element(b)
        return self._add(a, b)

    def _add(self, a, b):
        """``pair_sum`` of two elements already checked: a table lookup."""
        if a == UNIT:
            return b
        if b == UNIT:
            return a
        return self._sums.get(self._key(a, b))

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
        for x in elems:
            self.check_element(x)
        if not elems:
            return UNIT
        acc = elems[0]
        for x in elems[1:]:
            acc = self._add(acc, x)
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
        self.check_element(m)
        out = [
            (x, y)
            for x in self.elements
            for y in self.elements
            if self._add(x, y) == m
        ]
        out.sort(key=lambda xy: (self._index[xy[0]], self._index[xy[1]]))
        return out

    def nonzero_partitions(self, m):
        return [(x, y) for x, y in self.partitions(m) if x != UNIT and y != UNIT]

    def sum_rows(self):
        """Stored nonunit sums as (a, b, c) rows in element-index order."""
        rows = [(a, b, c) for (a, b), c in self._sums.items()]
        rows.sort(key=lambda r: (self._index[r[0]], self._index[r[1]]))
        return rows

    def __repr__(self):
        return "FinitePam(%r, %d elements, %d sums)" % (
            self.name,
            len(self.elements),
            len(self._sums),
        )


def validate_pam(name, elements, sums):
    """Build a FinitePam, returning (pam, []) or (None, violations)."""
    try:
        return FinitePam(name, elements, sums), []
    except PamError as e:
        if e.violations:
            return None, e.violations
        raise

"""Parity-typed intervals and unlabeled interval configurations.

An interval carries a parity at each endpoint: +1 closed, -1 open.  The
partial sum of configurations is defined exactly when the combined multiset
can be linearly ordered by the strict precedence relation below; the reduced
representative is then obtained by deleting degenerate intervals and pasting
touching pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pam import DomainError

CLOSED = 1
OPEN = -1


class IncompatibleConfig(Exception):
    """The multiset admits no linear order under interval precedence."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _positive(x, what):
    """``x`` as a Fraction; DomainError naming ``what`` unless x > 0."""
    x = _frac(x)
    if x <= 0:
        raise DomainError("%s must be positive" % what)
    return x


@dataclass(frozen=True)
class Interval:
    """An interval (u, v) with endpoint parities p (left) and q (right)."""

    u: Fraction
    v: Fraction
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "u", _frac(self.u))
        object.__setattr__(self, "v", _frac(self.v))
        if self.p not in (CLOSED, OPEN) or self.q not in (CLOSED, OPEN):
            raise ValueError("parities must be +1 (closed) or -1 (open)")
        if self.u > self.v:
            raise ValueError("interval endpoints out of order: %s > %s" % (self.u, self.v))
        if self.u == self.v and self.p == self.q:
            raise ValueError("degenerate interval requires opposite parities")

    @classmethod
    def _trusted(cls, u, v, p, q):
        """An Interval from parts already in the checked form, unchecked.

        ``u`` and ``v`` must be Fractions with u < v, or u == v and p != q,
        and ``p`` and ``q`` each CLOSED or OPEN; ``labeled_normalize``
        builds the pieces its pastes make so.
        """
        j = object.__new__(cls)
        object.__setattr__(j, "u", u)
        object.__setattr__(j, "v", v)
        object.__setattr__(j, "p", p)
        object.__setattr__(j, "q", q)
        return j

    @property
    def is_degenerate(self):
        return self.u == self.v

    @property
    def length(self):
        return self.v - self.u

    def sort_key(self):
        return (self.u, self.v, self.p, self.q)

    def mirror(self):
        return Interval(-self.v, -self.u, -self.q, -self.p)

    def translate(self, d):
        d = _frac(d)
        return Interval(self.u + d, self.v + d, self.p, self.q)

    def map_endpoints(self, f):
        """Apply a monotone increasing endpoint map, keeping parities.

        Returns None when the image is degenerate with equal parities,
        i.e. the piece collapses away.
        """
        nu, nv = _frac(f(self.u)), _frac(f(self.v))
        if nu == nv and self.p == self.q:
            return None
        return Interval(nu, nv, self.p, self.q)


def interval_leq(j1, j2):
    """Strict precedence: j1 lies entirely before j2.

    Touching endpoints are allowed only with opposite parities, so that at
    most one of the two intervals contains the shared point.
    """
    if j1.v < j2.u:
        return True
    return j1.v == j2.u and j1.q != j2.p


def is_chain(intervals):
    """True when consecutive members of the sequence satisfy precedence."""
    return all(interval_leq(a, b) for a, b in zip(intervals, intervals[1:]))


def normalize_config(intervals):
    """Reduced representative of an unlabeled multiset of intervals.

    Sorts, verifies the sorted sequence is a precedence chain (raising
    IncompatibleConfig otherwise), then deletes degenerate intervals and
    pastes touching pairs in one left-to-right pass.  The result has
    pairwise strictly separated, non-degenerate members.
    """
    items = sorted(intervals, key=Interval.sort_key)
    for a, b in zip(items, items[1:]):
        if not interval_leq(a, b):
            raise IncompatibleConfig(
                "no valid order: %r does not precede %r" % (a, b)
            )
    out = []
    for b in items:
        if b.is_degenerate:
            continue
        if out and out[-1].v == b.u:
            # chain order forces opposite parities here, and the paste keeps
            # the left end, so nothing behind it starts to touch
            a = out.pop()
            b = Interval(a.u, b.v, a.p, b.q)
        out.append(b)
    return tuple(out)


def is_compatible(intervals):
    try:
        normalize_config(intervals)
        return True
    except IncompatibleConfig:
        return False


def merge_summable(c1, c2):
    """Partial sum of two configurations: None when incompatible."""
    try:
        return normalize_config(tuple(c1) + tuple(c2))
    except IncompatibleConfig:
        return None


def clip_interval(j, a, b):
    """Set intersection of an interval with the open window (a, b).

    Parities at surviving original endpoints are kept; clipped ends become
    open.  Returns None when the intersection is empty.
    """
    a, b = _frac(a), _frac(b)
    if j.is_degenerate:
        return j if a < j.u < b else None
    nu = max(j.u, a)
    nv = min(j.v, b)
    if nu >= nv:
        # a width-zero result sits at a clipped edge, outside the open window
        return None
    np = j.p if j.u > a else OPEN
    nq = j.q if j.v < b else OPEN
    return Interval(nu, nv, np, nq)

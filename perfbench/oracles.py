"""Expected answers computed without pamscan.

Each oracle works on the plain tuples of ``gen`` and returns plain values,
so a defect shared by pamscan's layers cannot also hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction

from gen import CLOSED, OPEN

HALF = Fraction(1, 2)
BASEPOINT = Fraction(1)


def norm_circle(t):
    r = Fraction(t) % 2
    return r - 2 if r > 1 else r


# --- carriers -------------------------------------------------------------

def m3_sum(labels):
    """Total of an M3 label multiset (a + b = c), None when undefined."""
    counts = {m: labels.count(m) for m in "abc"}
    if any(n > 1 for n in counts.values()):
        return None
    if counts["c"] and (counts["a"] or counts["b"]):
        return None
    if counts["a"] and counts["b"]:
        return "c"
    for m in "abc":
        if counts[m]:
            return m
    return "0"


def cyclic_value(label):
    return 0 if label == "0" else int(label[1:])


def cyclic_sum(labels, n):
    """Z/n: the integer sum mod n, always defined."""
    total = sum(cyclic_value(m) for m in labels) % n
    return "0" if total == 0 else "g%d" % total


def trunc_sum(labels, k):
    """{0..K} with a + b defined iff a + b <= K: defined iff the total is."""
    total = sum(0 if m == "0" else int(m[1:]) for m in labels)
    if total > k:
        return None
    return "0" if total == 0 else "t%d" % total


def canon(pairs, total_of):
    """Canonical circle sum of (coordinate, label) pairs, or None.

    Returns ``(m0, ((t, m), ...))`` with basepoint coordinates and zero
    labels dropped and coincident coordinates summed; None when the label
    multiset has no total.
    """
    kept = [(norm_circle(t), m) for t, m in pairs]
    kept = [(t, m) for t, m in kept if t != BASEPOINT and m != "0"]
    if total_of([m for _, m in kept]) is None:
        return None
    groups = {}
    for t, m in kept:
        groups.setdefault(t, []).append(m)
    m0, points = None, []
    for t in sorted(groups):
        total = total_of(groups[t])
        if total == "0":
            continue
        if t == 0:
            m0 = total
        else:
            points.append((t, total))
    return m0, tuple(points)


# --- scanning values of an M3 chain ------------------------------------------

def omega(piece, s):
    """Scan value of one interval at s (the paper's single-strand ramp)."""
    u, v, p, q = piece[:4]
    if v - u > 1:
        if u - HALF < s <= u + HALF:
            return norm_circle(p * (s - u - HALF))
        if u + HALF < s <= v - HALF:
            return Fraction(0)
        if v - HALF < s <= v + HALF:
            return norm_circle(q * (s - v + HALF))
        return BASEPOINT
    if u - HALF < s <= v - HALF:
        return norm_circle(p * (s - u - HALF))
    if v - HALF < s <= u + HALF:
        return norm_circle(p * (v - u - 1))
    if u + HALF < s <= v + HALF:
        return norm_circle(q * (s - v + HALF))
    return BASEPOINT


def _cut_pair_value(left, right, s):
    sees_left, sees_right = s - 1 < left[1], s + 1 > right[0]
    if not sees_right:
        return omega(left, s)
    if not sees_left:
        return omega(right, s)
    # a window holding both facing ends reads the pair as one unit; the cut
    # parity decides which strand's outer end it closes
    if left[3] == CLOSED:
        right = right[:3] + (CLOSED,)
    else:
        left = left[:2] + (CLOSED,) + left[3:]
    if s <= right[0] - HALF:
        return omega(left, s)
    if s >= left[1] + HALF:
        return omega(right, s)
    return norm_circle(left[3] * (right[0] - left[1]))


def scan_units(pieces):
    """Group a chain into scan units: lone pieces and same-label cut pairs."""
    units = []
    items = sorted(pieces)
    i = 0
    while i < len(items):
        a = items[i]
        if i + 1 < len(items):
            b = items[i + 1]
            if (
                a[4] == b[4]
                and 0 < b[0] - a[1] < 2
                and a[3] + b[2] == 0
                and a[1] - a[0] >= 2
                and b[1] - b[0] >= 2
            ):
                units.append((a, b))
                i += 2
                continue
        units.append((a,))
        i += 1
    return units


def chain_value(units, s):
    """Expected alpha value of a chain at s, as ``canon`` returns it."""
    return canon([(_unit_value(unit, s), unit[0][4]) for unit in units], m3_sum)


def symmetric_units(pieces):
    """Scan units of a mirror-invariant configuration.

    Zero-crossing pieces stand alone; a positive strand and its mirror form
    a cut pair when their facing ends are closer than a window spans.
    """
    units = []
    for pc in pieces:
        u, v, p, q, m = pc
        if u < 0 < v:
            units.append((pc,))
        elif u > 0:
            mirror = (-v, -u, -q, -p, m)
            units.extend([(mirror, pc)] if 2 * u < 2 else [(mirror,), (pc,)])
    return units


# --- M3 normal forms and the fiber maps on plain tuples ----------------------

def m3_normal_form(pieces):
    """Normal form: drop zero labels and degenerate pieces, merge coincident
    intervals by summing labels, paste touching equal-label pieces."""
    items = [pc for pc in pieces if pc[4] != "0" and pc[0] != pc[1]]
    changed = True
    while changed:
        changed = False
        items.sort()
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if a[:4] == b[:4]:
                total = m3_sum([a[4], b[4]])
                if total is None:
                    raise ValueError("coincident pieces with unsummable labels")
                items[i : i + 2] = [a[:4] + (total,)]
                changed = True
                break
        if changed:
            continue
        ends = {}
        for i, pc in enumerate(items):
            ends.setdefault((pc[0], pc[4]), []).append(i)
        for i, a in enumerate(items):
            for k in ends.get((a[1], a[4]), ()):
                b = items[k]
                if k != i and a[3] != b[2]:
                    items[i] = (a[0], b[1], a[2], b[3], a[4])
                    del items[k]
                    changed = True
                    break
            if changed:
                break
    return tuple(sorted(items))


def positive_part(pieces):
    """Fold a symmetric normal form: zero-crossing (-w, w) becomes [0, w)."""
    out = []
    for u, v, p, q, m in pieces:
        if u < 0 < v:
            out.append((Fraction(0), v, CLOSED, q, m))
        elif u >= 0:
            out.append((u, v, p, q, m))
    return tuple(sorted(out))


def contract(pieces, t, s):
    d = t * s

    def f(x):
        return x - d if x >= d else x + d if x <= -d else Fraction(0)

    moved = []
    for u, v, p, q, m in pieces:
        nu, nv = f(u), f(v)
        if not (nu == nv and p == q):
            moved.append((nu, nv, p, q, m))
    return m3_normal_form(moved)


def cap_project(pieces, s):
    """(scan value at 0, cap payload, new length) of a symmetric config."""
    z = canon(
        [(_unit_value(unit, Fraction(0)), unit[0][4]) for unit in symmetric_units(pieces)],
        m3_sum,
    )
    pos = positive_part(pieces)
    cap = [(1 - u, 2 - u, OPEN, -p, m) for u, v, p, q, m in pos if u <= HALF]
    moved = [(u + 2, v + 2, p, q, m) for u, v, p, q, m in pos]
    return z, tuple(sorted(cap + moved)), s + 2


def _unit_value(unit, s):
    if len(unit) == 1:
        return omega(unit[0], s)
    return _cut_pair_value(unit[0], unit[1], s)

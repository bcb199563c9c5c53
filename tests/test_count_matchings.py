"""Window decomposition by counting, against the matching-listing oracle.

The oracle lists every partial matching of left-anchored to right-anchored
pieces, sums the label tuple of each, and keeps the first valid one in
depth-first order; the library counts by pair numbers and finds the first
valid matching by first fit.  Both must give the same DecompResult, or
raise the same error.  The work guard counts sums, so a decomposition that
lists matchings cannot return without a failing test.

The keyed oracle is the read that checked tensor membership and counted
the matchings on every window before it took first fit; the library's read
takes first fit and sums its labels once, and only a result is counted.
Both must give the same items and counts, or raise the same error.

The keyed sweep oracle reads the window of every centre; the library's
sweep reads each window content once and moves a neighbour's clipped ends
for the rest.  Both must yield the same centres, items and counts, and
stop at the same first error.
"""

import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

import pamscan.pam as pam_module
from pamscan import (
    CLOSED,
    OPEN,
    DecompResult,
    DecomposeError,
    DomainError,
    Elem1,
    Elem2,
    Interval,
    WindowIndex,
    admissibility_sweep,
    decompose_window,
    in_T_labeled,
    labeled_normalize,
    restrict,
)
from pamscan.labeled import (
    E1_INTERIOR,
    E1_LEFT,
    E1_RIGHT,
    E1_WHOLE,
    _classify,
    _endpoint_keys,
    _interval,
    _normal_keys,
    _num,
    _sweep_centres,
)

from genutil import cyclic_pam, rand_admissible, truncated_pam

Z5 = cyclic_pam(5)
PARITIES = (OPEN, CLOSED)


def oracle_classify(j, a, b):
    """The elementary kind of the Interval j in the window (a, b), on Fractions."""
    if j.u == a and j.v == b:
        if j.p == OPEN and j.q == OPEN:
            return E1_WHOLE
        return None
    if j.u == a:
        if j.p == OPEN and a < j.v < b:
            return E1_LEFT
        return None
    if j.v == b:
        if j.q == OPEN and a < j.u < b:
            return E1_RIGHT
        return None
    if a < j.u and j.v < b:
        if j.p + j.q == 0:
            return E1_INTERIOR
        return None
    return None


def oracle_decompose(xi_t, a, b, pam):
    """Every matching listed, each label tuple summed: the slow reading."""
    a, b = F(a), F(b)
    w = labeled_normalize(xi_t, pam)
    ok, wit = in_T_labeled(w, pam, witness=True)
    if not ok:
        side, idx = wit
        labels = [w[i][1] for i in idx]
        if side == "second":
            raise DecomposeError(
                "window (%s, %s): labels %r are pairwise insummable but their "
                "intervals do not merge" % (a, b, labels)
            )
        raise DecomposeError(
            "window (%s, %s): pieces %r collide but their labels %r are not "
            "jointly summable" % (a, b, [w[i][0] for i in idx], labels)
        )
    fixed, lefts, rights = [], [], []
    for j, m in w:
        kind = oracle_classify(j, a, b)
        if kind is None:
            raise DecomposeError(
                "window (%s, %s): piece %r:%s is not elementary" % (a, b, j, m)
            )
        if kind == E1_LEFT:
            lefts.append((j, m))
        elif kind == E1_RIGHT:
            rights.append((j, m))
        else:
            fixed.append(Elem1(kind, j, m))
    compatible = [
        [
            ri
            for ri, (jr, mr) in enumerate(rights)
            if ml == mr and jl.v < jr.u and jl.q + jr.p == 0
        ]
        for jl, ml in lefts
    ]
    valid = []

    def assignments(li, used, acc):
        if li == len(lefts):
            valid.append(list(acc))
            return
        for ri in compatible[li]:
            if ri not in used:
                acc.append((li, ri))
                assignments(li + 1, used | {ri}, acc)
                acc.pop()
        assignments(li + 1, used, acc)

    assignments(0, frozenset(), [])
    results = []
    for matching in valid:
        matched_l = {li for li, _ in matching}
        matched_r = {ri for _, ri in matching}
        items = list(fixed)
        for li, ri in matching:
            items.append(Elem2(lefts[li][0], rights[ri][0], lefts[li][1]))
        items += [Elem1(E1_LEFT, j, m) for li, (j, m) in enumerate(lefts) if li not in matched_l]
        items += [Elem1(E1_RIGHT, j, m) for ri, (j, m) in enumerate(rights) if ri not in matched_r]
        if pam.sum_tuple([e.label for e in items]) is not None:
            results.append(tuple(sorted(items, key=lambda e: e.sort_key())))
    if not results:
        raise DecomposeError(
            "window (%s, %s): no matching makes the label multiset summable "
            "(content %r)" % (a, b, list(w))
        )
    return DecompResult(items=results[0], count=len(results))


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as e:
        return type(e).__name__, str(e)


def _grid(rng, lo, hi):
    """A sixteenth-grid rational strictly inside (lo, hi), both integers."""
    return F(rng.randint(16 * lo + 1, 16 * hi - 1), 16)


def rand_window(rng, labels, most=6):
    """Content of the window (0, 2): anchored, whole and interior pieces.

    Each window draws one or two labels and cut parities, and half of the
    windows put every left cut before every right start, so that many
    matchings are valid.  Small counts are the likelier ones, so most
    windows stay cheap for the oracle, yet ``most`` + ``most`` comes up.
    """
    sizes = list(range(most + 1))
    n_left, n_right = rng.choices(sizes, [most + 1 - k for k in sizes], k=2)
    labels = rng.sample(labels, rng.randint(1, min(2, len(labels))))
    parities = rng.sample(PARITIES, rng.randint(1, 2))
    mid = 1 if rng.random() < 0.5 else 2
    xi = []
    for _ in range(n_left):
        j = Interval(0, _grid(rng, 0, mid), OPEN, rng.choice(parities))
        xi.append((j, rng.choice(labels)))
    for _ in range(n_right):
        j = Interval(_grid(rng, 2 - mid, 2), 2, -rng.choice(parities), OPEN)
        xi.append((j, rng.choice(labels)))
    if rng.random() < 0.3:
        xi.append((Interval(0, 2, OPEN, OPEN), rng.choice(labels)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        u = _grid(rng, 0, 2)
        v = u + F(rng.randint(0, 8), 16)
        if v < 2:
            p = rng.choice(PARITIES)
            xi.append((Interval(u, v, p, -p), rng.choice(labels)))
    return xi


CARRIERS = {
    "m3": ("a", "b", "c"),
    "z2": ("g",),
    "z5": ("g1", "g2", "g3", "g4"),
    "trunc6": ("1", "2", "3"),
}


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_counting_matches_the_listing_oracle(name, m3, z2):
    pam = {"m3": m3, "z2": z2, "z5": Z5, "trunc6": truncated_pam(6)}[name]
    rng = random.Random("count-%s" % name)
    decided = counted = 0
    for _ in range(700):
        xi = rand_window(rng, CARRIERS[name])
        want = _outcome(oracle_decompose, xi, 0, 2, pam)
        assert _outcome(decompose_window, xi, 0, 2, pam) == want, xi
        if isinstance(want, DecompResult):
            decided += 1
            counted += want.count > 1
    # over M3 two pieces of one label never sum, so most windows fail and
    # every decided count is 1 (see is_admissible)
    assert decided >= (50 if name == "m3" else 250), decided
    assert counted == 0 if name == "m3" else counted >= 50, counted


def _g1_window(k):
    """k pieces (0, x):g1 and k pieces [y, 1):g1, every x before every y."""
    xi = [(Interval(0, F(i + 1, 4 * k), OPEN, OPEN), "g1") for i in range(k)]
    xi += [(Interval(F(1, 2) + F(i, 4 * k), 1, CLOSED, OPEN), "g1") for i in range(k)]
    return xi


def test_full_board_counts():
    # every partial matching is valid over Z/5: sum_i C(k, i)^2 i! of them
    assert decompose_window(_g1_window(6), 0, 1, Z5) == oracle_decompose(_g1_window(6), 0, 1, Z5)
    for k, want in ((6, 13327), (7, 130922), (8, 1441729)):
        res = decompose_window(_g1_window(k), 0, 1, Z5)
        assert res.count == want
        assert sum(isinstance(e, Elem2) for e in res.items) == k


def test_sums_grow_slowly_with_the_window(monkeypatch):
    calls = {"sum_tuple": 0, "pair_sum": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pam_module.FinitePam, name, counted(name, getattr(pam_module.FinitePam, name)))
    counts = {}
    for k in (8, 16, 32):
        for name in calls:
            calls[name] = 0
        assert decompose_window(_g1_window(k), 0, 1, Z5).count > 0
        counts[k] = dict(calls)
    for name in calls:
        assert counts[16][name] <= 4 * counts[8][name], counts
        assert counts[32][name] <= 4 * counts[16][name], counts



def _window_text(lo, hi, scale):
    return "window (%s, %s)" % (F(lo, scale), F(hi, scale))


def oracle_decompose_keys(keyed, scale, lo, hi, pam):
    """The keyed read with a tensor check and a count: returns (items, count)."""
    for _, m, _ in keyed:
        pam.check_element(m)
    w = _normal_keys(keyed, pam, scale)
    if not all(
        x[1] < y[0] or (x[1] == y[0] and x[3] != y[2]) for (x, _, _), (y, _, _) in zip(w, w[1:])
    ):
        pieces = [(_interval(key, scale), m) for key, m, _ in w]
        ok, wit = in_T_labeled(pieces, pam, witness=True)
        if not ok:
            side, idx = wit
            labels = [pieces[i][1] for i in idx]
            if side == "second":
                raise DecomposeError(
                    "%s: labels %r are pairwise insummable but their "
                    "intervals do not merge" % (_window_text(lo, hi, scale), labels)
                )
            raise DecomposeError(
                "%s: pieces %r collide but their labels %r are not jointly summable"
                % (_window_text(lo, hi, scale), [pieces[i][0] for i in idx], labels)
            )
    items, lefts, rights = [], [], []
    for key, m, _ in w:
        kind = _classify(key, lo, hi)
        if kind is None:
            raise DecomposeError(
                "%s: piece %r:%s is not elementary"
                % (_window_text(lo, hi, scale), _interval(key, scale), m)
            )
        if kind == E1_LEFT:
            lefts.append((key, m))
        elif kind == E1_RIGHT:
            rights.append((key, m))
        else:
            items.append((0, key, m, kind))

    n = oracle_count_matchings(pam, [e[2] for e in items], lefts, rights)
    if not n:
        raise DecomposeError(
            "%s: no matching makes the label multiset summable (content %r)"
            % (_window_text(lo, hi, scale), [(_interval(key, scale), m) for key, m, _ in w])
        )
    for kl, ml in lefts:
        kr = next((kr for kr, mr in rights if mr == ml and kl[1] < kr[0] and kl[3] + kr[2] == 0), None)
        if kr is None:
            items.append((0, kl, ml, E1_LEFT))
        else:
            rights.remove((kr, ml))
            items.append((1, kl, kr, ml))
    items.extend((0, kr, mr, E1_RIGHT) for kr, mr in rights)
    items.sort()
    return items, n


def oracle_count_matchings(pam, labels, lefts, rights):
    """Valid matchings by rook numbers, from the (key, label) anchored pieces."""
    boards = {}
    for (_, v, _, q), m in lefts:
        boards.setdefault((m, q), ([], []))[0].append(v)
    for (u, _, p, _), m in rights:
        boards.setdefault((m, -p), ([], []))[1].append(u)
    labels = list(labels)
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


def oracle_result(items, n, scale):
    """The DecompResult of keyed ``items`` and the count ``n``."""
    out = []
    for e in items:
        if e[0]:
            out.append(Elem2(_interval(e[1], scale), _interval(e[2], scale), e[3]))
        else:
            out.append(Elem1(e[3], _interval(e[1], scale), e[2]))
    return DecompResult(items=tuple(out), count=n)


def oracle_keyed_window(xi_t, a, b, pam):
    """``decompose_window`` through the keyed oracle."""
    a, b = F(a), F(b)
    xi_t = tuple(xi_t)
    for _, m in xi_t:
        pam.check_element(m)
    scale, keyed = _endpoint_keys(xi_t, a, b)
    keyed.sort()
    return oracle_result(*oracle_decompose_keys(keyed, scale, _num(a, scale), _num(b, scale), pam), scale)


def oracle_keyed_sweep(xi, eps, pam):
    """``admissibility_sweep`` through the keyed oracle: every centre's window is read."""
    windows = WindowIndex(xi, pam)
    k, e, centres = _sweep_centres([key for key, _ in windows._keys], windows.scale, F(eps))
    for t in centres:
        lo, hi = t - e, t + e
        items, n = oracle_decompose_keys(windows.clip(k, lo, hi), k, lo, hi, pam)
        yield F(t, k), oracle_result(items, n, k)


def centre_sides(xi, eps):
    """Each sweep centre as a Fraction, with which of its window ends hold an endpoint."""
    scale, keyed = _endpoint_keys(tuple(xi))
    k, e, centres = _sweep_centres([key for key, _, _ in keyed], scale, F(eps))
    ends = {_num(x, k) for j, _ in xi for x in (j.u, j.v)}
    return [(F(t, k), (t - e in ends, t + e in ends)) for t in centres]


def rand_pieces(rng, labels):
    """1 to 5 pieces on a quarter grid in [-1, 3] that may overlap or touch, either parity."""
    xi = []
    for _ in range(rng.randint(1, 5)):
        u = F(rng.randint(-4, 11), 4)
        v = u + F(rng.randint(0, 6), 4)
        p, q = rng.choice(PARITIES), rng.choice(PARITIES)
        xi.append((Interval(u, v, p, -p if u == v else q), rng.choice(labels)))
    return xi


def rand_facing(rng, labels, eps):
    """``rand_pieces`` plus a piece with an end exactly 2 eps from an end of another.

    The centre between those two ends has endpoints on both window ends.
    """
    xi = rand_pieces(rng, labels)
    j, _ = rng.choice(xi)
    y = rng.choice((j.u, j.v)) + rng.choice((-2, 2)) * eps
    n = F(rng.randint(0, 6), 4)
    u, v = (y, y + n) if rng.random() < 0.5 else (y - n, y)
    p = rng.choice(PARITIES)
    xi.append((Interval(u, v, p, -p if u == v else rng.choice(PARITIES)), rng.choice(labels)))
    return xi


def _quarters(rng, lo, hi):
    return F(rng.randint(lo, hi), 4)


def rand_shared_end(rng, pam, eps):
    """A cut pair that a merge at the left window end takes apart.

    A long piece with label a crosses x, a piece [x, v) or (x, v] with
    label b shares its right end and parity, and a long piece with label a
    starts after v, within 2 eps of x, with the complementary parity.  At
    the centre before x + eps the long pieces make a cut pair and b is an
    interior piece; at x + eps, a centre with an endpoint on its left
    window end only, the first two pieces clip to one interval and merge
    into a + b, and the pair comes apart.  Where the carrier has labels
    with a + b defined and (a + b) + a not, that centre is the first
    failing window.
    """
    labels = [m for m in pam.elements if m != "0"]
    pairs = [
        (a, b)
        for a in labels
        for b in labels
        if pam.pair_sum(a, b) is not None and pam.pair_sum(pam.pair_sum(a, b), a) is None
    ]
    a, b = rng.choice(pairs) if pairs else (rng.choice(labels), rng.choice(labels))
    x = _quarters(rng, 0, 8)
    v = x + _quarters(rng, 1, int(4 * eps))
    r = v + _quarters(rng, 1, max(1, int(4 * (x + 2 * eps - v)) - 1))
    q = rng.choice(PARITIES)
    return [
        (Interval(x - 2 * eps - _quarters(rng, 1, 8), v, rng.choice(PARITIES), q), a),
        (Interval(x, v, -q, q), b),
        (Interval(r, r + 2 * eps + _quarters(rng, 1, 8), -q, rng.choice(PARITIES)), a),
    ]


EPSILONS = (F(1, 2), F(1), F(3, 2), F(2))


def rand_sweep_input(rng, n, pam, labels):
    """The n-th sweep draw: eps cycles through ``EPSILONS``, and the draw is a
    relabeled admissible chain, free pieces, free pieces with two ends
    2 eps apart, or ``rand_shared_end``; one in 25 carries a label the
    carrier does not know."""
    eps = EPSILONS[n % 4]
    draw = n // 4 % 4
    if draw == 0:
        xi, _ = rand_admissible(rng, 2)
        rel = {m: rng.choice(labels) for m in "abc"}
        xi = [(j, rel[m] if pam.name != "M3" else m) for j, m in xi]
    elif draw == 1:
        xi = rand_pieces(rng, labels)
    elif draw == 2:
        xi = rand_facing(rng, labels, eps)
    else:
        xi = rand_shared_end(rng, pam, eps)
    if n % 25 == 0:
        i = rng.randrange(len(xi))
        xi[i] = (xi[i][0], rng.choice(("zz", "yy")))
    return xi, eps


def _sweep_outcome(sweep, xi, eps, pam):
    """The sweep as a list, or its error and the number of centres it yielded first."""
    out = []
    try:
        for pair in sweep(xi, eps, pam):
            out.append(pair)
    except DomainError as e:
        return (type(e).__name__, str(e)), len(out)
    return out, None


def test_first_fit_read_matches_the_counting_oracle(m3, z2):
    # 3,000 windows per carrier, half of them anchored content with many
    # matchings and half the clip of free pieces to the window, plus the
    # sweeps of ``rand_sweep_input``, whose windows make up the rest of the
    # 20,000.  Reads that fail on tensor membership with a piece that is
    # not elementary, and reads in the tensor region with no summable
    # matching, both come up.  The sweep reads each window content once and
    # the oracle reads every centre: the items, counts and first error,
    # unknown labels included, agree, and both the centres with endpoints
    # on both window ends and the inputs whose first failing centre has
    # them on one end only (the first centre of its content, so the sweep
    # reads it) come up
    seen = dict.fromkeys(("counted", "collide, not elementary", "no matching"), 0)
    sides = dict.fromkeys(("two-sided centres", "one-sided first failures", "unknown labels"), 0)
    windows = 0
    for pam in (m3, z2, Z5, truncated_pam(6)):
        rng = random.Random("first-fit-" + pam.name)
        labels = [m for m in pam.elements if m != "0"]
        for n in range(3000):
            xi = rand_window(rng, labels) if n % 2 else restrict(rand_pieces(rng, labels), 0, 2)
            want = _outcome(oracle_keyed_window, xi, 0, 2, pam)
            assert _outcome(decompose_window, xi, 0, 2, pam) == want, (xi, pam.name)
            windows += 1
            if isinstance(want, DecompResult):
                seen["counted"] += want.count > 1
            elif "collide but" in want[1]:
                nf = labeled_normalize(xi, pam)
                seen["collide, not elementary"] += any(oracle_classify(j, 0, 2) is None for j, _ in nf)
            elif "no matching" in want[1]:
                seen["no matching"] += 1
        for n in range(400):
            xi, eps = rand_sweep_input(rng, n, pam, labels)
            want = _sweep_outcome(oracle_keyed_sweep, xi, eps, pam)
            assert _sweep_outcome(admissibility_sweep, xi, eps, pam) == want, (xi, eps, pam.name)
            out, failed_at = want
            centres = centre_sides(xi, eps)[: len(out) + 1 if failed_at is None else failed_at + 1]
            windows += len(centres)
            sides["two-sided centres"] += sum(left and right for _, (left, right) in centres)
            if failed_at is not None:
                sides["one-sided first failures"] += sum(centres[-1][1]) == 1
                sides["unknown labels"] += "unknown element" in out[1]
    assert windows >= 20000 and min(seen.values()) >= 100, (windows, seen)
    assert sides["two-sided centres"] >= 100 and sides["one-sided first failures"] >= 100, sides
    assert sides["unknown labels"] >= 20, sides

"""Tensor membership on maximal cliques, against the all-cliques scan.

The oracle is the scan ``in_T`` ran before: a depth-first walk over every
clique of the insummability graph, which visits 2^n cliques when all n
coordinates collide and so could not take more than 16 pairs.  The library
sums only the maximal cliques.  Summability passes to parts in every
carrier, so the decisions must agree everywhere; the witnesses may differ,
but each must be a failing clique all of whose proper parts sum.

Labeled configurations are decided by the endpoint sweep of
``in_T_labeled``, with ``in_T`` on the test ``ConfigCarrier`` and the
all-cliques scan as its oracles.

The graph itself has an oracle too: ``pairwise_masks`` tests every pair,
as the library did before it grouped equal values, and
``max_pivot_cliques`` scans every vertex for its pivot.  With both, the
library's masks, clique order and witnesses must come out unchanged.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from itertools import groupby

import pytest

import pamscan.labeled as labeled
from pamscan import CLOSED, OPEN, UNIT, FinitePam, Interval, in_T_labeled, is_compatible
from pamscan.tensor import (
    CircleCarrier,
    PamCarrier,
    TrivialCarrier,
    _bits,
    _insummable_masks,
    _maximal_cliques,
    _minimal_unsummable,
    in_T,
)
from pamscan.dsl import parse_config

from genutil import ConfigCarrier, cyclic_pam, small_tables, truncated_pam


def pairwise_masks(carrier, xs):
    """Bitmask per index: which partners are insummable with it, pair by pair."""
    n = len(xs)
    masks = [0] * n
    for i in range(n):
        for k in range(i + 1, n):
            if carrier.pair_sum(xs[i], xs[k]) is None:
                masks[i] |= 1 << k
                masks[k] |= 1 << i
    return masks


def max_pivot_cliques(masks):
    """Bron-Kerbosch with the pivot ``max`` finds over every vertex of p | x."""
    stack = [(0, (1 << len(masks)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        pivot = max(_bits(p | x), key=lambda u: (masks[u] & p).bit_count())
        for v in _bits(p & ~masks[pivot]):
            stack.append((r | 1 << v, p & masks[v], x & masks[v]))
            p &= ~(1 << v)
            x |= 1 << v


def pairwise_in_T(c1, c2, pairs):
    """``in_T`` with witness on the pairwise graph and the scanning pivot."""
    for k, side, ca, cb in ((0, "first", c1, c2), (1, "second", c2, c1)):
        others = [p[1 - k] for p in pairs]

        def sums(indices):
            return cb.tuple_sum([others[i] for i in indices])

        for clique in max_pivot_cliques(pairwise_masks(ca, [p[k] for p in pairs])):
            indices = list(_bits(clique))
            if len(indices) >= 2 and sums(indices) is None:
                return False, (side, _minimal_unsummable(sums, indices))
    return True, None


def oracle_in_T(c1, c2, pairs):
    """Membership by scanning every insummability clique on both sides."""
    pairs = list(pairs)
    for first_side in (True, False):
        if first_side:
            us, vs, ca, cb = [p[0] for p in pairs], [p[1] for p in pairs], c1, c2
        else:
            us, vs, ca, cb = [p[1] for p in pairs], [p[0] for p in pairs], c2, c1
        if oracle_clique_scan(pairwise_masks(ca, us), vs, cb) is not None:
            return False
    return True


def oracle_clique_scan(masks, others, carrier):
    """The first clique, in depth-first order, whose partners do not sum."""
    n = len(masks)
    found = []

    def extend(indices, allowed, start):
        if len(indices) >= 2:
            if carrier.tuple_sum([others[i] for i in indices]) is None:
                found.append(list(indices))
                return True
        for i in range(start, n):
            if not (allowed >> i) & 1:
                continue
            indices.append(i)
            if extend(indices, allowed & masks[i], i + 1):
                return True
            indices.pop()
        return False

    if extend([], (1 << n) - 1, 0):
        return found[0]
    return None


def check_against_oracle(c1, c2, pairs):
    """Same decision as the oracle, the same witness as the pairwise graph
    with the scanning pivot, and a witness is a minimal failing clique."""
    ok, wit = in_T(c1, c2, pairs, witness=True)
    assert ok == oracle_in_T(c1, c2, pairs), pairs
    assert (ok, wit) == pairwise_in_T(c1, c2, pairs), pairs
    assert in_T(c1, c2, pairs) == ok
    if ok:
        assert wit is None
        return ok
    side, idx = wit
    assert idx == sorted(set(idx)) and len(idx) >= 2, wit
    ca, cb, k = (c1, c2, 0) if side == "first" else (c2, c1, 1)
    for i, j in itertools.combinations(idx, 2):
        assert ca.pair_sum(pairs[i][k], pairs[j][k]) is None, (pairs, wit)
    others = [pairs[i][1 - k] for i in idx]
    assert cb.tuple_sum(others) is None, (pairs, wit)
    for r in range(len(others)):
        for part in itertools.combinations(others, r):
            assert cb.tuple_sum(part) is not None, (pairs, wit, part)
    return ok


def _some_rejected(rejected, total, pam):
    """Some draws fail, except over a group, where every label sum exists."""
    group = all(pam.defined(a, b) for a in pam.elements for b in pam.elements)
    return rejected < total and (rejected > 0 or group)


def test_trivial_carrier_on_all_6188_multisets(m3):
    tc, pc = TrivialCarrier(["0", "x", "y"]), PamCarrier(m3)
    universe = [(x, m) for x in ("0", "x", "y") for m in m3.elements]
    checked = rejected = 0
    for k in range(6):
        for ms in itertools.combinations_with_replacement(universe, k):
            rejected += not check_against_oracle(tc, pc, ms)
            checked += 1
    assert checked == 6188 and 0 < rejected < checked


def _rand_interval(rng):
    """A piece on a coarse grid: degenerate, touching, coincident and nested ones abound."""
    u = F(rng.randint(0, 8), 2)
    v = u + F(rng.randint(0, 4), 2)
    p = rng.choice((OPEN, CLOSED))
    q = -p if u == v else rng.choice((OPEN, CLOSED))
    return Interval(u, v, p, q)


def _rand_pieces(rng, pam):
    """Up to ten labeled pieces from ``_rand_interval``."""
    return [
        ((_rand_interval(rng),), rng.choice(pam.elements))
        for _ in range(rng.randint(0, 10))
    ]


def test_config_carrier_draws(carrier):
    rng = random.Random("cliques-" + carrier.name)
    cc, pc = ConfigCarrier(), PamCarrier(carrier)
    rejected = 0
    for _ in range(500):
        pairs = _rand_pieces(rng, carrier)
        ok = check_against_oracle(cc, pc, pairs)
        assert in_T_labeled([(c[0], m) for c, m in pairs], carrier) == ok
        # a failing label-side clique holds two overlapping pieces, which fail first
        assert ok or in_T_labeled([(c[0], m) for c, m in pairs], carrier, witness=True)[1][0] == "first"
        rejected += not ok
    assert _some_rejected(rejected, 500, carrier)


def test_circle_carrier_draws(carrier):
    rng = random.Random("circle-" + carrier.name)
    circle, pc = CircleCarrier(), PamCarrier(carrier)
    coords = [F(k, 4) for k in range(-4, 5)]
    rejected = 0
    for _ in range(300):
        pairs = [
            (rng.choice(coords), rng.choice(carrier.elements))
            for _ in range(rng.randint(0, 8))
        ]
        rejected += not check_against_oracle(circle, pc, pairs)
        rejected += not check_against_oracle(pc, circle, [(m, t) for t, m in pairs])
    assert _some_rejected(rejected, 600, carrier)


def _failing_cliques(xi, pam):
    """Every set of two or more pairwise conflicting pieces whose labels do not sum."""
    cc = ConfigCarrier()
    n = len(xi)
    clash = {
        (i, k) for i, k in itertools.combinations(range(n), 2) if cc.pair_sum(xi[i][0], xi[k][0]) is None
    }
    return [
        c
        for r in range(2, n + 1)
        for c in itertools.combinations(range(n), r)
        if all(pair in clash for pair in itertools.combinations(c, 2))
        and pam.sum_tuple([xi[i][1] for i in c]) is None
    ]


def test_sweep_matches_the_all_cliques_oracle(m3, z2):
    # 8,000 draws of 1-7 pieces, degenerate points and zero labels among
    # them, over M3, Z2, Z/5, {0..6} and the 255 valid three-element tables
    rng = random.Random("sweep")
    named = [m3, z2, cyclic_pam(5), truncated_pam(6)]
    tables = small_tables()
    tally = Counter()
    for n in range(8000):
        pam = named[n % 5] if n % 5 < 4 else rng.choice(tables)
        xi = [(_rand_interval(rng), rng.choice(pam.elements)) for _ in range(rng.randint(1, 7))]
        ok, wit = in_T_labeled(xi, pam, witness=True)
        assert ok == oracle_in_T(ConfigCarrier(), PamCarrier(pam), [((j,), m) for j, m in xi]), xi
        assert in_T_labeled(xi, pam) == ok
        tally[pam.name, ok] += 1
        if ok:
            assert wit is None
            continue
        side, idx = wit
        assert side == "first" and idx == sorted(set(idx)), (xi, wit)
        failing = _failing_cliques(xi, pam)
        # pairwise conflicting and unsummable, and every part one piece
        # smaller sums, so every proper part does
        assert tuple(idx) in failing, (xi, wit)
        labels = [xi[i][1] for i in idx]
        assert all(pam.sum_tuple(part) is not None for part in itertools.combinations(labels, len(labels) - 1))
        # leftmost: no failing clique has all its left ends before the witness's last one
        assert max(xi[i][0].u for i in idx) == min(max(xi[i][0].u for i in c) for c in failing), (xi, wit)
    # over the groups Z2 and Z/5 every label sum exists
    for name in ("M3", "T6", "T"):
        assert min(tally[name, True], tally[name, False]) >= 200, tally
    assert tally["Z2", True] == tally["Z5", True] == 1600, tally


def oracle_four_sets(xi, pam):
    """The witness of the sweep, its four sets built afresh at each endpoint.

    Over the pieces in key order, at each endpoint x of a nondegenerate
    piece in increasing order: TH+E_c+E_o, TH+S_c+S_o, TH+E_c+S_c and
    TH+E_o+S_o, each summed whole.  Returns None, or the input indices of
    ``_minimal_unsummable`` of the first set of two or more pieces whose
    labels do not sum, taken over ascending positions.
    """
    order = [i for i in sorted(range(len(xi)), key=lambda i: xi[i][0].sort_key()) if xi[i][0].u < xi[i][0].v]
    pieces = [xi[i] for i in order]

    def sums(idx):
        return pam.sum_tuple([pieces[i][1] for i in idx])

    def at(x, side, parity):
        # side 0: the pieces that end at x with that parity; side 1: those that start there
        return [i for i, (j, _) in enumerate(pieces) if ((j.v, j.q), (j.u, j.p))[side] == (x, parity)]

    for x in sorted({y for j, _ in pieces for y in (j.u, j.v)}):
        th = [i for i, (j, _) in enumerate(pieces) if j.u < x < j.v]
        ec, eo, sc, so = at(x, 0, CLOSED), at(x, 0, OPEN), at(x, 1, CLOSED), at(x, 1, OPEN)
        for part in (ec + eo, sc + so, ec + sc, eo + so):
            clique = sorted(th + part)
            if len(clique) > 1 and sums(clique) is None:
                return sorted(order[i] for i in _minimal_unsummable(sums, clique))
    return None


def test_sweep_matches_the_four_sets_afresh(carrier):
    # 1,000 draws per carrier of 1-9 pieces, nested, touching, degenerate
    # and zero-labelled ones among them: the running total of TH changes
    # neither the verdict, which is the all-cliques oracle's on
    # ``ConfigCarrier``, nor the witness, which is ``oracle_four_sets``'s
    # and a clique of pairwise conflicting pieces there
    rng = random.Random("four-sets-" + carrier.name)
    cc, failing = ConfigCarrier(), 0
    for _ in range(1000):
        xi = [(_rand_interval(rng), rng.choice(carrier.elements)) for _ in range(rng.randint(1, 9))]
        ok, wit = in_T_labeled(xi, carrier, witness=True)
        assert ok == oracle_in_T(cc, PamCarrier(carrier), [((j,), m) for j, m in xi]), xi
        want = oracle_four_sets(xi, carrier)
        assert wit == (None if want is None else ("first", want)), (xi, wit, want)
        if not ok:
            failing += 1
            assert all(cc.pair_sum(xi[i][0], xi[k][0]) is None for i, k in itertools.combinations(want, 2))
    # over the groups Z2 and Z/5 every label sum exists
    assert failing >= 300 if carrier.name in ("M3", "T6") else failing == 0, failing


def _nested(n):
    """n nested pieces [-1-k/n, 1+k/n) over Z/5, labelled g1 to g4 in turn."""
    return [(Interval(-1 - F(k, n), 1 + F(k, n), CLOSED, OPEN), "g%d" % (k % 4 + 1)) for k in range(n)]


def test_nested_pieces_pass_linearly_many_labels(tuple_sums):
    # each start adds its label to TH's running total, and nothing is
    # summed where pieces only end: at most 4n labels reach sum_tuple,
    # where summing TH afresh at each start passed 2,079, 32,895 and
    # 524,799 labels at n = 64, 256 and 1,024
    z5 = cyclic_pam(5)
    for n in (64, 256, 1024):
        tuple_sums.clear()
        assert in_T_labeled(_nested(n), z5)
        assert sum(tuple_sums) <= 4 * n, (n, sum(tuple_sums))


def oracle_running_sweep(items, pam):
    """The sweep with TH's running total summed afresh at each start after an end.

    ``labeled._tensor_sweep`` as it was before the tree of partial sums:
    the same sets in the same order, so the same verdict and witness.
    """
    if labeled._is_chain(items):
        return None
    ends = []
    for i, item in enumerate(items):
        u, v, p, q = item[0]
        if u < v:
            ends += ((u, 1, p, i), (v, 0, q, i))
    ends.sort()

    def sums(indices, *total):
        return pam.sum_tuple([*total, *(items[i][1] for i in indices)])

    through, total = {}, UNIT
    for _, group in groupby(ends, lambda end: end[0]):
        at = {(side, parity): [] for side in (0, 1) for parity in (CLOSED, OPEN)}
        for _, side, parity, i in group:
            at[side, parity].append(i)
        ec, eo, sc, so = at[0, CLOSED], at[0, OPEN], at[1, CLOSED], at[1, OPEN]
        for i in ec + eo:
            del through[i]
            total = None
        if sc or so:
            if total is None:
                total = sums(through) if through else UNIT
            opened = sc + so
            new = sums(opened, total) if len(through) + len(opened) > 1 else items[opened[0]][1]
            for part in (opened, ec and sc and ec + sc, eo and so and eo + so):
                if part and (new if part is opened else sums(part, total)) is None:
                    return _minimal_unsummable(sums, sorted([*through, *part]))
            through.update(dict.fromkeys(opened))
            total = new
    return None


def _wide_and_ending(rng, pam):
    """Six to twelve wide pieces over a run of short ones that end and start under them.

    Half the short pieces are labelled 0, so TH often sums when they end,
    and so are seven in eight of the wide pieces past the first, so a TH
    wide enough for the tree of partial sums (``_TREE_MIN``) often sums
    too.
    """
    labels = [m for m in pam.elements if m != UNIT]
    xi = [
        (Interval(-F(rng.randint(1, 8), 4), 12 + F(rng.randint(0, 8), 4), rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED))), rng.choice(labels) if k == 0 else rng.choice((UNIT,) * 7 + (rng.choice(labels),)))
        for k in range(rng.randint(6, 12))
    ]
    x = F(rng.randint(0, 4), 4)
    for _ in range(rng.randint(1, 12)):
        v = x + F(rng.randint(0, 4), 4)
        p = rng.choice((OPEN, CLOSED))
        xi.append((Interval(x, v, p, -p if x == v else rng.choice((OPEN, CLOSED))), rng.choice((UNIT, rng.choice(labels)))))
        x = v + F(rng.randint(0, 2), 4)
    rng.shuffle(xi)
    return xi


def test_partial_sums_match_the_running_sweep(carrier, monkeypatch):
    # 2,000 draws per carrier, half of them pieces that end and start
    # under a wide TH, half ``_rand_interval`` pieces: the tree of partial
    # sums gives the verdict and the witness of the running-total sweep.
    # At least 100 draws per carrier read the total of a nonempty tree
    rng = random.Random("partial-sums-" + carrier.name)
    failing = resummed = 0
    totals = []
    total = labeled._PartialSums.total

    def reading(tree):
        totals.append(sum(m != UNIT for m in tree.nodes[tree.size :]))
        return total(tree)

    monkeypatch.setattr(labeled._PartialSums, "total", reading)
    for n in range(2000):
        if n % 2:
            xi = _wide_and_ending(rng, carrier)
        else:
            xi = [(_rand_interval(rng), rng.choice(carrier.elements)) for _ in range(rng.randint(1, 9))]
        _, keyed = labeled._endpoint_keys(xi)
        keyed.sort()
        want = oracle_running_sweep(keyed, carrier)
        del totals[:]
        assert labeled._tensor_sweep(keyed, carrier) == want, xi
        failing += want is not None
        resummed += any(totals)
    assert resummed >= 100, resummed
    assert failing >= 200 if carrier.name in ("M3", "T6") else failing == 0, failing


def _wide_over_units(n):
    """n nested pieces [-1-k/n, 2n+1+k/n) over n unit pieces [2i, 2i+1), labels g1 to g4 in turn."""
    wide = [(Interval(-1 - F(k, n), 2 * n + 1 + F(k, n), CLOSED, OPEN), "g%d" % (k % 4 + 1)) for k in range(n)]
    return wide + [(Interval(2 * i, 2 * i + 1, CLOSED, OPEN), "g%d" % (i % 4 + 1)) for i in range(n)]


def test_pieces_ending_under_a_wide_th_sum_in_n_log_n(tuple_sums, monkeypatch):
    # each unit piece starts after the last one ended, under all n wide
    # pieces.  Summing TH afresh there passed 4,286, 66,302 and 1,051,646
    # labels to sum_tuple at n = 64, 256 and 1,024; the tree of partial
    # sums re-sums only the leaves that changed
    pairs = []
    pair_sum = FinitePam.pair_sum

    def counting(self, a, b):
        pairs.append((a, b))
        return pair_sum(self, a, b)

    monkeypatch.setattr(FinitePam, "pair_sum", counting)
    z5 = cyclic_pam(5)
    for n, labels, sums in ((64, 254, 48), (256, 1022, 192), (1024, 4094, 768)):
        tuple_sums.clear()
        del pairs[:]
        assert in_T_labeled(_wide_over_units(n), z5)
        assert (sum(tuple_sums), len(pairs)) == (labels, sums), n


def test_sweep_pinned_cases(m3):
    def pieces(text):
        return parse_config(text, m3)

    # two open ends or two closed ends refuse to touch; a closed and an open one chain
    for text in ("(0,1):a (1,2):a", "[0,1]:a [1,2]:a", "[0,2):a [1,3):a"):
        assert in_T_labeled(pieces(text), m3, witness=True) == (False, ("first", [0, 1])), text
    assert in_T_labeled(pieces("[0,1):a [1,2):a"), m3)
    # a degenerate point conflicts with nothing, and a zero label sums with any
    point = [(Interval(1, 1, CLOSED, OPEN), "a"), (Interval(1, 1, OPEN, CLOSED), "a")]
    assert in_T_labeled(pieces("[0,2):a") + tuple(point), m3)
    assert in_T_labeled(pieces("[0,2):a [1,3):0"), m3)
    # the first set that fails is at the leftmost endpoint, 3/2, where (3/2,4):c starts
    assert in_T_labeled(pieces("(0,5/2]:a (3/2,4):c (3,4):a"), m3, witness=True) == (False, ("first", [0, 1]))
    # the witness names input indices
    assert in_T_labeled(pieces("[2,3):b") + pieces("[0,2):a [1,3):a"), m3, witness=True) == (
        False,
        ("first", [1, 2]),
    )


def _random_graph(rng, n, density):
    """Edges and adjacency bitmasks of a random graph on n vertices."""
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < density}
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return edges, masks


def test_maximal_cliques_match_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 8)
        edges, masks = _random_graph(rng, n, 0.5)
        cliques = [
            sum(1 << i for i in c)
            for r in range(n + 1)
            for c in itertools.combinations(range(n), r)
            if all(e in edges for e in itertools.combinations(c, 2))
        ]
        want = {c for c in cliques if not any(c != d and c & d == c for d in cliques)}
        got = list(_maximal_cliques(masks))
        assert len(got) == len(set(got)) and set(got) == want


def _crowd(pam, labels):
    """Nested pieces that all contain 0, so every two of them collide."""
    return [
        (Interval(-1 - F(k, 40), 1 + F(k, 40), CLOSED, OPEN), m)
        for k, m in enumerate(labels)
    ]


@pytest.fixture
def tuple_sums(monkeypatch):
    """The length of every tuple a pam sums, in call order."""
    calls = []
    real = FinitePam.sum_tuple

    def counting(self, xs):
        xs = tuple(xs)
        calls.append(len(xs))
        return real(self, xs)

    monkeypatch.setattr(FinitePam, "sum_tuple", counting)
    return calls


def test_forty_colliding_pieces_take_one_sum(tuple_sums):
    # the all-cliques scan would sum 2^40 - 41 cliques here; the sweep
    # sums once at each left end, and not at all where pieces only end
    z5 = cyclic_pam(5)
    assert in_T_labeled(_crowd(z5, ["g1", "g2", "g3", "g4"] * 10), z5)
    assert len(tuple_sums) <= 40


def test_forty_colliding_pieces_witness(tuple_sums):
    # 40 pieces over {0..6}: seven ones overflow, any six sum
    t6 = truncated_pam(6)
    ok, (side, idx) = in_T_labeled(_crowd(t6, ["1"] * 40), t6, witness=True)
    assert not ok and side == "first" and len(idx) == 7
    assert len(tuple_sums) <= 41


def _rand_config(rng):
    """A compatible configuration of up to three pieces, unreduced, or a bare piece."""
    if rng.random() < 0.2:
        return _rand_interval(rng)
    while True:
        c = tuple(_rand_interval(rng) for _ in range(rng.randint(0, 3)))
        if is_compatible(c):
            return c


def test_masks_match_pairwise_loop(carrier):
    rng = random.Random("masks-" + carrier.name)
    circle = [F(k, 4) for k in range(-6, 7)]
    trivial = TrivialCarrier(["0", "x", "y", "z"])
    cases = [
        (PamCarrier(carrier), lambda: rng.choice(carrier.elements)),
        (ConfigCarrier(), lambda: (_rand_interval(rng),)),
        (ConfigCarrier(), lambda: _rand_config(rng)),
        (CircleCarrier(), lambda: rng.choice(circle)),
        (trivial, lambda: rng.choice(trivial.points)),
    ]
    edges = 0
    for c, draw in cases:
        for _ in range(150):
            xs = [draw() for _ in range(rng.randint(0, 12))]
            masks = _insummable_masks(c, xs)
            assert masks == pairwise_masks(c, xs), xs
            edges += sum(m.bit_count() for m in masks)
    assert edges > 0


def test_maximal_cliques_keep_the_max_pivot_order():
    rng = random.Random(5)
    graphs = [_random_graph(rng, rng.randint(0, 8), 0.5)[1] for _ in range(300)]
    graphs += [_random_graph(rng, rng.randint(0, 24), rng.random())[1] for _ in range(200)]
    graphs += [[((1 << n) - 1) & ~(1 << i) for i in range(n)] for n in range(12)]
    for masks in graphs:
        assert list(_maximal_cliques(masks)) == list(max_pivot_cliques(masks)), masks


def _two_collide(n):
    """[0,2):a [1,3):b, which collide, then n disjoint a pieces."""
    xi = [(Interval(0, 2, CLOSED, OPEN), "a"), (Interval(1, 3, CLOSED, OPEN), "b")]
    return xi + [(Interval(4 + 2 * k, 5 + 2 * k, CLOSED, OPEN), "a") for k in range(n)]


def test_two_colliding_pieces_take_constant_pair_tests(m3, tuple_sums):
    # a pairwise loop makes (n+2)(n+1)/2 pair tests, and a sweep that sums
    # every endpoint's sets n sums; the sweep sums only where two pieces meet
    counts = []
    for n in (256, 512):
        tuple_sums.clear()
        assert in_T_labeled(_two_collide(n), m3)
        counts.append(len(tuple_sums))
    assert counts[0] >= 1 and counts[1] == counts[0], counts


class _CountingMasks(list):
    reads = 0

    def __getitem__(self, i):
        _CountingMasks.reads += 1
        return list.__getitem__(self, i)


def test_complete_graph_pivot_scan_is_linear():
    # max() over every vertex of p | x reads n(n+1)/2 masks for pivot keys alone
    counts = []
    for n in (256, 512):
        masks = _CountingMasks(((1 << n) - 1) & ~(1 << i) for i in range(n))
        _CountingMasks.reads = 0
        assert list(_maximal_cliques(masks)) == [(1 << n) - 1]
        counts.append(_CountingMasks.reads)
    assert counts[1] <= 2.5 * counts[0], counts

"""Tensor membership on maximal cliques, against the all-cliques scan.

The oracle is the scan ``in_T`` ran before: a depth-first walk over every
clique of the insummability graph, which visits 2^n cliques when all n
coordinates collide and so could not take more than 16 pairs.  The library
sums only the maximal cliques.  Summability passes to parts in every
carrier, so the decisions must agree everywhere; the witnesses may differ,
but each must be a failing clique all of whose proper parts sum.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from pamscan import CLOSED, OPEN, Interval, in_T_labeled
from pamscan.tensor import (
    CircleCarrier,
    ConfigCarrier,
    PamCarrier,
    TrivialCarrier,
    _insummable_masks,
    _maximal_cliques,
    in_T,
)

from genutil import cyclic_pam, truncated_pam


def oracle_in_T(c1, c2, pairs):
    """Membership by scanning every insummability clique on both sides."""
    pairs = list(pairs)
    for first_side in (True, False):
        if first_side:
            us, vs, ca, cb = [p[0] for p in pairs], [p[1] for p in pairs], c1, c2
        else:
            us, vs, ca, cb = [p[1] for p in pairs], [p[0] for p in pairs], c2, c1
        if oracle_clique_scan(_insummable_masks(ca, us), vs, cb) is not None:
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
    """Same decision as the oracle; a witness is a minimal failing clique."""
    ok, wit = in_T(c1, c2, pairs, witness=True)
    assert ok == oracle_in_T(c1, c2, pairs), pairs
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


def _rand_pieces(rng, pam):
    """Up to ten pieces on a coarse grid, so nests, overlaps and touches abound."""
    out = []
    for _ in range(rng.randint(0, 10)):
        u = F(rng.randint(0, 8), 2)
        v = u + F(rng.randint(0, 4), 2)
        p = rng.choice((OPEN, CLOSED))
        q = -p if u == v else rng.choice((OPEN, CLOSED))
        out.append(((Interval(u, v, p, q),), rng.choice(pam.elements)))
    return out


def test_config_carrier_draws(carrier):
    rng = random.Random("cliques-" + carrier.name)
    cc, pc = ConfigCarrier(), PamCarrier(carrier)
    rejected = 0
    for _ in range(500):
        pairs = _rand_pieces(rng, carrier)
        ok = check_against_oracle(cc, pc, pairs)
        assert in_T_labeled([(c[0], m) for c, m in pairs], carrier) == ok
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


def test_maximal_cliques_match_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 8)
        edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5}
        masks = [0] * n
        for i, j in edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
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
    calls = []
    for cls in (PamCarrier, ConfigCarrier):
        def counting(self, xs, _sum=cls.tuple_sum):
            calls.append(len(xs))
            return _sum(self, xs)

        monkeypatch.setattr(cls, "tuple_sum", counting)
    return calls


def test_forty_colliding_pieces_take_one_sum(tuple_sums):
    # the all-cliques scan would sum 2^40 - 41 cliques here
    z5 = cyclic_pam(5)
    assert in_T_labeled(_crowd(z5, ["g1", "g2", "g3", "g4"] * 10), z5)
    assert len(tuple_sums) <= 40


def test_forty_colliding_pieces_witness(tuple_sums):
    # 40 pieces over {0..6}: seven ones overflow, any six sum
    t6 = truncated_pam(6)
    ok, (side, idx) = in_T_labeled(_crowd(t6, ["1"] * 40), t6, witness=True)
    assert not ok and side == "first" and len(idx) == 7
    assert len(tuple_sums) <= 41

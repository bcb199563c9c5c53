"""Configuration search against the per-candidate filter it replaced.

The oracle lists the one-step moves of a labeled configuration in the
library's order and keeps each candidate that passes ``in_T_labeled`` on
its own.  The library checks membership once, on the input, and admits
every candidate of an input in the tensor region unchecked: each move maps
the region into itself.  The exhaustive test checks that lemma on every
small configuration; the seeded tests compare neighbor sets and error
messages, and search verdicts, with the oracle; the work guard counts
membership checks, so a search that checks every candidate again cannot
return without a failing test.
"""

import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pamscan.labeled as labeled
from pamscan import (
    CLOSED,
    OPEN,
    DomainError,
    FinitePam,
    Interval,
    config_eq,
    in_T_labeled,
    labeled_rewrite_neighbors,
    lc_sorted,
)
from pamscan.dsl import parse_config
from pamscan.pam import UNIT

from genutil import cyclic_pam, truncated_pam


def oracle_moves(xi, pam, extra_cuts=()):
    """Every one-step move of ``xi``, unfiltered, in the library's order.

    A generator: each candidate is built only once the previous one has
    been consumed, so a filter that checks candidates as they come meets
    an unknown label where the per-candidate library did.
    """
    items = list(xi)
    for i, (j, m) in enumerate(items):
        rest = items[:i] + items[i + 1 :]
        if m == UNIT or j.is_degenerate:
            yield rest
        cuts = {j.u, j.v} | set(extra_cuts) | {(j.u + j.v) / 2}
        for w in cuts:
            w = F(w)
            if j.u < w < j.v:
                for r in (CLOSED, OPEN):
                    yield rest + [(Interval(j.u, w, j.p, r), m), (Interval(w, j.v, -r, j.q), m)]
        if m != UNIT:
            for a, b in pam.nonzero_partitions(m):
                yield rest + [(j, a), (j, b)]

    for i in range(len(items)):
        j1, m1 = items[i]
        for k in range(i + 1, len(items)):
            j2, m2 = items[k]
            rest = [p for idx, p in enumerate(items) if idx not in (i, k)]
            if j1 == j2:
                s = pam.pair_sum(m1, m2)
                if s is not None:
                    yield rest + [(j1, s)]
            if m1 == m2:
                if j1.v == j2.u and j1.q != j2.p:
                    yield rest + [(Interval(j1.u, j2.v, j1.p, j2.q), m1)]
                if j2.v == j1.u and j2.q != j1.p:
                    yield rest + [(Interval(j2.u, j1.v, j2.p, j1.q), m1)]


def oracle_rewrite_neighbors(xi, pam, extra_cuts=()):
    """The moves of ``xi`` that pass ``in_T_labeled``, each checked on its own."""
    return {lc_sorted(c) for c in oracle_moves(xi, pam, extra_cuts) if in_T_labeled(c, pam)}


def _outcome(f, *args, **kwargs):
    try:
        return "ok", f(*args, **kwargs)
    except DomainError as e:
        return "raised", type(e), str(e)


M3 = FinitePam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"})
CARRIERS = (M3, cyclic_pam(2), cyclic_pam(5), truncated_pam(2), truncated_pam(6))


def _grid_intervals():
    """Every interval with ends in {0, 1/2, 1}, degenerate points included."""
    grid = (F(0), F(1, 2), F(1))
    return [
        Interval(u, v, p, q)
        for u in grid
        for v in grid
        for p in (CLOSED, OPEN)
        for q in (CLOSED, OPEN)
        if u < v or (u == v and p != q)
    ]


def test_moves_keep_the_tensor_region():
    """Every move of every small configuration in T stays in T.

    Up to three pieces with ends in {0, 1/2, 1}, every parity pair and the
    degenerate points, with the nonzero labels of M3 and of {0..2}; a zero
    label sums with every label, and the seeded tests below draw it.  The
    mirror image (moved back onto [0, 1]) and, over M3, the swap of a and
    b map T and the moves onto themselves, so one input per orbit is
    checked.  T is hereditary, so an input with a pair outside T is
    skipped unchecked, and candidates repeat, so each is checked once.
    """
    for pam, swaps in ((M3, ({}, {"a": "b", "b": "a"})), (truncated_pam(2), ({},))):
        pieces = [(j, m) for j in _grid_intervals() for m in pam.elements if m != UNIT]
        where = {piece: i for i, piece in enumerate(pieces)}
        images = [
            [where[(j.mirror().translate(1) if mirror else j, swap.get(m, m))] for j, m in pieces]
            for mirror in (False, True)
            for swap in swaps
        ][1:]
        pair_in_T = {
            pair: in_T_labeled([pieces[i] for i in pair], pam)
            for pair in combinations_with_replacement(range(len(pieces)), 2)
        }
        checked, inside = set(), 0
        for n in range(4):
            for idx in combinations_with_replacement(range(len(pieces)), n):
                if not all(pair_in_T[pair] for pair in combinations(idx, 2)):
                    continue
                if any(tuple(sorted(g[i] for i in idx)) < idx for g in images):
                    continue
                xi = [pieces[i] for i in idx]
                if not in_T_labeled(xi, pam):
                    continue
                inside += 1
                for cand in oracle_moves(xi, pam):
                    key = lc_sorted(cand)
                    if key not in checked:
                        assert in_T_labeled(cand, pam), (xi, cand)
                        checked.add(key)
        assert inside > 1000


def _rand_config(rng, pam):
    """Pieces on a quarter grid: overlapping, touching, coincident, degenerate.

    Labels include 0, and now and then a label the carrier does not know.
    """
    xi = []
    for _ in range(rng.randint(0, 3)):
        u = F(rng.randint(0, 8), 4)
        if xi and rng.random() < 0.3:
            j = rng.choice(xi)[0]
            if rng.random() < 0.5 and not j.is_degenerate:
                u = j.v
            else:
                xi.append((j, rng.choice(pam.elements)))
                continue
        if rng.random() < 0.15:
            p = rng.choice((OPEN, CLOSED))
            j = Interval(u, u, p, -p)
        else:
            j = Interval(u, u + F(rng.randint(1, 6), 4), rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
        m = rng.choice(("zz", "yy")) if rng.random() < 0.04 else rng.choice(pam.elements)
        xi.append((j, m))
    rng.shuffle(xi)
    return xi


def test_neighbors_match_oracle():
    rng = random.Random("rewrite-neighbors")
    tally = {"in": 0, "out": 0, "raised": 0}
    for pam in CARRIERS:
        for _ in range(650):
            xi = _rand_config(rng, pam)
            cuts = rng.sample(sorted({j.u for j, _ in xi} | {F(k, 4) for k in range(9)}), 2)
            fast = _outcome(labeled_rewrite_neighbors, xi, pam, extra_cuts=cuts)
            assert fast == _outcome(oracle_rewrite_neighbors, xi, pam, extra_cuts=cuts), xi
            if fast[0] == "raised":
                tally["raised"] += 1
            else:
                tally["in" if in_T_labeled(xi, pam) else "out"] += 1
    assert min(tally.values()) >= 100, tally


def _walk(rng, xi, pam, steps):
    """A random walk of ``steps`` unfiltered moves from ``xi``."""
    for _ in range(steps):
        moves = list(oracle_moves(xi, pam))
        if not moves:
            break
        xi = rng.choice(moves)
    return xi


def test_search_matches_oracle(monkeypatch):
    rng = random.Random("config-search")
    pairs = []
    for pam in CARRIERS:
        for _ in range(110):
            x1 = [(j, m) for j, m in _rand_config(rng, pam) if m in pam.elements][:3]
            if x1 and rng.random() < 0.3:
                # a coincident copy leaves T wherever m + m is undefined
                x1.append(x1[0])
            x2 = _walk(rng, x1, pam, rng.randint(1, 3)) if rng.random() < 0.7 else _rand_config(rng, pam)[:2]
            x2 = [(j, m) for j, m in x2 if m in pam.elements]
            pairs.append((x1, x2, pam, rng.randint(1, 3)))
    fast = [_outcome(config_eq, x1, x2, pam, method="search", depth=d) for x1, x2, pam, d in pairs]
    with monkeypatch.context() as m:
        m.setattr(labeled, "labeled_rewrite_neighbors", oracle_rewrite_neighbors)
        slow = [_outcome(config_eq, x1, x2, pam, method="search", depth=d) for x1, x2, pam, d in pairs]
    assert fast == slow
    outside = sum(not in_T_labeled(x1, pam) for x1, _, pam, _ in pairs)
    verdicts = {out[1] for out in fast}
    assert outside >= 50 and len(verdicts) == 3, (outside, verdicts)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(labeled, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(labeled, name, counted)
    return calls


def test_membership_is_checked_once_per_node(monkeypatch):
    xi = parse_config("[0,2):a [1,3):b", M3)
    assert in_T_labeled(xi, M3)
    checks = _count_calls(monkeypatch, "in_T_labeled")
    assert labeled_rewrite_neighbors(xi, M3)
    assert len(checks) == 1
    # outside T, every candidate is checked as well
    checks.clear()
    outside = parse_config("[0,2):a [1,3):a", M3)
    labeled_rewrite_neighbors(outside, M3)
    assert len(checks) == 1 + len(list(oracle_moves(outside, M3)))
    # the search expands nodes in T only, one membership check each
    checks.clear()
    nodes = _count_calls(monkeypatch, "labeled_rewrite_neighbors")
    other = parse_config("[0,1):a [1,2):c [2,3):b", M3)
    assert config_eq(xi, other, M3, method="search").value == "equal"
    assert nodes and len(checks) == len(nodes)

"""Configuration search against the Fraction search it replaced.

The library searches on integer keys (see ``config_eq``).  Two oracles
stand beside it.  ``oracle_rewrite_neighbors`` lists the one-step moves of
a labeled configuration in the library's order and keeps each candidate
that passes ``in_T_labeled`` on its own.  ``oracle_search`` is the search
on ``lc_sorted`` Fraction nodes, checking membership once per node.  The
exhaustive test checks on every small configuration that each move of the
library maps the tensor region into itself.  The seeded tests compare
neighbor sets, search verdicts and error messages with the oracles.  The
work guards count membership checks and node exponents, so a search that
checks every candidate again, or whose keys grow with the depth bound
rather than with the cuts it makes, cannot return without a failing test.
"""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

import pamscan.labeled as labeled
import pamscan.tensor as tensor
from pamscan import (
    CLOSED,
    OPEN,
    DomainError,
    EqVerdict,
    FinitePam,
    Interval,
    config_eq,
    in_T_labeled,
    labeled_rewrite_neighbors,
    lc_sorted,
)
from pamscan.dsl import parse_config
from pamscan.pam import UNIT
from pamscan.tensor import _bidirectional_search

from genutil import cyclic_pam, truncated_pam


def oracle_moves(xi, pam, extra_cuts=()):
    """Every one-step move of ``xi``, unfiltered, in the library's order."""
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


def check_labels(xi, pam):
    """Check every label of ``xi`` in input order, as each entry point does first."""
    for _, m in xi:
        pam.check_element(m)


def oracle_rewrite_neighbors(xi, pam, extra_cuts=()):
    """The moves of ``xi`` that pass ``in_T_labeled``, each checked on its own."""
    check_labels(xi, pam)
    return {lc_sorted(c) for c in oracle_moves(xi, pam, extra_cuts) if in_T_labeled(c, pam)}


def fraction_rewrite_neighbors(xi, pam, extra_cuts=()):
    """The moves of ``xi`` as ``lc_sorted`` tuples, membership checked once."""
    items = list(xi)
    inside = in_T_labeled(items, pam)
    return {lc_sorted(c) for c in oracle_moves(items, pam, extra_cuts) if inside or in_T_labeled(c, pam)}


def oracle_search(x1, x2, pam, depth):
    """The search on ``lc_sorted`` Fraction nodes, every endpoint a cut.

    The labels of x1 and x2 are checked first, so an unknown one raises at
    any depth.  Returns its verdict as it was, DISTINCT from a start
    outside T included; the comparison applies the outside-T rule itself.
    """
    x1, x2 = list(x1), list(x2)
    check_labels(x1 + x2, pam)
    cuts = sorted({x for j, _ in x1 + x2 for x in (j.u, j.v)})
    return _bidirectional_search(
        lc_sorted(x1), lc_sorted(x2), lambda node: fraction_rewrite_neighbors(node, pam, cuts), depth
    )


def _outcome(f, *args, **kwargs):
    try:
        return "ok", f(*args, **kwargs)
    except DomainError as e:
        return "raised", type(e), str(e)


M3 = FinitePam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"})
CARRIERS = (M3, cyclic_pam(2), cyclic_pam(5), truncated_pam(2), truncated_pam(6))
SEARCH_CARRIERS = (M3, cyclic_pam(2), cyclic_pam(5), cyclic_pam(7), truncated_pam(6))


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
    """Every move the library makes from a small configuration in T stays in T.

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
                for cand in labeled_rewrite_neighbors(xi, pam):
                    if cand not in checked:
                        assert in_T_labeled(cand, pam), (xi, cand)
                        checked.add(cand)
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


def _search_pairs(rng, pam, n):
    """``n`` seeded search inputs (x1, x2, depth) over ``pam``.

    x2 is a random walk from x1 or a fresh draw.  Starts hold degenerate
    pieces, zero labels, coincident copies that leave T, and now and then
    an unknown label; a third of the pairs are moved by one increasing
    affine map with denominators 3 and 5, which keeps every verdict.
    """
    out = []
    for _ in range(n):
        x1 = _rand_config(rng, pam)
        if rng.random() < 0.8:
            x1 = [(j, m) for j, m in x1 if m in pam.elements]
        if x1 and rng.random() < 0.3:
            # a coincident copy leaves T wherever m + m is undefined
            x1.append(x1[0])
        if rng.random() < 0.7:
            x2 = _walk(rng, [(j, m) for j, m in x1 if m in pam.elements], pam, rng.randint(1, 3))
        else:
            x2 = _rand_config(rng, pam)[:2]
        if rng.random() < 0.3:
            x1, x2 = ([(j.map_endpoints(lambda x: x * F(2, 3) - F(1, 5)), m) for j, m in c] for c in (x1, x2))
        out.append((x1, x2, rng.randint(0, 4)))
    return out


def test_search_matches_fraction_search():
    """The keyed search gives the Fraction search's verdict or error.

    The one exception is the outside-T rule: a DISTINCT from a start
    outside T becomes UNKNOWN, and such pairs are counted.
    """
    rng = random.Random("keyed-search")
    tally = Counter()
    for pam in SEARCH_CARRIERS:
        for x1, x2, depth in _search_pairs(rng, pam, 420):
            fast = _outcome(config_eq, x1, x2, pam, method="search", depth=depth)
            slow = _outcome(oracle_search, x1, x2, pam, depth)
            tally[slow[1]] += 1
            tally["depth %d" % depth] += 1
            if slow == ("ok", EqVerdict.DISTINCT):
                assert not (in_T_labeled(x1, pam) and in_T_labeled(x2, pam)), (x1, x2)
                slow = ("ok", EqVerdict.UNKNOWN)
                tally["outside-T rule"] += 1
            assert fast == slow, (x1, x2, pam, depth)
            xs = x1 + x2
            tally["degenerate"] += any(j.is_degenerate for j, _ in xs)
            tally["zero label"] += any(m == UNIT for _, m in xs)
            if all(m in pam.elements for _, m in xs):
                tally["outside T"] += not (in_T_labeled(x1, pam) and in_T_labeled(x2, pam))
    assert sum(tally["depth %d" % d] for d in range(5)) >= 2000
    assert min(tally[k] for k in (*EqVerdict, DomainError, "outside-T rule")) >= 20, tally
    assert min(tally["degenerate"], tally["zero label"], tally["outside T"]) >= 100, tally


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
    checks = _count_calls(monkeypatch, "_tensor_sweep")
    assert labeled_rewrite_neighbors(xi, M3)
    assert len(checks) == 1
    # outside T, every candidate is checked as well
    checks.clear()
    outside = parse_config("[0,2):a [1,3):a", M3)
    labeled_rewrite_neighbors(outside, M3)
    assert len(checks) == 1 + len(list(oracle_moves(outside, M3)))
    # the search expands nodes in T only, one membership check each
    checks.clear()
    nodes = _count_calls(monkeypatch, "_rewrite_keys")
    other = parse_config("[0,1):a [1,2):c [2,3):b", M3)
    assert config_eq(xi, other, M3, method="search").value == "equal"
    assert nodes and len(checks) == len(nodes)


def test_node_exponent_follows_the_rounds(monkeypatch):
    """A node's exponent never exceeds the rounds the search has run.

    Each node is charged the length of the chain of expansions that made
    it, which is at most the round it appeared in.  A move doubles a node
    at most once, so its exponent stays within that length, and under a
    depth bound of 100,000 the keys grow only with the midpoints the
    search took before its node bound stopped it.
    """
    real = labeled._rewrite_keys
    levels = {}

    def tracked(node, *args):
        out = real(node, *args)
        level = levels.setdefault(node, 0)
        assert node[0] <= level, node
        for n in out:
            assert n[0] <= level + 1, (node, n)
            levels.setdefault(n, level + 1)
        return out

    monkeypatch.setattr(labeled, "_rewrite_keys", tracked)
    monkeypatch.setattr(tensor, "SEARCH_NODE_CAP", 3000)
    xi = parse_config("[0,2):a [1,3):b", M3)
    alt = parse_config("[0,1):a [1,2):c [2,4):b", M3)
    assert config_eq(xi, alt, M3, method="search", depth=100000) == EqVerdict.UNKNOWN
    top = max(e for e, _ in levels)
    assert 1 <= top <= max(levels.values()) <= 8, (top, max(levels.values()))


Z5 = cyclic_pam(5)


def _canonical(e, items):
    """The node (e, items) halved while e > 0 and every endpoint is even."""
    while e and all(x % 2 == 0 for (u, v, _, _), _ in items for x in (u, v)):
        e, items = e - 1, [((u // 2, v // 2, p, q), m) for (u, v, p, q), m in items]
    return e, tuple(sorted(items))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-8, 8),
            st.integers(1, 8),
            st.sampled_from((CLOSED, OPEN)),
            st.sampled_from((CLOSED, OPEN)),
            st.sampled_from(Z5.elements[1:]),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 3),
)
def test_odd_midpoint_cut_pastes_back(raw, e):
    """Cutting a node at an odd midpoint and pasting back gives the node itself.

    Ends are integers over 2**e, halved while all are even, so the node is
    canonical; over Z/5 every configuration is in T.  The cut doubles the
    node, and the paste that takes the cut's odd endpoint away halves it
    back to the start's own node, exponent included.
    """
    node = _canonical(e, [((u, u + w, p, q), m) for u, w, p, q, m in raw])
    e, items = node
    for i, ((u, v, p, q), m) in enumerate(items):
        if not (u + v) & 1:
            continue
        rest = [((2 * a, 2 * b, c, d), n) for (a, b, c, d), n in items[:i] + items[i + 1 :]]
        for r in (CLOSED, OPEN):
            cut = (e + 1, tuple(sorted(rest + [((2 * u, u + v, p, r), m), ((u + v, 2 * v, -r, q), m)])))
            assert cut in labeled._rewrite_keys(node, Z5, [], 1)
            assert node in labeled._rewrite_keys(cut, Z5, [], 1)

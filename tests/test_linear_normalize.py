"""Indexed normal forms against the restart-from-the-front loops they replace.

The oracles re-sort and rescan from the first piece after every move.  The
library replays the same moves in the same order, so tuples and DomainError
messages must agree exactly, over carriers beyond M3 and Z2 too, and on
endpoints over mixed and very large denominators.  The keyed normal form
that every window read runs is compared with the groupby pass it replaced,
and the keys and equality by normal form with the two-read keying and the
comparison of two Interval normal forms they replaced.  ``positive_part``,
which takes one normal form, is compared with the version that normalized
its mirror again.
The work guard counts integer endpoint keys, so a quadratic normal form
cannot return without a failing test.
"""

import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import groupby
from math import lcm
from operator import itemgetter

import pytest

import pamscan.labeled as labeled
from pamscan import (
    CLOSED,
    OPEN,
    DomainError,
    FinitePam,
    IncompatibleConfig,
    Interval,
    config_eq,
    interval_leq,
    is_admissible,
    labeled_normalize,
    lc_sorted,
    mirror_config,
    normalize_config,
    positive_part,
)
from pamscan.dsl import fmt_interval, parse_config
from pamscan.pam import UNIT
from pamscan.tensor import EqVerdict

from genutil import cyclic_pam, odd_primes, rand_rewrite, truncated_pam


def oracle_normalize(xi, pam):
    """Apply the leftmost move, re-sort, and start again from the front."""
    items = list(xi)
    while True:
        items.sort(key=lambda jm: (jm[0].sort_key(), pam.index(jm[1])))
        move = _nf_step(items, pam)
        if not move:
            return tuple(items)


def _nf_step(items, pam):
    for i, (j, m) in enumerate(items):
        if m == UNIT:
            del items[i]
            return True
    for i, (j, m) in enumerate(items):
        if j.is_degenerate:
            del items[i]
            return True
    for i in range(len(items) - 1):
        j1, m1 = items[i]
        j2, m2 = items[i + 1]
        if j1 == j2:
            s = pam.pair_sum(m1, m2)
            if s is None:
                raise DomainError(
                    "not in the tensor region: coincident interval %r carries "
                    "unsummable labels (%s, %s)" % (j1, m1, m2)
                )
            items[i : i + 2] = [(j1, s)]
            return True
    for i in range(len(items)):
        j1, m1 = items[i]
        for k in range(i + 1, len(items)):
            j2, m2 = items[k]
            if m1 == m2 and j1.v == j2.u and j1.q != j2.p:
                items[k : k + 1] = []
                items[i : i + 1] = [(Interval(j1.u, j2.v, j1.p, j2.q), m1)]
                return True
    return False


def oracle_normalize_config(intervals):
    """Check the chain, drop degenerate pieces, paste the first touching pair."""
    items = sorted(intervals, key=Interval.sort_key)
    for a, b in zip(items, items[1:]):
        if not interval_leq(a, b):
            raise IncompatibleConfig(
                "no valid order: %r does not precede %r" % (a, b)
            )
    items = [j for j in items if not j.is_degenerate]
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if a.v == b.u:
                items[i : i + 2] = [Interval(a.u, b.v, a.p, b.q)]
                changed = True
                break
    return tuple(items)


def _outcome(normalize, *args):
    try:
        return "ok", normalize(*args)
    except (DomainError, IncompatibleConfig) as e:
        return "raised", type(e), str(e)


Z5 = cyclic_pam(5)
TRUNC6 = truncated_pam(6)


def _rand_config(rng, pam):
    """Pieces on a coarse grid: touching, overlapping and coincident runs."""
    labels = pam.elements
    xi = []
    for _ in range(rng.randint(0, 12)):
        u = F(rng.randint(0, 16), 4)
        if rng.random() < 0.1:
            p = rng.choice((OPEN, CLOSED))
            xi.append((Interval(u, u, p, -p), rng.choice(labels)))
            continue
        v = u + F(rng.randint(1, 8), 4)
        j = Interval(u, v, rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
        m = rng.choice(labels[1:]) if rng.random() < 0.9 else UNIT
        kind = rng.random()
        if kind < 0.35:
            # unpaste into touching parts with complementary cut parities
            eighths = int((v - u) * 8)
            cuts = sorted({u + F(rng.randint(1, eighths - 1), 8) for _ in range(3)})
            lo, p = u, j.p
            for w in cuts:
                r = rng.choice((OPEN, CLOSED))
                xi.append((Interval(lo, w, p, r), m))
                lo, p = w, -r
            xi.append((Interval(lo, v, p, j.q), m))
        elif kind < 0.55:
            # a coincident run
            for _ in range(rng.randint(2, 4)):
                xi.append((j, rng.choice(labels)))
        elif kind < 0.7 and m != UNIT and pam.nonzero_partitions(m):
            a, b = rng.choice(pam.nonzero_partitions(m))
            xi += [(j, a), (j, b)]
        else:
            xi.append((j, m))
    rng.shuffle(xi)
    return xi


def _random_draws_match_oracle(carrier):
    rng = random.Random("normalize-" + carrier.name)
    raised = 0
    for _ in range(250):
        xi = _rand_config(rng, carrier)
        fast = _outcome(labeled_normalize, xi, carrier)
        assert fast == _outcome(oracle_normalize, xi, carrier), xi
        raised += fast[0] == "raised"
    # normal forms and error messages are both compared, except over a
    # group, where every merge is defined
    group = all(carrier.defined(a, b) for a in carrier.elements for b in carrier.elements)
    assert raised < 250 and (raised > 0 or group)


def test_random_draws_match_oracle(carrier):
    _random_draws_match_oracle(carrier)


def _remap(rng, xi, dens):
    """``xi`` under a random increasing map onto sums of 1/d for d in ``dens``.

    An increasing map keeps every order, touch and coincidence, so the
    draw keeps its moves while its endpoints take mixed denominators.
    """
    ends = sorted({x for j, _ in xi for x in (j.u, j.v)})
    at, x = {}, F(rng.randint(-3, 3), rng.choice(dens))
    for e in ends:
        x += F(rng.randint(1, 5), rng.choice(dens))
        at[e] = x
    return [(Interval(at[j.u], at[j.v], j.p, j.q), m) for j, m in xi]


def test_mixed_denominator_draws_match_oracle(carrier):
    rng = random.Random("mixed-" + carrier.name)
    for _ in range(150):
        xi = _remap(rng, _rand_config(rng, carrier), (2, 3, 5, 7, 8, 12))
        assert _outcome(labeled_normalize, xi, carrier) == _outcome(oracle_normalize, xi, carrier), xi


def test_large_lcm_chain_matches_oracle(m3):
    # 400 touching pieces whose ends i + 1/p each have their own prime p,
    # with a few pastes and a few c labels split into a + b
    rng = random.Random(400)
    ends = [i + F(1, p) for i, p in enumerate(odd_primes(401))]
    pastes = set(rng.sample(range(1, 400), 12))
    xi, m, q = [], None, OPEN
    for i in range(400):
        if i in pastes:
            p = -q
        else:
            m, p = rng.choice([x for x in "abc" if x != m]), rng.choice((OPEN, CLOSED))
        q = rng.choice((OPEN, CLOSED))
        xi.append((Interval(ends[i], ends[i + 1], p, q), m))
    for i in rng.sample([i for i, (_, m) in enumerate(xi) if m == "c"], 8):
        xi[i : i + 1] = [(xi[i][0], "a"), (xi[i][0], "b")]
    rng.shuffle(xi)
    assert labeled._endpoint_keys(xi)[0].bit_length() > 3000
    fast = labeled_normalize(xi, m3)
    assert fast == oracle_normalize(xi, m3)
    assert len(fast) <= 400 - len(pastes)


def test_random_draws_where_label_strings_sort_apart_from_indices():
    # over {0..12}, "10" < "2" as strings, but 2 comes first by index
    _random_draws_match_oracle(truncated_pam(12))


def test_admissibility_reads_labels_in_one_order():
    # restrict sorts by label string; a second, index-based order made the
    # support check see the same content as different
    t24 = truncated_pam(24)
    for text in ("[0,1):2 [0,1):10", "[0,1):2 [0,1):3"):
        report = is_admissible(parse_config(text, t24), 1, (-3, 9), t24)
        assert report.ok, report.reason


def test_unknown_labels_are_rejected(m3):
    with pytest.raises(DomainError, match="unknown element 'zz'"):
        labeled_normalize([(Interval(0, 1, CLOSED, OPEN), "zz")], m3)
    with pytest.raises(DomainError, match="unknown element 'zz'"):
        labeled_normalize([(Interval(1, 1, CLOSED, OPEN), "zz")], m3)


def _check(text, pam, expected=None):
    xi = parse_config(text, pam)
    fast = _outcome(labeled_normalize, xi, pam)
    assert fast == _outcome(oracle_normalize, xi, pam)
    if expected is not None:
        assert fast == ("ok", parse_config(expected, pam))
    return fast


CONTENDED = "[0,1):g1 [1/2,1):g1 [1,2):g1"
ONE_PASTE_AWAY = "[0,1):g1 [1/2,2):g1"


def test_contended_paste_follows_the_leftmost_order():
    # both g1 pieces ending at 1 may take [1,2):g1; the lower one does
    _check(CONTENDED, Z5, "[0,2):g1 [1/2,1):g1")
    xi, alt = parse_config(CONTENDED, Z5), parse_config(ONE_PASTE_AWAY, Z5)
    assert config_eq(xi, alt, Z5, method="search") == EqVerdict.EQUAL


@pytest.mark.xfail(strict=True, reason="the moves do not converge to one normal form here")
def test_one_paste_apart_share_a_normal_form():
    xi, alt = parse_config(CONTENDED, Z5), parse_config(ONE_PASTE_AWAY, Z5)
    assert config_eq(xi, alt, Z5) == EqVerdict.EQUAL


def test_merge_after_paste_reaches_behind_the_cursor(m3):
    # [0,1):a + [1,2):a = [0,2):a, which merges with [0,2):b into c, and
    # only then does [-1,0):c paste on
    _check("[-1,0):c [0,1):a [1,2):a [0,2):b", m3, "[-1,2):c")


def test_coincident_run_sums_lowest_indices_first():
    # g1 + g2 = g3, then g3 + g3 = g1, then g1 + g4 = 0
    _check("[0,1):g1 [0,1):g2 [0,1):g4 [0,1):g3", Z5, "")
    _check("(0,1]:1 (0,1]:2 (0,1]:3", TRUNC6, "(0,1]:6")
    err = _check("(0,1]:1 (0,1]:3 (0,1]:2 (0,1]:4", TRUNC6)
    assert err == (
        "raised",
        DomainError,
        "not in the tensor region: coincident interval %r carries "
        "unsummable labels (4, 6)" % (Interval(0, 1, OPEN, CLOSED),),
    )


def test_unsummable_pair_appears_only_after_a_paste(m3):
    # no two pieces coincide until [0,1):b and [1,2):b paste onto [0,2):c
    err = _check("[0,1):b [1,2):b [0,2):c", m3)
    assert err == (
        "raised",
        DomainError,
        "not in the tensor region: coincident interval %r carries "
        "unsummable labels (b, c)" % (Interval(0, 2, CLOSED, OPEN),),
    )


def _cut_chain(k, parts=4):
    """k copies of (1,3]:a [7/2,11/2):b, period 7, each piece in ``parts`` parts."""
    xi = []
    for i in range(k):
        for u, v, p, q, m in ((1, 3, OPEN, CLOSED, "a"), (F(7, 2), F(11, 2), CLOSED, OPEN, "b")):
            u, v = u + 7 * i, v + 7 * i
            step = (v - u) / parts
            ends = [u + step * t for t in range(parts + 1)]
            for t in range(parts):
                xi.append(
                    (Interval(ends[t], ends[t + 1], p if t == 0 else CLOSED,
                              q if t == parts - 1 else OPEN), m)
                )
    return xi


def test_work_grows_linearly(m3, monkeypatch):
    # integer endpoint keys count the sorting and grouping, so a normal form
    # that keyed its pieces again after each of the 6k pastes would fail;
    # heap pushes and prunes count the indexed paste loop.  One b piece
    # over the first a run keeps the keys from chaining, so they take it
    calls = {"keys": 0, "heappush": 0, "prune": 0}
    endpoint_keys, push, prune = labeled._endpoint_keys, labeled.heappush, labeled._prune

    def keys(pieces):
        out = endpoint_keys(pieces)
        calls["keys"] += len(out[1])
        return out

    def pushes(*args):
        calls["heappush"] += 1
        return push(*args)

    def prunes(heap):
        calls["prune"] += 1
        return prune(heap)

    monkeypatch.setattr(labeled, "_endpoint_keys", keys)
    monkeypatch.setattr(labeled, "heappush", pushes)
    monkeypatch.setattr(labeled, "_prune", prunes)
    counts = {}
    for k in (16, 32):
        xi = _cut_chain(k) + [(Interval(1, 2, CLOSED, OPEN), "b")]
        calls.update(keys=0, heappush=0, prune=0)
        assert len(labeled_normalize(xi, m3)) == 2 * k + 1
        counts[k] = dict(calls)
    for name in calls:
        assert 0 < counts[32][name] <= 2.5 * counts[16][name], counts


def _count_interval_builds(monkeypatch):
    """A list that grows by one per Interval built, checked or trusted."""
    built = []
    post_init, trusted = Interval.__post_init__, Interval._trusted.__func__

    def counting(self):
        built.append(None)
        post_init(self)

    def counting_trusted(cls, *parts):
        built.append(None)
        return trusted(cls, *parts)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    monkeypatch.setattr(Interval, "_trusted", classmethod(counting_trusted))
    return built


def test_paste_builds_each_survivor_once(m3, monkeypatch):
    # 432 parts of 24 pieces, with zero labels and degenerate pieces mixed
    # in: pastes run on keys, and only the 24 pasted survivors are built,
    # through either constructor
    xi = _cut_chain(12, parts=18)
    xi += [(Interval(7 * i, 7 * i + 1, CLOSED, OPEN), "0") for i in range(4)]
    xi += [(Interval(7 * i, 7 * i, CLOSED, OPEN), "a") for i in range(4)]
    random.Random(440).shuffle(xi)
    built = _count_interval_builds(monkeypatch)
    nf = labeled_normalize(xi, m3)
    assert (len(xi), len(nf), len(built)) == (440, 24, 24)
    monkeypatch.undo()
    assert nf == oracle_normalize(xi, m3)


def _count_heap_work(monkeypatch):
    """Lists that grow by one per ``_Piece`` made and per ``heappush``."""
    made, pushes = [], []
    piece, push = labeled._Piece, labeled.heappush

    def counting_piece(*args):
        made.append(None)
        return piece(*args)

    def counting_push(*args):
        pushes.append(None)
        return push(*args)

    monkeypatch.setattr(labeled, "_Piece", counting_piece)
    monkeypatch.setattr(labeled, "heappush", counting_push)
    return made, pushes


def test_a_run_pastes_in_linear_heap_work(m3, monkeypatch):
    # k touching a pieces paste into [0,k):a; the b piece over the first
    # two keeps the keys from chaining, so they take the indexed paste
    # loop.  Past the k + 1 pieces loaded, each of the k - 1 pastes makes
    # one piece and pushes it onto the queue and the index of left ends
    made, pushes = _count_heap_work(monkeypatch)
    b = (Interval(F(1, 2), F(3, 2), CLOSED, OPEN), "b")
    for k in (64, 512):
        xi = [(Interval(i, i + 1, CLOSED, OPEN), "a") for i in range(k)] + [b]
        random.Random(k).shuffle(xi)
        del made[:], pushes[:]
        assert labeled_normalize(xi, m3) == ((Interval(0, k, CLOSED, OPEN), "a"), b)
        assert len(made) - (k + 1) <= k and len(pushes) <= 2 * k, (k, len(made), len(pushes))


def test_a_chain_pastes_in_one_pass(m3, monkeypatch):
    # k touching a pieces chain, so they paste in one fold over the sorted
    # keys: no piece of the paste index is made and no heap is pushed
    made, pushes = _count_heap_work(monkeypatch)
    for k in (64, 512):
        xi = [(Interval(i, i + 1, CLOSED, OPEN), "a") for i in range(k)]
        random.Random(k).shuffle(xi)
        assert labeled_normalize(xi, m3) == ((Interval(0, k, CLOSED, OPEN), "a"),)
    assert (len(made), len(pushes)) == (0, 0)


class _PasteCases:
    """Counts what becomes of the pieces that ``_paste`` makes.

    A paste's result merges when ``_paste`` sums its label with that of
    the live piece it coincides with.  A made piece that is still live
    when ``_paste`` returns was queued, popped and found no live partner.
    """

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(("merge", "no partner"), 0)
        self.loading, self.made = None, []
        self.base = {}
        for name in ("_paste", "_Piece", "_coincident_sum"):
            self.base[name] = getattr(labeled, name)
            monkeypatch.setattr(labeled, name, getattr(self, name.lstrip("_")))

    def paste(self, items, pam, scale):
        self.loading, self.made = len(items), []
        try:
            out = self.base["_paste"](items, pam, scale)
        finally:
            self.loading = None
        self.counts["no partner"] += sum(piece.live for piece in self.made)
        return out

    def Piece(self, *args):
        piece = self.base["_Piece"](*args)
        if self.loading:
            self.loading -= 1
        else:
            self.made.append(piece)
        return piece

    def coincident_sum(self, *args):
        if self.loading is not None:
            self.counts["merge"] += 1
        return self.base["_coincident_sum"](*args)


def _paste_config(rng, pam):
    """Interleaved runs of touching equal-label pieces, for the paste queue.

    Runs share a few left ends, so their pieces interleave in the queue.
    A run may get a piece on the hull of one of its prefixes, a coincident
    piece for a paste's result to merge with; a second piece ending where
    one of its pieces ends with its label, a contended right end; or a
    piece ending at its left end, which waits for a partner that only a
    merge may give it.
    """
    labels = pam.elements[1:]
    xi = []
    for _ in range(rng.randint(1, 3)):
        u = F(rng.randint(0, 4), 2)
        for _ in range(rng.randint(1, 2)):
            m, p0 = rng.choice(labels), rng.choice((OPEN, CLOSED))
            x, p, ends = u, p0, []
            for _ in range(rng.randint(1, 4)):
                w, q = x + F(rng.randint(1, 3), 2), rng.choice((OPEN, CLOSED))
                xi.append((Interval(x, w, p, q), m))
                ends.append((w, q))
                x, p = w, -q
            w, q = rng.choice(ends)
            roll = rng.random()
            if roll < 0.4:
                xi.append((Interval(u, w, p0, q), rng.choice(labels)))
            elif roll < 0.6:
                xi.append((Interval(w - F(1, 4), w, rng.choice((OPEN, CLOSED)), q), m))
            elif roll < 0.8:
                xi.append((Interval(u - F(1, 2), u, rng.choice((OPEN, CLOSED)), -p0), rng.choice(labels)))
    rng.shuffle(xi)
    return xi


def test_paste_cases_match_oracle(m3, z2, monkeypatch):
    # every paste's result is queued like an input piece or merged at
    # once; tuples and errors match the oracle where results merge and
    # where they are left with no partner
    cases = _PasteCases(monkeypatch)
    draws = raised = 0
    for pam in (m3, z2, Z5, TRUNC6):
        rng = random.Random("walk-" + pam.name)
        for _ in range(800):
            xi = _paste_config(rng, pam)
            fast = _outcome(labeled_normalize, xi, pam)
            assert fast == _outcome(oracle_normalize, xi, pam), (pam.name, xi)
            draws += 1
            raised += fast[0] == "raised"
    assert draws >= 3000 and 0 < raised < draws / 2, (draws, raised)
    assert min(cases.counts.values()) >= 100, cases.counts


def _rand_intervals(rng):
    out = []
    x = F(rng.randint(-8, 8), 4)
    for _ in range(rng.randint(0, 14)):
        p = rng.choice((OPEN, CLOSED))
        if rng.random() < 0.15:
            out.append(Interval(x, x, p, -p))
            continue
        if rng.random() < 0.6:
            x += F(rng.randint(1, 4), 4)
        v = x + F(rng.randint(1, 6), 4)
        out.append(Interval(x, v, p, rng.choice((OPEN, CLOSED))))
        x = v
    rng.shuffle(out)
    return out


def test_normalize_config_matches_oracle():
    rng = random.Random(41)
    raised = 0
    for _ in range(600):
        intervals = _rand_intervals(rng)
        fast = _outcome(normalize_config, intervals)
        assert fast == _outcome(oracle_normalize_config, intervals), intervals
        raised += fast[0] == "raised"
    assert 0 < raised < 600


def oracle_merge(keyed, pam, scale):
    """The merge pass by ``groupby``: one list per run of equal keys."""
    items = []
    for key, run in groupby(keyed, key=itemgetter(0)):
        if key[0] != key[1]:
            run = list(run)
            m = labeled._merge_labels(key, scale, [m for _, m, _ in run if m != UNIT], pam)
            if m is not None:
                items.append((key, m, run[0][2]))
    return items


def oracle_normal_keys(keyed, pam, scale):
    """The keyed normal form: the ``groupby`` merge, then the heap paste on every input."""
    return labeled._paste(oracle_merge(keyed, pam, scale), pam, scale)


def _rand_keyed(rng, pam):
    """Sorted (key, label, tag) triples over the scale 4 on a coarse grid.

    Coincident runs, zero labels and degenerate keys are frequent; the tag
    stands for the interval and tells which triple of a run is kept.
    """
    out = []
    for _ in range(rng.choice((1, 1, 2, 3, rng.randint(4, 10)))):
        u = rng.randint(0, 12)
        v = u if rng.random() < 0.15 else u + rng.randint(1, 6)
        key = (u, v, rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
        for _ in range(rng.choice((1, 1, 2, rng.randint(3, 5)))):
            m = UNIT if rng.random() < 0.15 else rng.choice(pam.elements[1:])
            out.append((key, m, len(out)))
    out.sort()
    return out


def test_normal_keys_match_the_groupby_pass(m3, z2):
    seen = dict.fromkeys(("runs", "zero labels", "degenerate", "raised", "pasted"), 0)
    for pam in (m3, z2, Z5, TRUNC6):
        rng = random.Random("normal-keys-" + pam.name)
        for _ in range(1500):
            keyed = _rand_keyed(rng, pam)
            fast = _outcome(labeled._normal_keys, keyed, pam, 4)
            assert fast == _outcome(oracle_normal_keys, keyed, pam, 4), (pam.name, keyed)
            keys = [key for key, _, _ in keyed]
            seen["runs"] += len(set(keys)) < len(keys)
            seen["zero labels"] += any(m == UNIT for _, m, _ in keyed)
            seen["degenerate"] += any(u == v for u, v, _, _ in keys)
            seen["raised"] += fast[0] == "raised"
            seen["pasted"] += fast[0] == "ok" and any(j is None for _, _, j in fast[1])
    assert min(seen.values()) >= 100, seen


def _chain_config(rng, pam):
    """A chain of touching and spaced pieces, perhaps with one overlap.

    A touching piece takes the opposite parity of the end it touches, or
    in one case in ten the same parity, so that the keys do not chain.
    Half of the pieces repeat the label before them, so that touching
    ones paste.  A piece may come as a coincident run: its label split
    into two nonzero parts, or two to three drawn labels, which may merge
    to another label, to zero or not at all.  Zero-labeled and degenerate
    pieces fall anywhere, as both drop before the pastes.  One draw in
    four gets a piece that starts inside another one.
    """
    labels = pam.elements[1:]
    xi, spans = [], []
    x, q, m = F(rng.randint(-8, 8), 4), None, None
    for _ in range(rng.randint(1, 10)):
        if q is not None and rng.random() < 0.6:
            p = q if rng.random() < 0.1 else -q
        else:
            x += F(rng.randint(1, 4), 4)
            p = rng.choice((OPEN, CLOSED))
        if m is None or rng.random() < 0.5:
            m = rng.choice(labels)
        v, q = x + F(rng.randint(1, 4), 4), rng.choice((OPEN, CLOSED))
        j = Interval(x, v, p, q)
        roll = rng.random()
        if roll < 0.1 and pam.nonzero_partitions(m):
            xi += [(j, part) for part in rng.choice(pam.nonzero_partitions(m))]
        elif roll < 0.2:
            xi += [(j, rng.choice(pam.elements)) for _ in range(rng.randint(2, 3))]
        else:
            xi.append((j, m))
        spans.append((x, v))
        x = v
    for _ in range(rng.choice((0, 0, 1, 2))):
        u, v = rng.choice(spans)
        w = u + F(rng.randint(-4, 8), 8)
        if rng.random() < 0.5:
            p = rng.choice((OPEN, CLOSED))
            xi.append((Interval(w, w, p, -p), rng.choice(pam.elements)))
        else:
            xi.append((Interval(w, w + F(rng.randint(1, 6), 4), OPEN, OPEN), UNIT))
    if rng.random() < 0.25:
        u, v = rng.choice(spans)
        w = u + (v - u) / 3
        xi.append((Interval(w, w + F(rng.randint(1, 6), 4), CLOSED, OPEN), rng.choice(labels)))
    rng.shuffle(xi)
    return xi


def _is_chain_oracle(items):
    """True when the keyed ``items`` precede one another as intervals."""
    js = [labeled._interval(key, 1) for key, _, _ in items]
    return all(interval_leq(a, b) for a, b in zip(js, js[1:]))


def test_chain_fold_matches_the_heap_and_the_oracle(carrier, monkeypatch):
    # 1,000 seeded draws per carrier, three in ten remapped onto mixed
    # denominators.  labeled_normalize matches the restart-from-the-front
    # oracle, and the keyed normal form matches _paste called directly on
    # the same merged items, intervals included.  Keys that chain never
    # reach _paste, and keys that do not always do
    heap_calls = []
    paste = labeled._paste

    def counting_paste(items, pam, scale):
        heap_calls.append(None)
        return paste(items, pam, scale)

    monkeypatch.setattr(labeled, "_paste", counting_paste)
    rng = random.Random("chain-fold-" + carrier.name)
    seen = dict.fromkeys(
        ("chain pasted", "chain unpasted", "heap", "run merged into a chain", "zero label",
         "degenerate", "touching same label", "touching other label", "remapped"), 0
    )
    for _ in range(1000):
        xi = _chain_config(rng, carrier)
        if rng.random() < 0.3:
            xi = _remap(rng, xi, (2, 3, 5, 7, 8, 12))
            seen["remapped"] += 1
        del heap_calls[:]
        fast = _outcome(labeled_normalize, xi, carrier)
        reached_heap = bool(heap_calls)
        assert fast == _outcome(oracle_normalize, xi, carrier), (carrier.name, xi)
        scale, keyed = labeled._endpoint_keys(xi)
        keyed.sort()
        assert _outcome(labeled._normal_keys, keyed, carrier, scale) == _outcome(
            oracle_normal_keys, keyed, carrier, scale
        ), (carrier.name, xi)
        keys = [key for key, _, _ in keyed]
        seen["zero label"] += any(m == UNIT for _, m, _ in keyed)
        seen["degenerate"] += any(u == v for u, v, _, _ in keys)
        if fast[0] == "raised":
            continue
        items = oracle_merge(keyed, carrier, scale)
        chained = _is_chain_oracle(items)
        assert reached_heap != chained, (carrier.name, xi)
        if not chained:
            seen["heap"] += 1
            continue
        touching = [(x[1], y[1]) for x, y in zip(items, items[1:]) if x[0][1] == y[0][0]]
        seen["run merged into a chain"] += len(set(keys)) < len(keys)
        seen["touching same label"] += any(a == b for a, b in touching)
        seen["touching other label"] += any(a != b for a, b in touching)
        pasted = any(j is None for _, _, j in labeled._normal_keys(keyed, carrier, scale))
        seen["chain pasted" if pasted else "chain unpasted"] += 1
    if len(carrier.elements) == 2:
        # Z2 has one nonzero label
        assert seen.pop("touching other label") == 0, seen
    assert min(seen.values()) >= 100, seen


def oracle_keys_over(pieces, scale):
    """Keys over ``scale`` by two property reads per endpoint."""

    def num(x):
        return x.numerator * (scale // x.denominator)

    return [((num(j.u), num(j.v), j.p, j.q), m, j) for j, m in pieces]


def oracle_endpoint_keys(pieces):
    """The scale and keys of ``_endpoint_keys`` by denominator and numerator reads."""
    scale = lcm(*{x.denominator for j, _ in pieces for x in (j.u, j.v)})
    return scale, oracle_keys_over(pieces, scale)


def oracle_eq_outcome(x1, x2, pam):
    """``config_eq(x1, x2, pam)`` by comparing two Interval normal forms.

    The labels of x1 and then x2 are checked first, in input order, and an
    unknown one gives ("raised", 0, type, text).  Otherwise returns ("ok",
    verdict), or ("raised", side, type, text) for the first of the two
    ``labeled_normalize`` calls that raised, x1 being side 1.
    """
    for _, m in x1 + x2:
        out = _outcome(pam.check_element, m)
        if out[0] == "raised":
            return ("raised", 0) + out[1:]
    nfs = []
    for side, x in enumerate((x1, x2), 1):
        out = _outcome(labeled_normalize, x, pam)
        if out[0] == "raised":
            return ("raised", side) + out[1:]
        nfs.append(out[1])
    return "ok", EqVerdict.EQUAL if nfs[0] == nfs[1] else EqVerdict.DISTINCT


def _eq_pair(rng, pam):
    """Two configurations over ``pam``, often presentations of one element.

    x2 is x1 after one to three ``rand_rewrite`` steps (which keep the
    element), x1 with one piece dropped or relabeled, or a draw of its
    own.  One pair in ten puts an unknown label on one side or both, and
    four in ten go under one increasing map onto mixed denominators,
    shifted below zero.
    """
    x1 = _rand_config(rng, pam)
    roll = rng.random()
    if roll < 0.45:
        x2 = x1
        for _ in range(rng.randint(1, 3)):
            x2 = rand_rewrite(rng, x2, pam)
        x2 = list(x2)
        rng.shuffle(x2)
    elif roll < 0.7 and x1:
        x2 = list(x1)
        i = rng.randrange(len(x2))
        if rng.random() < 0.5:
            del x2[i]
        else:
            x2[i] = (x2[i][0], rng.choice(pam.elements))
    else:
        x2 = _rand_config(rng, pam)
    if rng.random() < 0.1:
        for x, label in rng.choice((((x1, "zz1"),), ((x2, "zz2"),), ((x1, "zz1"), (x2, "zz2")))):
            x.insert(rng.randint(0, len(x)), (Interval(1, 2, CLOSED, OPEN), label))
    if rng.random() < 0.4:
        n = len(x1)
        mapped = _remap(rng, x1 + x2, (2, 3, 5, 7, 8, 12))
        shift = F(rng.randint(5, 40), rng.choice((3, 7, 11)))
        mapped = [(Interval(j.u - shift, j.v - shift, j.p, j.q), m) for j, m in mapped]
        x1, x2 = mapped[:n], mapped[n:]
    return x1, x2


def test_config_eq_and_keys_match_the_fraction_paths(carrier, monkeypatch):
    # 500 seeded pairs per carrier: the keys and scale of _endpoint_keys,
    # alone and with an extra rational, equal those of the two-read keying,
    # and config_eq by normal form gives the verdict, or raises the error
    # from the same side, that checking the labels of both sides and then
    # comparing two labeled_normalize results gives; a label error comes
    # before either side is normalized
    sides = []
    normal_keys = labeled._normal_keys

    def counting(keyed, pam, scale):
        sides.append(None)
        return normal_keys(keyed, pam, scale)

    monkeypatch.setattr(labeled, "_normal_keys", counting)
    rng = random.Random("config-eq-keys-" + carrier.name)
    seen = dict.fromkeys(("equal", "distinct", "raised", "raised on x2", "mixed below zero"), 0)
    for _ in range(500):
        x1, x2 = _eq_pair(rng, carrier)
        pieces = x1 + x2
        scale, keyed = labeled._endpoint_keys(pieces)
        assert (scale, keyed) == oracle_endpoint_keys(pieces), pieces
        assert labeled._endpoint_keys(x1, F(1, 6 * scale)) == (6 * scale, oracle_keys_over(x1, 6 * scale)), x1
        del sides[:]
        fast = _outcome(config_eq, x1, x2, carrier)
        if fast[0] == "raised":
            fast = ("raised", len(sides)) + fast[1:]
        want = oracle_eq_outcome(x1, x2, carrier)
        assert fast == want, (carrier.name, x1, x2)
        ends = [x for j, _ in pieces for x in (j.u, j.v)]
        seen["mixed below zero"] += len({x.denominator for x in ends}) > 1 and min(ends, default=0) < 0
        if want[0] == "raised":
            seen["raised"] += 1
            # x2's merge, or x2's unknown label zz2 with none in x1
            seen["raised on x2"] += want[1] == 2 or "zz2" in want[3]
        else:
            seen["equal" if want[1] is EqVerdict.EQUAL else "distinct"] += 1
    assert seen["mixed below zero"] >= 150 and seen["raised"] >= 25, seen
    assert min(seen.values()) >= 20, seen


def test_config_eq_by_normal_form_builds_no_interval(m3, monkeypatch):
    # the 20 pieces of the chain, each unpasted into 20 parts: config_eq
    # keys both sides once and compares keys, so neither Interval
    # constructor runs, the one the pastes use included
    source = _cut_chain(10, parts=1)
    noisy = _cut_chain(10, parts=20)
    random.Random(400).shuffle(noisy)
    built = _count_interval_builds(monkeypatch)
    assert config_eq(noisy, source, m3) == EqVerdict.EQUAL
    assert config_eq(noisy, source[1:], m3) == EqVerdict.DISTINCT
    assert (len(noisy), len(built)) == (400, 0)


def test_a_trusted_interval_is_the_checked_one():
    for u, v, p, q in (
        (F(1, 3), F(5, 2), CLOSED, OPEN),
        (F(-7, 4), F(-7, 4), OPEN, CLOSED),
        (F(0), F(3), OPEN, OPEN),
        (F(-9, 2), F(-1, 6), CLOSED, CLOSED),
    ):
        trusted, checked = Interval._trusted(u, v, p, q), Interval(u, v, p, q)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (repr(trusted), fmt_interval(trusted)) == (repr(checked), fmt_interval(checked))
        with pytest.raises(FrozenInstanceError):
            trusted.u = F(0)


def test_the_public_interval_keeps_its_checks():
    for args, text in (
        ((0, 1, 0, OPEN), "parities must be +1 (closed) or -1 (open)"),
        ((0, 1, CLOSED, 2), "parities must be +1 (closed) or -1 (open)"),
        ((2, 1, CLOSED, OPEN), "interval endpoints out of order: 2 > 1"),
        ((F(1, 2), F(1, 2), OPEN, OPEN), "degenerate interval requires opposite parities"),
    ):
        with pytest.raises(ValueError) as info:
            Interval(*args)
        assert str(info.value) == text


def test_each_distinct_label_is_checked_once(m3, monkeypatch):
    # 400 pieces that chain, over four labels with no two equal ones
    # touching, paste and merge nothing, so the only checks are the normal
    # form's own: one per distinct label, in input order
    calls = []
    check = FinitePam.check_element

    def counting(self, x):
        calls.append(x)
        return check(self, x)

    monkeypatch.setattr(FinitePam, "check_element", counting)
    labels = ["c", "0", "b", "a"]
    xi = [(Interval(k, k + 1, CLOSED, OPEN), labels[k % 7 % 4]) for k in range(400)]
    nf = labeled_normalize(xi, m3)
    assert len(nf) == 286 and calls == labels
    calls.clear()
    # config_eq checks the labels of both sides once, together
    assert config_eq(xi, nf, m3) == EqVerdict.EQUAL
    assert calls == labels
    # the first unknown label in input order still raises, on either path
    bad = xi[:5] + [(Interval(500, 501, CLOSED, OPEN), "zz"), (Interval(-2, -1, CLOSED, OPEN), "yy")] + xi
    for run in (lambda: labeled_normalize(bad, m3), lambda: config_eq(xi, bad, m3)):
        with pytest.raises(DomainError, match="^unknown element 'zz' of pam 'M3'$"):
            run()


def oracle_positive_part(eta, pam):
    """``positive_part`` that normalizes the mirror of the normal form again."""
    nf = labeled_normalize(eta, pam)
    if labeled_normalize(mirror_config(nf), pam) != nf:
        raise DomainError("configuration is not mirror-invariant")
    s_zero, s_plus = labeled._mirror_split(nf)
    folded = [(Interval(0, j.v, CLOSED, j.q), m) for j, m in s_zero]
    return lc_sorted(folded + list(s_plus))


def _mirror_draw(rng, pam):
    """One to seven pieces on a quarter grid, most of them with their mirror images.

    A half of one to three pieces, which may overlap, touch 0 or cross
    it, comes with its mirror image, and one draw in three adds a piece
    (-w, w) that is its own mirror.  One draw in five then drops a piece
    or moves one by a quarter, and one in ten keeps the half alone.
    Labels may be 0 and pieces may be degenerate.
    """
    labels = pam.elements
    half = []
    for _ in range(rng.randint(1, 3)):
        u = F(rng.randint(-4, 8), 4)
        p = rng.choice((OPEN, CLOSED))
        if rng.random() < 0.1:
            j = Interval(u, u, p, -p)
        else:
            j = Interval(u, u + F(rng.randint(1, 8), 4), p, rng.choice((OPEN, CLOSED)))
        half.append((j, UNIT if rng.random() < 0.1 else rng.choice(labels[1:])))
    roll = rng.random()
    xi = half if roll < 0.1 else half + list(mirror_config(half))
    if rng.random() < 1 / 3:
        w, p = F(rng.randint(1, 8), 4), rng.choice((OPEN, CLOSED))
        xi.append((Interval(-w, w, p, -p), rng.choice(labels[1:])))
    if 0.1 <= roll < 0.3:
        i = rng.randrange(len(xi))
        j, m = xi.pop(i)
        if roll < 0.2:
            xi.insert(i, (j.translate(F(1, 4)), m))
    rng.shuffle(xi)
    return xi


def test_positive_part_normalizes_once(carrier):
    # 1,100 seeded draws per carrier: comparing the mirror of the normal
    # form with the normal form itself gives the tuple, or the error text,
    # of normalizing that mirror again.  Draws fold with and without a
    # piece at 0, and fail the mirror check or the mirror shape
    rng = random.Random("positive-part-" + carrier.name)
    seen = Counter()
    for _ in range(1100):
        xi = _mirror_draw(rng, carrier)
        got = _outcome(positive_part, xi, carrier)
        assert got == _outcome(oracle_positive_part, xi, carrier), (carrier.name, xi)
        if got[0] == "ok":
            seen["starts at 0" if got[1] and got[1][0][0].u == 0 else "folded"] += 1
        else:
            seen[next((r for r in ("mirror-invariant", "mirror-shaped") if r in got[2]), "other")] += 1
    assert min(seen[r] for r in ("starts at 0", "folded", "mirror-invariant", "mirror-shaped")) >= 150, seen

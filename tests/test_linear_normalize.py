"""Indexed normal forms against the restart-from-the-front loops they replace.

The oracles re-sort and rescan from the first piece after every move.  The
library replays the same moves in the same order, so tuples and DomainError
messages must agree exactly, over carriers beyond M3 and Z2 too.  The work
guard counts sort keys, so a quadratic normal form cannot return without a
failing test.
"""

import random
from fractions import Fraction as F

import pytest

import pamscan.labeled as labeled
from pamscan import (
    CLOSED,
    OPEN,
    DomainError,
    IncompatibleConfig,
    Interval,
    config_eq,
    interval_leq,
    is_admissible,
    labeled_normalize,
    normalize_config,
)
from pamscan.dsl import parse_config
from pamscan.pam import UNIT
from pamscan.tensor import EqVerdict

from genutil import cyclic_pam, truncated_pam


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


def _cut_chain(k):
    """k copies of (1,3]:a [7/2,11/2):b, period 7, each piece in 4 parts."""
    xi = []
    for i in range(k):
        for u, v, p, q, m in ((1, 3, OPEN, CLOSED, "a"), (F(7, 2), F(11, 2), CLOSED, OPEN, "b")):
            u, v = u + 7 * i, v + 7 * i
            step = (v - u) / 4
            ends = [u + step * t for t in range(5)]
            for t in range(4):
                xi.append(
                    (Interval(ends[t], ends[t + 1], p if t == 0 else CLOSED,
                              q if t == 3 else OPEN), m)
                )
    return xi


def test_work_grows_linearly(m3, monkeypatch):
    # sort keys count the restart-from-the-front loop (7,888 and 31,136 of
    # them at k = 16 and 32); heap pushes count the indexed paste loop
    calls = {"sort_key": 0, "heappush": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(Interval, "sort_key", counted("sort_key", Interval.sort_key))
    monkeypatch.setattr(labeled, "heappush", counted("heappush", labeled.heappush))
    counts = {}
    for k in (16, 32):
        xi = _cut_chain(k)
        calls.update(sort_key=0, heappush=0)
        assert len(labeled_normalize(xi, m3)) == 2 * k
        counts[k] = dict(calls)
    for name in calls:
        assert counts[32][name] <= 2.5 * counts[16][name], counts


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

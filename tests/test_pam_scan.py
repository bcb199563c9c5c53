"""The associativity scan of carrier validation, against the exhaustive oracle.

``FinitePam._violations`` visits only the triples that can fail.  The oracle
is the exhaustive scan over every ordered triple of positions, on the
string-keyed pair sum.  Tables are built through ``_build`` alone, so that
invalid ones reach the scan, and both violation lists must agree, order
included, except that a table whose ids repeat is refused before the
scan.  A work guard counts the triples the scan inspects, and the rest
cover a sum line given twice and repeated ids.
"""

import itertools
import os
import random

import pytest

from pamscan import FinitePam, PamError, validate_pam
from pamscan.dsl import parse_pam_text
from pamscan.pam import UNIT

from genutil import cyclic_pam, truncated_pam


def oracle_violations(pam):
    """Exhaustive associativity scan over ordered triples.

    The axiom: (a,b) and (a+b,c) are summable iff (b,c) and (a,b+c) are,
    and then the totals agree.  Each failure reports its witnessing triple.
    """
    out = []
    add = pam._add
    for a, b, c in itertools.product(pam.elements, repeat=3):
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


def built(elements, sums):
    """A carrier after ``_build`` only, with the problems it found."""
    pam = object.__new__(FinitePam)
    pam.name = "T"
    pam.elements = tuple(elements)
    pam._index = {e: i for i, e in enumerate(pam.elements)}
    pam._pairs = {}
    return pam, pam._build(sums)


def assert_scan_matches(elements, sums):
    pam, problems = built(elements, sums)
    want = oracle_violations(pam)
    assert pam._violations() == want, sums
    # the constructor runs the scan only when every id is distinct
    scanned = want if len(set(elements)) == len(elements) else []
    assert validate_pam("T", elements, sums)[1] == problems + scanned, sums
    return want


def test_scan_matches_oracle_on_every_small_table():
    ids = ("a", "b", "c")
    pairs = list(itertools.combinations_with_replacement(ids, 2))
    invalid = 0
    for values in itertools.product((None, UNIT) + ids, repeat=len(pairs)):
        sums = {p: v for p, v in zip(pairs, values) if v is not None}
        pam, _ = built((UNIT,) + ids, sums)
        want = oracle_violations(pam)
        assert pam._violations() == want, sums
        invalid += bool(want)
    assert invalid == 15370


def random_sums(rng, elements):
    """A random partial table: commutative pairs, some restated in the
    other order with a value that may conflict."""
    nonunit = elements[1:]
    density = rng.choice((0.1, 0.3, 0.6, 0.9))
    sums = {}
    for a, b in itertools.combinations_with_replacement(nonunit, 2):
        if rng.random() < density:
            sums[a, b] = rng.choice(elements)
            if a != b and rng.random() < 0.1:
                sums[b, a] = rng.choice((sums[a, b], rng.choice(elements)))
    return sums


def oracle_partitions(pam, m):
    """Ordered pairs (x, y) with x + y = m, by a scan of every pair."""
    out = [(x, y) for x in pam.elements for y in pam.elements if pam._add(x, y) == m]
    out.sort(key=lambda xy: (pam._index[xy[0]], pam._index[xy[1]]))
    return out


def assert_partitions_match(pam):
    for m in pam.elements:
        assert pam.partitions(m) == oracle_partitions(pam, m), m
        assert pam.nonzero_partitions(m) == [xy for xy in oracle_partitions(pam, m) if UNIT not in xy]


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixtures")


def test_partition_table_matches_scan():
    for name in ("m3", "t24", "z5", "z7"):
        with open(os.path.join(FIXTURES, name + ".pam"), encoding="utf-8") as fh:
            assert_partitions_match(parse_pam_text(fh.read()))
    rng = random.Random(15)
    for _ in range(400):
        elements = [UNIT] + ["e%d" % i for i in range(1, rng.randint(5, 9))]
        assert_partitions_match(built(elements, random_sums(rng, elements))[0])
    rng = random.Random(16)
    for pam in (cyclic_pam(5), cyclic_pam(7), truncated_pam(6), truncated_pam(8)):
        assert_partitions_match(pam)
        rows = {(a, b): c for a, b, c in pam.sum_rows()}
        for _ in range(40):
            sums = dict(rows)
            key = rng.choice(sorted(rows))
            sums[key] = rng.choice(pam.elements)
            assert_partitions_match(built(pam.elements, sums)[0])


def test_scan_matches_oracle_on_seeded_tables():
    rng = random.Random(15)
    for _ in range(400):
        elements = [UNIT] + ["e%d" % i for i in range(1, rng.randint(5, 9))]
        assert_scan_matches(elements, random_sums(rng, elements))


def test_scan_matches_oracle_near_valid_carriers():
    # one entry of a valid carrier changed, dropped or added
    rng = random.Random(16)
    for pam in (cyclic_pam(5), cyclic_pam(7), truncated_pam(6), truncated_pam(8)):
        rows = {(a, b): c for a, b, c in pam.sum_rows()}
        assert assert_scan_matches(pam.elements, rows) == []
        keys = sorted(rows)
        for _ in range(40):
            sums = dict(rows)
            key = rng.choice(keys)
            move = rng.randrange(3)
            if move == 0:
                sums[key] = rng.choice(pam.elements)
            elif move == 1:
                del sums[key]
            else:
                a, b = rng.sample(pam.elements[1:], 2)
                sums.setdefault((a, b), rng.choice(pam.elements))
            assert_scan_matches(pam.elements, sums)


@pytest.mark.parametrize(
    "elements,sums",
    [
        # unit sums restated, consistently and not
        (["0", "a", "b", "c"], {("0", "a"): "a", ("0", "0"): "0", ("a", "b"): "c"}),
        (["0", "a", "b", "c"], {("b", "0"): "c", ("a", "a"): "b", ("a", "b"): "c"}),
        # unknown ids: the entry is dropped and the rest is scanned
        (["0", "a", "b"], {("a", "x"): "a", ("x", "x"): "y", ("a", "a"): "b", ("b", "b"): "a"}),
        (["0", "a", "b"], {("a", "b"): "q", ("a", "a"): "b"}),
        # repeated ids: the constructor stops before the scan, which still
        # matches the oracle position by position
        (["0", "a", "a"], {}),
        (["0", "a", "a"], {("a", "a"): "0"}),
        (["0", "a", "a"], {("a", "a"): "a"}),
        (["0", "a", "b", "a"], {("a", "a"): "b", ("b", "b"): "0", ("a", "b"): "a"}),
        (["0", "0", "a"], {("a", "a"): "a"}),
    ],
)
def test_scan_matches_oracle_on_odd_tables(elements, sums):
    assert_scan_matches(elements, sums)


def test_repeated_ids_are_named_and_not_scanned(scanned):
    # a sits at positions 1 and 3: the carrier is refused naming a once,
    # and no triple is scanned, since a triple of ids has no one position
    sums = {("a", "a"): "b", ("b", "b"): "0", ("a", "b"): "a"}
    with pytest.raises(PamError) as info:
        scanned(lambda: FinitePam("T", ["0", "a", "b", "a"], sums))
    assert info.value.violations == ["duplicate element ids: a"]
    assert str(info.value) == "invalid partial abelian monoid 'T': duplicate element ids: a"
    assert validate_pam("T", ["0", "b", "0", "a", "b", "b"], {("a", "a"): "x"})[1] == [
        "duplicate element ids: 0, b",
        "sum a + a = x uses unknown element x",
    ]
    _, seen = scanned(lambda: validate_pam("T", ["0", "a", "b", "a", "0"], sums))
    assert seen == 0


@pytest.fixture
def scanned(monkeypatch):
    """The number of triples the scan inspects, per carrier built."""
    counts = []
    triples = FinitePam._triples

    def counting(self, tab):
        for a, b, cs in triples(self, tab):
            counts.append(len(cs))
            yield a, b, cs

    monkeypatch.setattr(FinitePam, "_triples", counting)

    def build(make):
        counts.clear()
        pam = make()
        return pam, sum(counts)

    return build


def can_fail(pam):
    """Non-unit triples with (a,b) or (b,c) defined."""
    nonunit = [e for e in pam.elements if e != UNIT]
    return sum(
        1
        for a, b, c in itertools.product(nonunit, repeat=3)
        if pam.defined(a, b) or pam.defined(b, c)
    )


def m3_copies(k):
    """k copies of M3 sharing the unit: a_i + b_i = c_i and nothing else."""
    elements = [UNIT] + ["%s%d" % (x, i) for i in range(k) for x in "abc"]
    return FinitePam("M3x%d" % k, elements, {("a%d" % i, "b%d" % i): "c%d" % i for i in range(k)})


def test_scan_inspects_only_the_triples_that_can_fail(scanned):
    _, seen = scanned(lambda: FinitePam("Free", ["0", "a", "b", "c"], {}))
    assert seen == 0
    for make, n in ((lambda: truncated_pam(24), 24), (lambda: m3_copies(6), 18)):
        pam, seen = scanned(make)
        assert seen == can_fail(pam)
        assert seen < n**3 * 2 // 3
    # a full group has every pair defined: the cuts leave only the unit out
    _, seen = scanned(lambda: cyclic_pam(7))
    assert seen == 6**3


def test_repeated_sum_line_conflicts():
    head = "pam D\nelements 0 a\n"
    with pytest.raises(PamError) as info:
        parse_pam_text(head + "sum a + a = a\nsum a + a = 0\n")
    assert info.value.violations == ["conflicting sums for (a, a): a and 0"]
    assert parse_pam_text(head + "sum a + a = a\nsum a + a = a\n").sum_rows() == [("a", "a", "a")]
    items = [(("a", "a"), "0"), (("a", "a"), "a"), (("0", "a"), "a")]
    assert validate_pam("D", ["0", "a"], items)[1] == ["conflicting sums for (a, a): 0 and a"]

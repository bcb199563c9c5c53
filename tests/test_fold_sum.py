"""Tuple sums by one left fold, against the every-permutation oracle.

In a partial abelian monoid a family is summable in one order exactly when
it is summable in every order, and all orders agree.  ``sum_tuple`` folds
once; the oracle tries every permutation and fails if two orders disagree.
The rest cover inputs with more than eight summands, a work guard on the
fold, and the inclusion-minimal witness that ``bm_canon`` reports.
"""

import itertools
from fractions import Fraction as F

import pytest

import pamscan.tensor as tensor
from pamscan import CLOSED, OPEN, DomainError, FinitePam, Interval, bm_canon, is_admissible
from pamscan.cli import main
from pamscan.fibers import _match_pattern
from pamscan.pam import UNIT
from pamscan.tensor import BMElement

from genutil import cyclic_pam, truncated_pam

Z5 = cyclic_pam(5)
TRUNC6 = truncated_pam(6)


def oracle_sum_tuple(pam, elems):
    """Fold every permutation; all must agree on definedness and value."""
    if not elems:
        return UNIT
    outcomes = set()
    for perm in set(itertools.permutations(elems)):
        acc = perm[0]
        for x in perm[1:]:
            acc = pam.pair_sum(acc, x)
            if acc is None:
                break
        outcomes.add(acc)
    assert len(outcomes) == 1, "sum of %r depends on ordering: %r" % (elems, outcomes)
    return outcomes.pop()


def test_fold_matches_permutation_oracle(carrier):
    for n in range(7):
        for elems in itertools.combinations_with_replacement(carrier.elements, n):
            want = oracle_sum_tuple(carrier, elems)
            assert carrier.sum_tuple(elems) == want, elems
            assert carrier.sum_tuple(elems[::-1]) == want, elems


class Counted(dict):
    """A copy of a carrier's table that records each lookup and each membership test."""

    def __init__(self, table, calls):
        super().__init__(table)
        self.calls = calls

    def get(self, key, default=None):
        self.calls.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.calls.append(key)
        return super().__contains__(key)


def test_fold_makes_at_most_n_minus_1_pair_sums(monkeypatch):
    # the fold looks its steps up unchecked in the table of summable
    # pairs, so the lookup is what is counted
    calls = []
    monkeypatch.setattr(Z5, "_pairs", Counted(Z5._pairs, calls))
    monkeypatch.setattr(TRUNC6, "_pairs", Counted(TRUNC6._pairs, calls))
    for n in (1, 9, 40, 200):
        for elems in (("g1",) * n, ("g2", "g3") * n):
            calls.clear()
            assert Z5.sum_tuple(elems) is not None
            assert len(calls) == len(elems) - 1
    calls.clear()
    assert TRUNC6.sum_tuple(("3",) * 40) is None
    assert len(calls) <= 39


def test_each_element_is_checked_once(monkeypatch):
    # the fold tests each element once against the carrier's index and
    # calls ``check_element`` only to raise, on the first unknown element
    calls, tests = [], []
    check = FinitePam.check_element

    def counting(self, x):
        calls.append(x)
        return check(self, x)

    monkeypatch.setattr(FinitePam, "check_element", counting)
    monkeypatch.setattr(Z5, "_index", Counted(Z5._index, tests))
    assert Z5.sum_tuple(("g1",) * 12) == "g2"
    assert len(tests) == 12 and calls == []
    t24 = truncated_pam(24)
    assert len(calls) <= len(t24.elements)
    # the public pair sum still checks, with the same message
    with pytest.raises(DomainError, match="unknown element 'q' of pam 'Z5'"):
        Z5.pair_sum("g1", "q")
    calls.clear()
    with pytest.raises(DomainError, match="unknown element 'q' of pam 'Z5'"):
        Z5.sum_tuple(("g1", "q", "g2", "r"))
    assert calls == ["q"]


def test_nine_half_open_pieces_in_one_window_are_admissible():
    xi = tuple(
        (Interval(F(2 * k, 20), F(2 * k + 1, 20), CLOSED, OPEN), "g1") for k in range(9)
    )
    report = is_admissible(xi, F(1, 2), (-2, 3), Z5)
    assert report.ok, report.reason


def test_cli_bm_canon_on_nine_points(tmp_path, capsys):
    pam_file = tmp_path / "z2.pam"
    pam_file.write_text("pam Z2\nelements 0 g\nsum g + g = 0\n", encoding="utf-8")
    points = " ".join("%d/10:g" % k for k in range(1, 10))
    assert main(["bm", "canon", "--pam", str(pam_file), points]) == 0
    assert capsys.readouterr().out == (
        "1/10:g 1/5:g 3/10:g 2/5:g 1/2:g 3/5:g 7/10:g 4/5:g 9/10:g\n"
    )


def test_nine_central_labels_match_the_pattern():
    eta = tuple(
        (Interval(-F(10 + k, 20), F(10 + k, 20), CLOSED, OPEN), "g1") for k in range(9)
    )
    assert _match_pattern(eta, BMElement("g4", ()), Z5, 1, far_allowed=True) == ((), ())


def test_bm_canon_witness_is_minimal_after_quadratic_work(monkeypatch):
    t24 = truncated_pam(24)
    calls = []
    sum_tuple = FinitePam.sum_tuple

    def counting(self, elems):
        calls.append(len(elems))
        return sum_tuple(self, elems)

    monkeypatch.setattr(FinitePam, "sum_tuple", counting)
    with pytest.raises(DomainError) as info:
        bm_canon(t24, [(F(k, 40), "2") for k in range(1, 21)])
    # 13 twos overflow 24; any 12 of them sum
    assert "%r" % (["2"] * 13,) in str(info.value)
    # one summability check plus one fold per label
    assert len(calls) == 21


def test_witness_is_inclusion_minimal(carrier):
    for n in range(2, 6):
        for labels in itertools.combinations_with_replacement(carrier.elements, n):
            if carrier.sum_tuple(labels) is not None:
                continue
            witness = tensor._minimal_unsummable(carrier.sum_tuple, labels)
            assert carrier.sum_tuple(witness) is None
            for i in range(len(witness)):
                assert carrier.sum_tuple(witness[:i] + witness[i + 1 :]) is not None

"""Partial abelian monoid validation, partitions and tuple sums."""

import pytest

from pamscan import DomainError, FinitePam, PamError, validate_pam


def test_m3_basic(m3):
    assert m3.elements == ("0", "a", "b", "c")
    assert m3.pair_sum("a", "b") == "c"
    assert m3.pair_sum("b", "a") == "c"
    assert m3.pair_sum("a", "a") is None
    assert m3.pair_sum("0", "b") == "b"
    assert m3.defined("a", "b")
    assert not m3.defined("a", "c")
    assert m3.index("c") == 3
    assert m3.sum_rows() == [("a", "b", "c")]


def test_unknown_element(m3):
    with pytest.raises(DomainError):
        m3.check_element("q")
    with pytest.raises(DomainError):
        m3.pair_sum("a", "q")


def test_partitions_frozen(m3, z2):
    assert m3.partitions("c") == [("0", "c"), ("a", "b"), ("b", "a"), ("c", "0")]
    assert m3.partitions("a") == [("0", "a"), ("a", "0")]
    assert m3.nonzero_partitions("c") == [("a", "b"), ("b", "a")]
    assert z2.partitions("0") == [("0", "0"), ("g", "g")]


def test_self_insummable(m3, z2):
    assert m3.is_self_insummable()
    assert not z2.is_self_insummable()


def test_sum_tuple(m3):
    assert m3.sum_tuple(()) == "0"
    assert m3.sum_tuple(("a",)) == "a"
    assert m3.sum_tuple(("a", "b")) == "c"
    assert m3.sum_tuple(("b", "a", "0")) == "c"
    assert m3.sum_tuple(("a", "b", "c")) is None
    assert m3.sum_tuple(("a", "a")) is None
    # refinement: any tuple summing into a summable tuple stays summable
    assert m3.sum_tuple(("0", "0", "a", "b")) == "c"
    assert m3.sum_tuple(("a",) * 9) is None


def test_sum_tuple_order_independent(m3):
    import itertools

    for perm in itertools.permutations(("a", "b", "0")):
        assert m3.sum_tuple(perm) == "c"


def test_unit_restatement():
    # explicit 0+a=a is redundant but consistent
    pam = FinitePam("U", ["0", "a"], {("0", "a"): "a"})
    assert pam.pair_sum("0", "a") == "a"
    with pytest.raises(PamError, match="unit violation: 0 \\+ a = b"):
        FinitePam("U", ["0", "a", "b"], {("0", "a"): "b"})


def test_validation_errors():
    with pytest.raises(PamError, match="duplicate"):
        FinitePam("D", ["0", "a", "a"], {})
    with pytest.raises(PamError, match="unit"):
        FinitePam("D", ["a", "b"], {})
    with pytest.raises(PamError, match="unknown"):
        FinitePam("D", ["0", "a"], {("a", "x"): "a"})


def test_commutativity_conflict():
    with pytest.raises(PamError, match="conflict"):
        FinitePam("C", ["0", "a", "b", "c"], {("a", "b"): "c", ("b", "a"): "a"})


NONASSOC_SUMS = {("a", "a"): "b", ("b", "b"): "0", ("a", "b"): "c"}


def test_associativity_witness():
    pam, violations = validate_pam("NA", ["0", "a", "b", "c"], NONASSOC_SUMS)
    assert pam is None
    assert violations[0] == (
        "associativity fails at triple (a, a, b): only (a+a)+b is defined"
    )
    assert len(violations) == 6


def test_validate_pam_ok():
    pam, violations = validate_pam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"})
    assert violations == []
    assert pam.pair_sum("a", "b") == "c"


def test_associativity_value_mismatch():
    # (a+a)+b = b+b = 0 while a+(a+b) = a+a = b
    sums = {("a", "a"): "b", ("b", "b"): "0", ("a", "b"): "a"}
    pam, violations = validate_pam("NA2", ["0", "a", "b"], sums)
    assert pam is None
    assert any("!=" in v for v in violations)

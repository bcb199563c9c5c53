import pytest

import pamscan.labeled as labeled
from pamscan import FinitePam

from genutil import cyclic_pam, truncated_pam


@pytest.fixture(scope="session")
def m3():
    return FinitePam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"})


@pytest.fixture(scope="session")
def z2():
    return FinitePam("Z2", ["0", "g"], {("g", "g"): "0"})


@pytest.fixture(scope="session", params=["m3", "z2", "z5", "trunc6"])
def carrier(request):
    """M3 and Z2, plus Z/5 and {0..6} under truncated addition."""
    if request.param == "z5":
        return cyclic_pam(5)
    if request.param == "trunc6":
        return truncated_pam(6)
    return request.getfixturevalue(request.param)


@pytest.fixture
def decompose_reads(monkeypatch):
    """The (lo, hi, k) window of every call to ``labeled._decompose_keys``.

    The reads of ``labeled._reads``, and so of the sweep and the trace, are
    recorded in call order; ``scanning.scan_core`` calls its own import and
    is not.  The list holds integers only, so a test that counts built
    Fractions is not disturbed.
    """
    reads = []
    decompose = labeled._decompose_keys

    def counting_decompose(keyed, k, lo, hi, pam):
        reads.append((lo, hi, k))
        return decompose(keyed, k, lo, hi, pam)

    monkeypatch.setattr(labeled, "_decompose_keys", counting_decompose)
    return reads

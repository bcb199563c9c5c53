import sys

import pytest

import pamscan.labeled as labeled
import pamscan.scanning as scanning
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
    """The (lo, hi, k) window of every call to ``labeled.WindowIndex.read``.

    The reads of ``labeled._reads`` (so of a trace on its per-segment
    path; a trace of a stored chain whose windows decompose reads none),
    of ``admissibility_sweep`` and of ``is_admissible`` are recorded in
    call order; the reads that ``scanning.scan_core`` makes are not.  The
    list holds integers only, so a test that counts built Fractions is not
    disturbed.
    """
    reads = []
    read = labeled.WindowIndex.read
    scan_core = scanning.scan_core.__code__

    def counting_read(self, k, lo, hi, pam):
        if sys._getframe(1).f_code is not scan_core:
            reads.append((lo, hi, k))
        return read(self, k, lo, hi, pam)

    monkeypatch.setattr(labeled.WindowIndex, "read", counting_read)
    return reads

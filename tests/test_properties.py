"""Properties of generated configurations over M3, Z2, Z/5 and {0..6}.

Pieces take their ends from a small set of points over mixed denominators,
so touching, coincident and degenerate pieces are frequent; both ends of a
piece take either parity, and labels include zero.  The text form reads
back as the configuration, a normal form is its own normal form, and a
configuration is equal by normal form to its normal form.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from pamscan import CLOSED, OPEN, DomainError, FinitePam, Interval, config_eq, labeled_normalize
from pamscan.dsl import fmt_config, parse_config
from pamscan.tensor import EqVerdict

from genutil import cyclic_pam, truncated_pam

CARRIERS = (
    FinitePam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"}),
    FinitePam("Z2", ["0", "g"], {("g", "g"): "0"}),
    cyclic_pam(5),
    truncated_pam(6),
)
POINTS = sorted({F(n, d) for d in (1, 2, 3, 4) for n in range(-2 * d, 2 * d + 1)})
PARITY = st.sampled_from((CLOSED, OPEN))


def _piece(u, v, p, q, m):
    u, v = sorted((u, v))
    if u == v and p == q:
        q = -p
    return Interval(u, v, p, q), m


def configs(pam):
    """Up to eight pieces with ends in POINTS and labels in ``pam``, zero included."""
    piece = st.builds(
        _piece,
        st.sampled_from(POINTS),
        st.sampled_from(POINTS),
        PARITY,
        PARITY,
        st.sampled_from(pam.elements),
    )
    return st.lists(piece, max_size=8)


# a carrier, then a configuration over it
CASES = st.sampled_from(CARRIERS).flatmap(lambda pam: st.tuples(st.just(pam), configs(pam)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(CASES)
def test_text_form_and_normal_form(case):
    """Each draw checks all three properties: drawing costs more than checking."""
    pam, xi = case
    assert parse_config(fmt_config(xi), pam) == tuple(xi)
    try:
        nf = labeled_normalize(xi, pam)
    except DomainError:
        return
    assert labeled_normalize(nf, pam) == nf
    assert labeled_normalize(xi[::-1], pam) == nf
    # pasted pieces skip the constructor's checks, so rebuild them through it
    assert all(Interval(j.u, j.v, j.p, j.q) == j and type(j.u) is type(j.v) is F for j, _ in nf)
    assert config_eq(xi, nf, pam) == EqVerdict.EQUAL
    assert config_eq(nf, xi, pam) == EqVerdict.EQUAL

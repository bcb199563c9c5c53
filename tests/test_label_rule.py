"""The label rule: every labeled entry point checks its labels once, first.

A label must be an element of the carrier.  Each entry point of
``pamscan.labeled`` (and the scans built on ``WindowIndex``) checks every
distinct label once, in input order, before any other work, so the first
unknown label in input order is the one named, whatever the entry point,
the depth of a search or the errors that later work would meet.
"""

from fractions import Fraction as F

import pytest

import pamscan.labeled as labeled
from pamscan import (
    DomainError,
    EqVerdict,
    FinitePam,
    WindowIndex,
    admissibility_sweep,
    alpha_eval,
    alpha_trace,
    config_eq,
    decompose_window,
    in_T_labeled,
    is_admissible,
    labeled_normalize,
    labeled_rewrite_neighbors,
)
from pamscan.dsl import parse_config

M3 = FinitePam("M3", ["0", "a", "b", "c"], {("a", "b"): "c"})
# yy comes first in input order, zz first in key order
BAD = parse_config("[2,3):a [5,6):yy [0,1):zz [1,2]:b")
GOOD = parse_config("(1,3]:a")

ENTRY_POINTS = {
    "in_T_labeled": lambda xi: in_T_labeled(xi, M3, witness=True),
    "labeled_normalize": lambda xi: labeled_normalize(xi, M3),
    "config_eq nf, x1": lambda xi: config_eq(xi, GOOD, M3),
    "config_eq nf, x2": lambda xi: config_eq(GOOD, xi, M3),
    "config_eq search, x1": lambda xi: config_eq(xi, GOOD, M3, method="search"),
    "config_eq search, x2": lambda xi: config_eq(GOOD, xi, M3, method="search"),
    "config_eq search, depth 0": lambda xi: config_eq(xi, xi, M3, method="search", depth=0),
    "labeled_rewrite_neighbors": lambda xi: labeled_rewrite_neighbors(xi, M3, extra_cuts=(F(1, 2),)),
    "WindowIndex": lambda xi: WindowIndex(xi, M3),
    "is_admissible": lambda xi: is_admissible(xi, 1, (0, 5), M3),
    "admissibility_sweep": lambda xi: list(admissibility_sweep(xi, 1, M3)),
    "alpha_eval": lambda xi: alpha_eval(xi, 2, M3),
    "alpha_trace": lambda xi: alpha_trace(xi, 4, M3),
    "decompose_window": lambda xi: decompose_window(xi, 0, 4, M3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_first_unknown_label_in_input_order_is_named(name):
    run = ENTRY_POINTS[name]
    run(GOOD)
    with pytest.raises(DomainError, match="^unknown element 'yy' of pam 'M3'$"):
        run(BAD)
    # the same pieces in key order name the other label
    with pytest.raises(DomainError, match="^unknown element 'zz' of pam 'M3'$"):
        run(sorted(BAD, key=lambda jm: jm[0].sort_key()))


def test_config_eq_checks_both_sides_before_any_merge():
    # x1 alone raises on its coincident pieces, as a + a is undefined; an
    # unknown label in x2 is met first, by either method
    x1 = parse_config("[0,1):a [0,1):a")
    with pytest.raises(DomainError, match="coincident interval"):
        config_eq(x1, GOOD, M3)
    for method in ("nf", "search"):
        with pytest.raises(DomainError, match="^unknown element 'zz' of pam 'M3'$"):
            config_eq(x1, parse_config("[0,1):zz"), M3, method=method)


def test_a_search_of_depth_zero_refuses_an_unknown_label():
    x = parse_config("[0,1):zz")
    for method in ("nf", "search"):
        with pytest.raises(DomainError, match="^unknown element 'zz' of pam 'M3'$"):
            config_eq(x, x, M3, method=method, depth=0)


@pytest.mark.parametrize("depth", range(5))
def test_a_search_checks_the_labels_once(depth, monkeypatch):
    checks, nodes = [], []
    check_labels, rewrite_keys = labeled._check_labels, labeled._rewrite_keys

    def counted_check(pieces, pam):
        checks.append(tuple(pieces))
        return check_labels(pieces, pam)

    def counted_rewrite(*args):
        before = len(checks)
        out = rewrite_keys(*args)
        nodes.append(len(checks) - before)
        return out

    monkeypatch.setattr(labeled, "_check_labels", counted_check)
    monkeypatch.setattr(labeled, "_rewrite_keys", counted_rewrite)
    x1 = parse_config("[0,2):a [1,3):b")
    x2 = parse_config("[0,1):a [1,2):c [2,4):b")
    assert config_eq(x1, x2, M3, method="search", depth=depth) in (EqVerdict.UNKNOWN, EqVerdict.DISTINCT)
    assert checks == [x1 + x2]
    # a search of depth d > 0 expands nodes, and none checks labels
    assert (len(nodes) > 0) == (depth > 0) and not any(nodes)

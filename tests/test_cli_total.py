"""The CLI is total: every argv ends in an exit code 0-4, never a traceback.

Each row is (expected exit code, argv, expected stdout or None, expected
stderr or None).  Stderr is pinned where pamscan writes it: exit 3, and
exit 2 from its own parse errors; argparse's usage errors are left free.
Paths in braces, in argv and in stderr, are filled from carrier files
written for the test; ``{out}`` is a writable directory and ``{missing}``
a directory that does not exist.
Codes: 0 success, 1 false, 2 parse or usage error, 3 domain error,
4 undecided.
"""

import os
import random
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction

import pytest

import pamscan
from pamscan import TraceError, alpha_trace
from pamscan.cli import COMMANDS, main
from pamscan.dsl import parse_config, parse_pam_text

M3_TEXT = "pam M3\nelements 0 a b c\nsum a + b = c\n"
FILES = {
    "m3": M3_TEXT,
    "z2": "pam Z2\nelements 0 g\nsum g + g = 0\n",
    "z5": "pam Z5\nelements 0 g1 g2 g3 g4\n" + "".join(
        "sum g%d + g%d = %s\n" % (i, k, "g%d" % ((i + k) % 5) if (i + k) % 5 else "0")
        for i in range(1, 5)
        for k in range(i, 5)
    ),
    "t6": "pam T6\nelements 0 1 2 3 4 5 6\n" + "".join(
        "sum %d + %d = %d\n" % (i, k, i + k) for i in range(1, 7) for k in range(i, 7) if i + k <= 6
    ),
    "skew": "pam NA\nelements 0 a b c\nsum a + a = b\nsum b + b = 0\nsum a + b = c\n",
    # the same ordered pair twice with two values: the later line must not
    # silently replace the earlier one
    "dupsum": "pam D\nelements 0 a\nsum a + a = a\nsum a + a = 0\n",
    "notpam": "Exact tools for configuration spaces\n",
}

# [0,2):a and [1,3):b collide (a + b = c), and 15 disjoint a pieces follow
SEVENTEEN = " ".join(["[0,2):a", "[1,3):b"] + ["[%d,%d):a" % (10 + 3 * i, 11 + 3 * i) for i in range(15)])
H = "(-3/2,-1/4]:b (-1/4,1/4]:a (1/4,3/2]:b"
WIDE = "(-7/2,-1/4]:b (-1/4,1/4]:a (1/4,7/2]:b"
# eight left and eight right g1 strands: windows with 8+8 anchored pieces
# and 1,441,729 valid matchings over Z/5, counted rather than listed
FAN = " ".join(["(0,%d/18]:g1" % i for i in range(1, 9)] + ["(%d/18,1):g1" % j for j in range(10, 18)])
FAN_VERDICT = (
    "not admissible: window (1/36, 37/36): piece Interval(u=Fraction(5, 9), "
    "v=Fraction(1, 1), p=-1, q=-1):g1 is not elementary\n"
)

# the skew carrier's violations, one per failing triple, as pam check
# prints them to stderr
SKEW_VIOLATIONS = "".join(
    "associativity fails at triple (%s): only %s is defined\n" % t
    for t in (
        ("a, a, b", "(a+a)+b"),
        ("a, b, b", "a+(b+b)"),
        ("b, a, a", "b+(a+a)"),
        ("b, b, a", "(b+b)+a"),
        ("b, b, c", "(b+b)+c"),
        ("c, b, b", "c+(b+b)"),
    )
)
UNDECODABLE = (
    "parse error: cannot read carrier file: "
    "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte\n"
)

CASES = [
    # usage errors from argparse
    (2, [], None, None),
    (2, ["bogus"], None, None),
    (2, ["config"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "bogus", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--depth", "x", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "-3", "(0,2]:c", "(0,2]:a"], None,
     "parse error: --depth must be at least 0, got -3\n"),
    # --depth takes ASCII digits only: Arabic-Indic and fullwidth digits,
    # a plus sign, spaces and underscores are usage errors
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "\u0663", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "\uff13", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "+3", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", " 3", "[0,1):a", "[0,1):a"], None, None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "1_0", "[0,1):a", "[0,1):a"], None, None),
    (0, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "3", "[0,1):a", "[0,1):a"], "equal\n", None),
    (2, ["alpha", "eval", "--pam", "{m3}", "(1,3]:a"], None, None),
    # pam check
    (0, ["pam", "check", "{m3}"], "ok: M3 (4 elements, 1 sums)\n", None),
    (1, ["pam", "check", "--require-self-insummable", "{z2}"], None, None),
    (3, ["pam", "check", "{skew}"], "invalid\n",
     SKEW_VIOLATIONS),
    (3, ["pam", "check", "{dupsum}"], "invalid\n",
     "conflicting sums for (a, a): a and 0\n"),
    (2, ["pam", "check", "{notpam}"], None,
     "parse error: 1:1: unknown directive 'Exact'\n"),
    (2, ["pam", "check", "{binary}"], None,
     UNDECODABLE),
    (2, ["pam", "check", "{missing}/m3.pam"], None,
     "parse error: cannot read carrier file: "
     "[Errno 2] No such file or directory: '{missing}/m3.pam'\n"),
    # config normalize | eq | admissible
    (0, ["config", "normalize", "--pam", "{m3}", "[0,1):a [1,2]:a"], "[0,2]:a\n", None),
    # a chain pastes in one pass; overlapping pieces paste through the heap
    (0, ["config", "normalize", "--pam", "{m3}", "(6,7]:a [2,3]:b [0,1):a [4,5):c (3,4):b [1,2):a [5,6]:a"],
     "[0,2):a [2,4):b [4,5):c [5,7]:a\n", None),
    (0, ["config", "normalize", "--pam", "{m3}", "[0,2):a [1,3):b [2,3):a"], "[0,3):a [1,3):b\n", None),
    (0, ["config", "normalize", "--pam", "{m3}", "--default-label", "a", "[0,1)"], "[0,1):a\n", None),
    (0, ["config", "normalize", "--pam", "{m3}", "--svg", "{out}/nf.svg", "[0,1):a"], None, None),
    (2, ["config", "normalize", "--pam", "{m3}", "--svg", "{missing}/nf.svg", "[0,1):a"], None,
     "parse error: cannot write svg file: [Errno 2] No such file or directory: '{missing}/nf.svg'\n"),
    (2, ["config", "normalize", "--pam", "{m3}", "[0,1):zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    (2, ["config", "normalize", "--pam", "{m3}", "--default-label", "zz", "[0,1)"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    (2, ["config", "normalize", "--pam", "{m3}", "[1,0):a"], None,
     "parse error: 1:1: interval endpoints out of order\n"),
    # the grammar's digits are ASCII: fullwidth and Arabic-Indic digits
    # are parse errors
    (2, ["config", "normalize", "--pam", "{m3}", "(\uff11,2]:a [\u0663,4):b"], None,
     "parse error: 1:1: expected a rational, got '\uff11'\n"),
    (2, ["config", "normalize", "--pam", "{m3}", "(0,\uff11/\uff12]:a"], None,
     "parse error: 1:1: expected a rational, got '\uff11/\uff12'\n"),
    (2, ["config", "admissible", "--pam", "{m3}", "--eps", "\u0662", "--support", "0,5", "(1,3]:a"], None,
     "parse error: expected a rational, got '\u0662'\n"),
    (2, ["config", "normalize", "[0,1):a"], None,
     "parse error: a carrier file is required (--pam FILE)\n"),
    (2, ["config", "normalize", "--pam", "{binary}", "[0,1):a"], None,
     UNDECODABLE),
    (3, ["config", "normalize", "--pam", "{m3}", "[0,1):a [0,1):a"], None,
     "error: not in the tensor region: coincident interval "
     "Interval(u=Fraction(0, 1), v=Fraction(1, 1), p=1, q=-1) carries unsummable labels (a, a)\n"),
    (0, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,1):c [1,2]:c"], "equal\n", None),
    (1, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,2]:a"], "distinct\n", None),
    (0, ["config", "eq", "--pam", "{m3}", "--method", "search", "(0,2]:c", "(0,1):c [1,2]:c"], "equal\n", None),
    (4, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "0", "(0,2]:c", "(0,2]:a"], "unknown\n", None),
    # search verdicts where the normal forms differ: the M3 overlap pair and
    # the first Z2 pair are one element each; the Z2 hull pair is two
    # elements, which a bounded search cannot show
    (0, ["config", "eq", "--pam", "{m3}", "--method", "search", "[0,2):a [1,3):b", "[0,1):a [1,2):c [2,3):b"],
     "equal\n", None),
    (0, ["config", "eq", "--pam", "{z2}", "--method", "search", "[3/2,4):g [2,4):g [7/2,6):g", "[3/2,2):g [7/2,6):g"],
     "equal\n", None),
    (4, ["config", "eq", "--pam", "{z2}", "--method", "search", "[0,1]:g [0,1):g", "(1,2]:g [1,2]:g"],
     "unknown\n", None),
    # both starts lie outside the tensor region (a + a is undefined), so
    # their filtered moves run out without proving them apart; nf says equal
    (4, ["config", "eq", "--pam", "{m3}", "--method", "search", "[0,2):a [1,3):a", "[0,1):a [1,3):a [1,2):a"],
     "unknown\n", None),
    (2, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,2]:zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    # the depth check comes before the carrier is read
    (2, ["config", "eq", "--pam", "{missing}/m3.pam", "--depth", "-3", "[0,1):a", "[0,1):a"], None,
     "parse error: --depth must be at least 0, got -3\n"),
    (0, ["config", "admissible", "--pam", "{m3}", "--support=-3,100", SEVENTEEN], "admissible\n", None),
    (0, ["config", "admissible", "--pam", "{m3}", "--eps", "1", "--support", "0,5", "(1,3]:a"], "admissible\n", None),
    (1, ["config", "admissible", "--pam", "{z5}", "--eps", "1/2", "--support=-2,3", FAN], FAN_VERDICT, None),
    # the first set of overlapping pieces that fails to sum is at 3/2,
    # where (3/2,4):c starts inside (0,5/2]:a
    (1, ["config", "admissible", "--pam", "{m3}", "--eps", "1", "--support=-2,8", "(0,5/2]:a (3/2,4):c (3,4):a"],
     "not admissible: not in the tensor region: ('first', [0, 1])\n", None),
    (1, ["config", "admissible", "--pam", "{m3}", "--support", "0,3", "[1,2]:a"], None, None),
    (3, ["config", "admissible", "--pam", "{m3}", "--eps", "0", "--support=-3,5", "[0,1]:a"], None,
     "error: eps must be positive\n"),
    (3, ["config", "admissible", "--pam", "{m3}", "--eps", "-1", "--support", "0,3", "[0,2):a"], None,
     "error: eps must be positive\n"),
    (3, ["config", "admissible", "--pam", "{m3}", "--support", "0,1", "(1,3]:a"], None,
     "error: support window must be wider than eps\n"),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "5,3", "(1,3]:a"], None,
     "parse error: empty support window '5,3'\n"),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "0,x", "(1,3]:a"], None,
     "parse error: expected a rational, got 'x'\n"),
    (2, ["config", "admissible", "--pam", "{m3}", "--eps", "1/0", "--support", "0,5", "(1,3]:a"], None,
     "parse error: zero denominator in '1/0'\n"),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "0,5", "(1,3]:zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    # alpha eval | trace
    (0, ["alpha", "eval", "--pam", "{m3}", "--u", "2", "(1,3]:a"], "0:a\n", None),
    (3, ["alpha", "eval", "--pam", "{m3}", "--u", "2", "--t", "5", "(1,3]:a"], None,
     "error: parameter 2 outside the half-window around 5\n"),
    (2, ["alpha", "eval", "--pam", "{m3}", "--u", "1/0", "(1,3]:a"], None,
     "parse error: zero denominator in '1/0'\n"),
    # the configuration is parsed before --t and --u
    (2, ["alpha", "eval", "--pam", "{m3}", "--u", "1/0", "--t", "x", "[0,1):zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    # an unknown label far from every window is refused before any read
    (2, ["alpha", "eval", "--pam", "{m3}", "--u", "1/2", "[0,1):a [5,6):zz"], None,
     "parse error: 1:9: unknown label 'zz'\n"),
    (0, ["alpha", "trace", "--pam", "{m3}", "--len", "4", "--svg", "{out}/loop.svg", "(1,3]:a"], None, None),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "0", "(1,3]:a"], None,
     "error: loop length must be positive\n"),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "-4", "(1,3]:a"], None,
     "error: loop length must be positive\n"),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "4", "[1,2]:a"], None,
     "error: window (1/6, 13/6): piece "
     "Interval(u=Fraction(1, 1), v=Fraction(2, 1), p=1, q=1):a is not elementary\n"),
    # a window with two decompositions: past the breakpoint first fit pairs
    # two strands into a cut pair, and two values become one
    (3, ["alpha", "trace", "--pam", "{t6}", "--len", "31/6", "(1/2,5/4]:3 (5/3,25/6):3"], None,
     "error: loop discontinuity at breakpoint 3/2: "
     "BMElement(m0=None, points=((Fraction(2, 3), '3'), (Fraction(3, 4), '3'))) vs "
     "BMElement(m0=None, points=((Fraction(5, 12), '3'),))\n"),
    (3, ["alpha", "trace", "--pam", "{z5}", "--len", "79/12", "(1,2]:g3 (13/6,65/12]:g3 [11/4,73/12):g2"], None,
     "error: loop discontinuity at breakpoint 2: "
     "BMElement(m0=None, points=((Fraction(1, 2), 'g3'), (Fraction(2, 3), 'g3'))) vs "
     "BMElement(m0=None, points=((Fraction(1, 6), 'g3'),))\n"),
    # bm canon
    (0, ["bm", "canon", "--pam", "{m3}", "1/2:a 1/2:b"], "1/2:c\n", None),
    (0, ["bm", "canon", "--pam", "{m3}", "--svg", "{out}/bm.svg", "∅"], "∅\n", None),
    (3, ["bm", "canon", "--pam", "{m3}", "1/4:a 1/2:a"], None,
     "error: not in the tensor region: labels ['a', 'a'] are not jointly summable\n"),
    (2, ["bm", "canon", "--pam", "{m3}", "*:zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    (2, ["bm", "canon", "--pam", "{m3}", "2:a"], None,
     "parse error: 1:1: circle coordinate 2 outside (-1,1]\n"),
    (2, ["bm", "canon", "--pam", "{m3}", "1/2:a -1:b"], None,
     "parse error: 1:7: circle coordinate -1 outside (-1,1]\n"),
    (0, ["bm", "canon", "--pam", "{m3}", "1:a *:b"], "∅\n", None),
    # mirror | double | positive-part
    (0, ["mirror", "--pam", "{m3}", "[0,1):a"], "[-1,0):a\n", None),
    (0, ["double", "--pam", "{m3}", "[1,2):a"], "[-2,-1):a [1,2):a\n", None),
    (3, ["double", "--pam", "{m3}", "[0,1):a [0,1):a"], None,
     "error: not in the tensor region: coincident interval "
     "Interval(u=Fraction(-1, 1), v=Fraction(0, 1), p=1, q=-1) carries unsummable labels (a, a)\n"),
    (0, ["positive-part", "--pam", "{m3}", "(-1,1]:a"], "[0,1]:a\n", None),
    (3, ["positive-part", "--pam", "{m3}", "[0,1):a"], None,
     "error: configuration is not mirror-invariant\n"),
    # homotopy contract | push | base | cover
    (0, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "7/2", WIDE], "(-7/4,7/4]:b\n", None),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "-1", "(1,3]:a"], None,
     "error: length must be positive\n"),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "0", "(1,3]:a"], None,
     "error: length must be positive\n"),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "2", "--len", "7/2", WIDE], None,
     "error: homotopy time 2 outside [0, 1]\n"),
    (0, ["homotopy", "push", "--pam", "{m3}", "--t", "1/2", "(1,3]:a"], None, None),
    # the carrier is read before --t, and --t before the configuration
    (2, ["homotopy", "push", "--t", "x", "(1,3]:a"], None,
     "parse error: a carrier file is required (--pam FILE)\n"),
    (2, ["homotopy", "push", "--pam", "{m3}", "--t", "x", "[0,1):zz"], None,
     "parse error: expected a rational, got 'x'\n"),
    (0, ["homotopy", "base", "--pam", "{m3}", "--t", "1/2", "1/2:a"], "2/3:a\n", None),
    (3, ["homotopy", "base", "--pam", "{m3}", "--t", "3", "1/2:a"], None,
     "error: homotopy time 3 outside [0, 1]\n"),
    (3, ["homotopy", "cover", "--pam", "{m3}", "--t", "1/2", "--len", "3", "(1,3]:a"], None,
     "error: covering homotopy needs a point beyond 1/2\n"),
    (3, ["homotopy", "cover", "--pam", "{m3}", "--t", "1/2", "--len", "-3", "(1,3]:a"], None,
     "error: length must be positive\n"),
    # fiber classify | cap | lift | retract | glue
    (0, ["fiber", "classify", "--pam", "{m3}", "--z", "1/2:c", H], "in-F alpha 1/2:a,b\n", None),
    (1, ["fiber", "classify", "--pam", "{m3}", "--z", "1/2:c", "(1,3]:a"], None, None),
    # the configuration is parsed before --z
    (2, ["fiber", "classify", "--pam", "{m3}", "--z", "5:a", "[0,1):zz"], None,
     "parse error: 1:1: unknown label 'zz'\n"),
    (0, ["fiber", "cap", "--pam", "{m3}", "--len", "7/2", WIDE], None, None),
    (3, ["fiber", "cap", "--pam", "{m3}", "--len", "0", WIDE], None,
     "error: length must be positive\n"),
    (0, ["fiber", "lift", "--pam", "{m3}", "--z", "1/2:a", "--len", "2"], None, None),
    (3, ["fiber", "lift", "--pam", "{m3}", "--z", "1/2:a", "--len", "-2"], None,
     "error: length must be positive\n"),
    (3, ["fiber", "lift", "--pam", "{m3}", "--z", "0:a", "--len", "2"], None,
     "error: standard lift requires no label at coordinate 0\n"),
    (2, ["fiber", "lift", "--pam", "{m3}", "--z", "3/2:a", "--len", "2"], None,
     "parse error: 1:1: circle coordinate 3/2 outside (-1,1]\n"),
    (0, ["fiber", "retract", "--pam", "{m3}", "--z", "1/2:c", H], None, None),
    (3, ["fiber", "retract", "--pam", "{m3}", "--z", "1/2:c", "(1,3]:a"], None,
     "error: not a fiber member: point 1/2 carries (0, 0), not a partition of c\n"),
    # a central piece of radius 1/2 + 3^-7/2, whose excess over 1/2 triples
    # each round, clips the wide window after 9 maps
    (0, ["fiber", "retract", "--pam", "{m3}", "--z", "0:a", "(-1094/2187,1094/2187]:a"], "(-5,5]:a\n", ""),
    # σ fixes a central piece of radius exactly 1/2: the retraction stalls
    (3, ["fiber", "retract", "--pam", "{m3}", "--z", "0:a", "(-1/2,1/2]:a"], "",
     "error: retraction stalls off the standard pattern: central piece Interval(u=Fraction(-1, 2), "
     "v=Fraction(1, 2), p=-1, q=1) has intermediate radius\n"),
    (3, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,b", H], None,
     "error: gluing needs the standard pattern: in-F\n"),
    (3, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,a", H], None,
     "error: (a, a) is not a partition of the label c at 1/2\n"),
    (2, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/4:a,b", "∅"], None,
     "parse error: alpha gives no partition for the point 1/2\n"),
    # a partition (m, m) at 1/2 would paste the central piece to its cut
    # strands, and the glued configuration would lie over m at 0, not z
    (3, ["fiber", "glue", "--pam", "{z5}", "--z", "1/2:g3", "--alpha", "1/2:g4,g4", "∅"], "",
     "error: partition (g4, g4) at 1/2 would paste its central piece to its cut strand\n"),
    # so would the central g1 piece of 1/4, radius 3/8, and the g1 strands
    # of 3/4, from 3/8: the output would evaluate to 0:g1 3/4:g1 at 0
    (3, ["fiber", "glue", "--pam", "{z5}", "--z", "1/4:g1 3/4:g2", "--alpha", "1/4:g1,0 3/4:g1,g1", "∅"], "",
     "error: partition (g1, 0) at 1/4 would paste its central piece to the cut strand at 3/4\n"),
    # a point given twice is refused at its second token, in either order
    (2, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,a 1/2:a,b", WIDE], None,
     "parse error: 1:9: alpha gives the point 1/2 twice\n"),
    (2, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,b 1/2:a,a", WIDE], None,
     "parse error: 1:9: alpha gives the point 1/2 twice\n"),
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_total")
    out = {"out": str(root), "missing": str(root / "missing")}
    for name, text in FILES.items():
        (root / (name + ".pam")).write_text(text, encoding="utf-8")
        out[name] = str(root / (name + ".pam"))
    (root / "binary.pam").write_bytes(b"pam X\nelements 0 \xff\n")
    out["binary"] = str(root / "binary.pam")
    return out


@pytest.mark.parametrize(
    "code,argv,stdout,stderr", CASES, ids=[" ".join(argv)[:70] for _, argv, _, _ in CASES]
)
def test_every_argv_exits_0_to_4(paths, capsys, code, argv, stdout, stderr):
    try:
        rc = main([a.format(**paths) for a in argv])
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert rc == code, (out, err)
    if stdout is not None:
        assert out == stdout
    if stderr is not None:
        assert err == stderr.format(**paths)


# Tokens for generated argv.  Values are valid for some commands and
# carriers and not for others; a few are malformed everywhere.
FLAG_VALUES = {
    "--pam": ["{%s}" % name for name in FILES] + ["{binary}", "{missing}/x.pam", "{out}"],
    "--svg": ["{out}/g.svg", "{missing}/g.svg"],
    "--method": ["nf", "search", "bogus"],
    "--depth": ["2", "0", "x"],
    "--default-label": ["a", "g1"],
    "--support": ["-4,4", "0,1", "1"],
    "--eps": ["1/2", "1", "0"],
    "--u": ["1/4", "0", "x"],
    "--t": ["1/2", "0", "1", "2"],
    "--len": ["3", "1/2", "-1"],
    "--z": ["1/2:c", "-1/2:a 1/4:b", "∅", "2:a"],
    "--alpha": ["1/2:a,b", "1/2:a,"],
}
OPERANDS = [
    "[0,1):a", "[0,1):a [1,2]:a", "[0,2):a [1,3):b", H, "(0,1]:g1 (1,2):g1", "(0,1]:1 (0,1]:2", "∅",
    "1/2:c", "-1/2:b 1/2:a", "0", "1/2", "-3/4", "{m3}", "{skew}",
]
MALFORMED = ["[0,1)", "0:a", "[0,1", "1/0", "x", "", "[1,0):a", ":a", "nan", "1e999", "[0,1):zz", "0,1",
             "((0,1)):a", "∅ ∅", "-1", "--bogus"]
BARE = sorted(FLAG_VALUES) + ["--require-self-insummable", "-h", "--"]
POOL = [(flag, v) for flag, vs in FLAG_VALUES.items() for v in vs] + [(t,) for t in OPERANDS + MALFORMED + BARE]


def _generated_argv(rng):
    """A verb of ``COMMANDS`` and 0 to 7 tokens, half the time its own arguments.

    Those are ``--pam``, M3 half the time, an operand for each positional
    argument, a value for each required option and, now and then, for an
    optional one; one of them may be left out.  Draws from ``POOL`` join
    them, up to one beside the command's own arguments and up to three
    otherwise, while the tokens number at most 7.  The draws are shuffled,
    a flag staying before its value.
    """
    verb, action, _, arguments, _ = rng.choice(COMMANDS)
    draws, extra = [], 3
    if rng.random() < 0.5:
        draws.append(("--pam", "{m3}" if rng.random() < 0.5 else rng.choice(FLAG_VALUES["--pam"])))
        for name, kwargs in arguments:
            if not name.startswith("-"):
                draws.append((rng.choice(OPERANDS),))
            elif kwargs.get("required") or name in FLAG_VALUES and rng.random() < 0.2:
                draws.append((name, rng.choice(FLAG_VALUES[name])))
        if rng.random() < 0.2:
            del draws[rng.randrange(len(draws))]
        extra = rng.choice((0, 0, 1))
    budget = 7 - sum(map(len, draws))
    for draw in rng.sample(POOL, rng.randint(0, extra)):
        if len(draw) <= budget:
            draws.append(draw)
            budget -= len(draw)
    rng.shuffle(draws)
    return [verb] + ([action] if action else []) + [t for d in draws for t in d]


def test_generated_argv_exit_0_to_4(paths, capsys):
    rng = random.Random("cli-total")
    codes = Counter()
    for _ in range(500):
        argv = [a.format(**paths) for a in _generated_argv(rng)]
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            pytest.fail("%r raised:\n%s" % (argv, traceback.format_exc()))
        out, err = capsys.readouterr()
        assert rc in range(5) and "Traceback" not in err, (argv, rc, err)
        codes[rc] += 1
    # most argv are usage errors; enough get through to a result or a
    # domain error
    assert codes[0] >= 10 and codes[3] >= 10, codes


def test_trace_errors_name_their_breakpoint():
    # the library reads the two discontinuity rows above: the TraceError
    # carries the breakpoint its message names, and the message is stderr
    rows = [row for row in CASES if row[1][:2] == ["alpha", "trace"] and "discontinuity" in (row[3] or "")]
    found = []
    for _, argv, _, stderr in rows:
        pam = parse_pam_text(FILES[argv[3].strip("{}")])
        with pytest.raises(TraceError) as info:
            alpha_trace(parse_config(argv[6], pam), Fraction(argv[5]), pam)
        assert "error: %s\n" % info.value == stderr
        found.append(info.value.breakpoint)
    assert found == [Fraction(3, 2), Fraction(2)]
    assert all(type(x) is Fraction for x in found)


def test_module_entry_reads_sys_argv(paths, capsys, monkeypatch):
    """``python -m pamscan.cli``, like the ``pamscan`` script, calls
    ``main()`` with no argv, so main reads argv from ``sys.argv``."""
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pamscan.__file__)))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with pytest.raises(SystemExit):
        main(["-h"])
    usage = capsys.readouterr().out
    assert usage.startswith("usage: pamscan ")
    for argv, code, stdout in (
        (["-h"], 0, usage),
        (["config", "normalize", "--pam", paths["m3"], "[0,1):a [1,2]:a"], 0, "[0,2]:a\n"),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "pamscan.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, stdout, "")

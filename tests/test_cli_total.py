"""The CLI is total: every argv ends in an exit code 0-4, never a traceback.

Each row is (expected exit code, argv, expected stdout or None).  Paths in
braces are filled from carrier files written for the test; ``{out}`` is a
writable directory and ``{missing}`` a directory that does not exist.
Codes: 0 success, 1 false, 2 parse or usage error, 3 domain error,
4 undecided.
"""

import pytest

from pamscan.cli import main

M3_TEXT = "pam M3\nelements 0 a b c\nsum a + b = c\n"
FILES = {
    "m3": M3_TEXT,
    "z2": "pam Z2\nelements 0 g\nsum g + g = 0\n",
    "z5": "pam Z5\nelements 0 g1 g2 g3 g4\n" + "".join(
        "sum g%d + g%d = %s\n" % (i, k, "g%d" % ((i + k) % 5) if (i + k) % 5 else "0")
        for i in range(1, 5)
        for k in range(i, 5)
    ),
    "skew": "pam NA\nelements 0 a b c\nsum a + a = b\nsum b + b = 0\nsum a + b = c\n",
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

CASES = [
    # usage errors from argparse
    (2, [], None),
    (2, ["bogus"], None),
    (2, ["config"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "bogus", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--depth", "x", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "-3", "(0,2]:c", "(0,2]:a"], None),
    # --depth takes ASCII digits only: Arabic-Indic and fullwidth digits,
    # a plus sign, spaces and underscores are usage errors
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "\u0663", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "\uff13", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "+3", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", " 3", "[0,1):a", "[0,1):a"], None),
    (2, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "1_0", "[0,1):a", "[0,1):a"], None),
    (0, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "3", "[0,1):a", "[0,1):a"], "equal\n"),
    (2, ["alpha", "eval", "--pam", "{m3}", "(1,3]:a"], None),
    # pam check
    (0, ["pam", "check", "{m3}"], "ok: M3 (4 elements, 1 sums)\n"),
    (1, ["pam", "check", "--require-self-insummable", "{z2}"], None),
    (3, ["pam", "check", "{skew}"], "invalid\n"),
    (2, ["pam", "check", "{notpam}"], None),
    (2, ["pam", "check", "{binary}"], None),
    (2, ["pam", "check", "{missing}/m3.pam"], None),
    # config normalize | eq | admissible
    (0, ["config", "normalize", "--pam", "{m3}", "[0,1):a [1,2]:a"], "[0,2]:a\n"),
    (0, ["config", "normalize", "--pam", "{m3}", "--default-label", "a", "[0,1)"], "[0,1):a\n"),
    (0, ["config", "normalize", "--pam", "{m3}", "--svg", "{out}/nf.svg", "[0,1):a"], None),
    (2, ["config", "normalize", "--pam", "{m3}", "--svg", "{missing}/nf.svg", "[0,1):a"], None),
    (2, ["config", "normalize", "--pam", "{m3}", "[0,1):zz"], None),
    (2, ["config", "normalize", "--pam", "{m3}", "--default-label", "zz", "[0,1)"], None),
    (2, ["config", "normalize", "--pam", "{m3}", "[1,0):a"], None),
    # the grammar's digits are ASCII: fullwidth and Arabic-Indic digits
    # are parse errors
    (2, ["config", "normalize", "--pam", "{m3}", "(\uff11,2]:a [\u0663,4):b"], None),
    (2, ["config", "normalize", "--pam", "{m3}", "(0,\uff11/\uff12]:a"], None),
    (2, ["config", "admissible", "--pam", "{m3}", "--eps", "\u0662", "--support", "0,5", "(1,3]:a"], None),
    (2, ["config", "normalize", "[0,1):a"], None),
    (2, ["config", "normalize", "--pam", "{binary}", "[0,1):a"], None),
    (3, ["config", "normalize", "--pam", "{m3}", "[0,1):a [0,1):a"], None),
    (0, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,1):c [1,2]:c"], "equal\n"),
    (1, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,2]:a"], "distinct\n"),
    (0, ["config", "eq", "--pam", "{m3}", "--method", "search", "(0,2]:c", "(0,1):c [1,2]:c"], "equal\n"),
    (4, ["config", "eq", "--pam", "{m3}", "--method", "search", "--depth", "0", "(0,2]:c", "(0,2]:a"], "unknown\n"),
    (2, ["config", "eq", "--pam", "{m3}", "(0,2]:c", "(0,2]:zz"], None),
    (0, ["config", "admissible", "--pam", "{m3}", "--support=-3,100", SEVENTEEN], "admissible\n"),
    (0, ["config", "admissible", "--pam", "{m3}", "--eps", "1", "--support", "0,5", "(1,3]:a"], "admissible\n"),
    (1, ["config", "admissible", "--pam", "{z5}", "--eps", "1/2", "--support=-2,3", FAN], FAN_VERDICT),
    (1, ["config", "admissible", "--pam", "{m3}", "--support", "0,3", "[1,2]:a"], None),
    (3, ["config", "admissible", "--pam", "{m3}", "--eps", "0", "--support=-3,5", "[0,1]:a"], None),
    (3, ["config", "admissible", "--pam", "{m3}", "--eps", "-1", "--support", "0,3", "[0,2):a"], None),
    (3, ["config", "admissible", "--pam", "{m3}", "--support", "0,1", "(1,3]:a"], None),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "5,3", "(1,3]:a"], None),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "0,x", "(1,3]:a"], None),
    (2, ["config", "admissible", "--pam", "{m3}", "--eps", "1/0", "--support", "0,5", "(1,3]:a"], None),
    (2, ["config", "admissible", "--pam", "{m3}", "--support", "0,5", "(1,3]:zz"], None),
    # alpha eval | trace
    (0, ["alpha", "eval", "--pam", "{m3}", "--u", "2", "(1,3]:a"], "0:a\n"),
    (3, ["alpha", "eval", "--pam", "{m3}", "--u", "2", "--t", "5", "(1,3]:a"], None),
    (2, ["alpha", "eval", "--pam", "{m3}", "--u", "1/0", "(1,3]:a"], None),
    (0, ["alpha", "trace", "--pam", "{m3}", "--len", "4", "--svg", "{out}/loop.svg", "(1,3]:a"], None),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "0", "(1,3]:a"], None),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "-4", "(1,3]:a"], None),
    (3, ["alpha", "trace", "--pam", "{m3}", "--len", "4", "[1,2]:a"], None),
    # bm canon
    (0, ["bm", "canon", "--pam", "{m3}", "1/2:a 1/2:b"], "1/2:c\n"),
    (0, ["bm", "canon", "--pam", "{m3}", "--svg", "{out}/bm.svg", "∅"], "∅\n"),
    (3, ["bm", "canon", "--pam", "{m3}", "1/4:a 1/2:a"], None),
    (2, ["bm", "canon", "--pam", "{m3}", "*:zz"], None),
    (2, ["bm", "canon", "--pam", "{m3}", "2:a"], None),
    (2, ["bm", "canon", "--pam", "{m3}", "1/2:a -1:b"], None),
    (0, ["bm", "canon", "--pam", "{m3}", "1:a *:b"], "∅\n"),
    # mirror | double | positive-part
    (0, ["mirror", "--pam", "{m3}", "[0,1):a"], "[-1,0):a\n"),
    (0, ["double", "--pam", "{m3}", "[1,2):a"], "[-2,-1):a [1,2):a\n"),
    (3, ["double", "--pam", "{m3}", "[0,1):a [0,1):a"], None),
    (0, ["positive-part", "--pam", "{m3}", "(-1,1]:a"], "[0,1]:a\n"),
    (3, ["positive-part", "--pam", "{m3}", "[0,1):a"], None),
    # homotopy contract | push | base | cover
    (0, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "7/2", WIDE], "(-7/4,7/4]:b\n"),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "-1", "(1,3]:a"], None),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "1/2", "--len", "0", "(1,3]:a"], None),
    (3, ["homotopy", "contract", "--pam", "{m3}", "--t", "2", "--len", "7/2", WIDE], None),
    (0, ["homotopy", "push", "--pam", "{m3}", "--t", "1/2", "(1,3]:a"], None),
    (0, ["homotopy", "base", "--pam", "{m3}", "--t", "1/2", "1/2:a"], "2/3:a\n"),
    (3, ["homotopy", "base", "--pam", "{m3}", "--t", "3", "1/2:a"], None),
    (3, ["homotopy", "cover", "--pam", "{m3}", "--t", "1/2", "--len", "3", "(1,3]:a"], None),
    (3, ["homotopy", "cover", "--pam", "{m3}", "--t", "1/2", "--len", "-3", "(1,3]:a"], None),
    # fiber classify | cap | lift | retract | glue
    (0, ["fiber", "classify", "--pam", "{m3}", "--z", "1/2:c", H], "in-F alpha 1/2:a,b\n"),
    (1, ["fiber", "classify", "--pam", "{m3}", "--z", "1/2:c", "(1,3]:a"], None),
    (0, ["fiber", "cap", "--pam", "{m3}", "--len", "7/2", WIDE], None),
    (3, ["fiber", "cap", "--pam", "{m3}", "--len", "0", WIDE], None),
    (0, ["fiber", "lift", "--pam", "{m3}", "--z", "1/2:a", "--len", "2"], None),
    (3, ["fiber", "lift", "--pam", "{m3}", "--z", "1/2:a", "--len", "-2"], None),
    (3, ["fiber", "lift", "--pam", "{m3}", "--z", "0:a", "--len", "2"], None),
    (2, ["fiber", "lift", "--pam", "{m3}", "--z", "3/2:a", "--len", "2"], None),
    (0, ["fiber", "retract", "--pam", "{m3}", "--z", "1/2:c", H], None),
    (3, ["fiber", "retract", "--pam", "{m3}", "--z", "1/2:c", "(1,3]:a"], None),
    (3, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,b", H], None),
    (3, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/2:a,a", H], None),
    (2, ["fiber", "glue", "--pam", "{m3}", "--z", "1/2:c", "--alpha", "1/4:a,b", "∅"], None),
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
    "code,argv,stdout", CASES, ids=[" ".join(argv)[:70] for _, argv, _ in CASES]
)
def test_every_argv_exits_0_to_4(paths, capsys, code, argv, stdout):
    try:
        rc = main([a.format(**paths) for a in argv])
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert rc == code, (out, err)
    if stdout is not None:
        assert out == stdout

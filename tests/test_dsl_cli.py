"""Text formats, the command line surface, and SVG determinism."""

from fractions import Fraction as F

import pytest

from pamscan import CLOSED, FinitePam, Interval, OPEN, alpha_trace, bm_canon
from pamscan.cli import main
from pamscan.dsl import (
    ParseError,
    fmt_bm,
    fmt_config,
    fmt_interval,
    fmt_loop,
    fmt_pam,
    fmt_rational,
    parse_alpha,
    parse_bm_pairs,
    parse_config,
    parse_loop,
    parse_pam_text,
    parse_rational,
)
from pamscan.svg import bm_svg, config_svg, loop_svg


def I(u, v, p, q):
    return Interval(F(u), F(v), p, q)


PAM_TEXT = "pam M3\nelements 0 a b c\nsum a + b = c\n"


@pytest.fixture(scope="session")
def pam_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("carrier") / "m3.pam"
    f.write_text(PAM_TEXT, encoding="utf-8")
    return str(f)


def test_rational_round_trip():
    for text, val in (("3/2", F(3, 2)), ("-2", F(-2)), ("0", F(0))):
        assert parse_rational(text) == val
        assert fmt_rational(val) == text
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    # only ASCII digits: \d and str.isdigit take these too
    for text in ("\uff11/\uff12", "\u0663", "1/\u0967"):
        with pytest.raises(ParseError, match="expected a rational"):
            parse_rational(text)


def test_loop_parse_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="expected 'segment <i>'"):
        parse_loop("moore 1\nbreakpoint 0\nbreakpoint 1\nsegment \u00b2")
    with pytest.raises(ParseError, match="expected a rational"):
        parse_loop("moore \u0661\nbreakpoint 0\nbreakpoint 1\nsegment 0")


def test_config_round_trip(m3):
    text = "[0,1):a (1,2]:b [3,3):c"
    xi = parse_config(text, m3)
    assert fmt_config(xi) == text
    assert parse_config(fmt_config(xi), m3) == xi
    assert parse_config("∅", m3) == ()
    assert fmt_config(()) == "∅"
    assert fmt_interval(I(0, 1, CLOSED, OPEN)) == "[0,1)"


def test_config_parse_errors(m3):
    with pytest.raises(ParseError, match="1:1"):
        parse_config("[0,1)", m3)
    with pytest.raises(ParseError, match="unknown label"):
        parse_config("[0,1):q", m3)
    with pytest.raises(ParseError):
        parse_config("[2,1):a", m3)
    with pytest.raises(ParseError):
        parse_config("[1,1]:a", m3)
    # default labels fill unlabeled items
    xi = parse_config("[0,1)", m3, default_label="a")
    assert xi == ((I(0, 1, CLOSED, OPEN), "a"),)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_config, "[0,1):a ∅", "1:9: empty-set sign must stand alone"),
        (parse_config, "[0,1 ∅", "1:1: missing interval close in '[0,1'"),
        (parse_config, "[0,1):a\n [1,2):b$", "2:2: bad label 'b$'"),
        (parse_config, "[0,1):q ∅", "1:1: unknown label 'q'"),
        (parse_bm_pairs, "1/2:a ∅", "1:7: empty-set sign must stand alone"),
        (parse_bm_pairs, "1/2 ∅", "1:1: expected 't:label', got '1/2'"),
        (parse_bm_pairs, "1/2:a$", "1:1: bad label 'a$'"),
        (parse_bm_pairs, "9:q", "1:1: unknown label 'q'"),
        (parse_alpha, "1/2:a,b 1/2:a$,q", "1:9: bad label 'a$'"),
        (parse_alpha, "1/2:a,q", "1:1: unknown label 'q'"),
        (parse_alpha, "x:q,a", "1:1: expected a rational, got 'x'"),
        (parse_alpha, "1/2:a,b 2/4:b,a", "1:9: alpha gives the point 1/2 twice"),
    ],
)
def test_label_and_empty_set_errors(parse, text, message, m3):
    # the first error in token order is reported, with its line:col
    with pytest.raises(ParseError) as info:
        parse(text, m3)
    assert str(info.value) == message


def test_pam_round_trip():
    pam = parse_pam_text(PAM_TEXT)
    assert pam.name == "M3"
    assert pam.pair_sum("a", "b") == "c"
    assert parse_pam_text(fmt_pam(pam)).pair_sum("a", "b") == "c"
    with pytest.raises(ParseError):
        parse_pam_text("elements 0 a\n")
    from pamscan import PamError

    with pytest.raises(PamError, match="missing unit"):
        parse_pam_text("pam X\nelements a b\n")


def test_pam_text_comments():
    pam = parse_pam_text("# carrier\npam Z2\nelements 0 g\nsum g + g = 0\n")
    assert pam.pair_sum("g", "g") == "0"


def test_bm_round_trip(m3):
    z = bm_canon(m3, parse_bm_pairs("1/2:a 1/2:b *:c", m3))
    assert fmt_bm(z) == "1/2:c"
    assert fmt_bm(bm_canon(m3, parse_bm_pairs("0:c", m3))) == "0:c"
    assert fmt_bm(bm_canon(m3, parse_bm_pairs("∅", m3))) == "∅"
    assert fmt_bm(bm_canon(m3, [])) == "∅"


def test_alpha_spec(m3):
    assert parse_alpha("1/2:a,b") == [(F(1, 2), ("a", "b"))]
    assert parse_alpha("") == []
    with pytest.raises(ParseError):
        parse_alpha("1/2:a")


def test_loop_round_trip(m3):
    xi = ((I(1, 3, OPEN, CLOSED), "a"),)
    loop = alpha_trace(xi, F(4), m3)
    assert parse_loop(fmt_loop(loop)) == loop


@pytest.mark.parametrize(
    "text",
    [
        "moore 4\nbreakpoint 0\nbreakpoint 3\nbreakpoint 1\nbreakpoint 4\n"
        "segment 0\nsegment 1\nsegment 2\n",
        "moore 4\nbreakpoint 1\nbreakpoint 2\nsegment 0\n",
        "moore 4\nbreakpoint 0\nbreakpoint 4\n",
    ],
)
def test_loop_parse_rejects_bad_breakpoints(text):
    with pytest.raises(ParseError):
        parse_loop(text)


def test_cli_pam_check(pam_file, capsys):
    assert main(["pam", "check", pam_file]) == 0
    assert capsys.readouterr().out == "ok: M3 (4 elements, 1 sums)\n"
    assert main(["pam", "check", pam_file, "--require-self-insummable"]) == 0


def test_cli_pam_check_failures(tmp_path, capsys):
    bad = tmp_path / "bad.pam"
    bad.write_text("pam NA\nelements 0 a b c\nsum a + a = b\nsum b + b = 0\nsum a + b = c\n")
    assert main(["pam", "check", str(bad)]) == 3
    assert "associativity fails" in capsys.readouterr().err
    z2 = tmp_path / "z2.pam"
    z2.write_text("pam Z2\nelements 0 g\nsum g + g = 0\n")
    assert main(["pam", "check", str(z2), "--require-self-insummable"]) == 1
    assert main(["pam", "check", str(tmp_path / "absent.pam")]) == 2


def test_cli_config_normalize(pam_file, capsys):
    rc = main(["config", "normalize", "--pam", pam_file, "[0,1):a [1,2]:a"])
    assert rc == 0
    assert capsys.readouterr().out == "[0,2]:a\n"
    assert main(["config", "normalize", "--pam", pam_file, "[0 1):a"]) == 2
    assert main(["config", "normalize", "--pam", pam_file, "[0,1):a [0,1):a"]) == 3


def test_cli_config_eq(pam_file, capsys):
    base = ["config", "eq", "--pam", pam_file]
    assert main(base + ["(0,2]:c", "(0,1):c [1,2]:c"]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert main(base + ["(0,2]:c", "(0,2]:a"]) == 1
    assert capsys.readouterr().out == "distinct\n"
    rc = main(base + ["--method", "search", "--depth", "2", "(0,2]:c", "(0,1):a [1,2]:b"])
    assert rc == 4
    assert capsys.readouterr().out == "unknown\n"


def test_cli_config_admissible(pam_file, capsys):
    base = ["config", "admissible", "--pam", pam_file]
    assert main(base + ["--support=-1,4", "(1,3]:a"]) == 0
    assert capsys.readouterr().out == "admissible\n"
    assert main(base + ["--support=0,3", "[1,2]:a"]) == 1
    assert capsys.readouterr().out.startswith("not admissible:")


def test_cli_alpha(pam_file, capsys):
    assert main(["alpha", "eval", "--pam", pam_file, "--u", "1", "(1,3]:a"]) == 0
    assert capsys.readouterr().out == "1/2:a\n"
    assert main(["alpha", "eval", "--pam", pam_file, "--u", "0", "(1,3]:a"]) == 0
    assert capsys.readouterr().out == "∅\n"
    assert main(["alpha", "trace", "--pam", pam_file, "--len", "4", "(1,3]:a"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("moore 4\n")
    assert "track -1 3/2 a" in out
    # support too small for the content
    assert main(["alpha", "trace", "--pam", pam_file, "--len", "2", "(1,3]:a"]) == 3


def test_cli_bm_canon(pam_file, capsys):
    assert main(["bm", "canon", "--pam", pam_file, "1/2:a 1/2:b"]) == 0
    assert capsys.readouterr().out == "1/2:c\n"
    assert main(["bm", "canon", "--pam", pam_file, "1/4:a 1/2:a"]) == 3


def test_cli_mirror_double_positive(pam_file, capsys):
    assert main(["mirror", "--pam", pam_file, "(0,1]:a"]) == 0
    assert capsys.readouterr().out == "(-1,0]:a\n"
    assert main(["double", "--pam", pam_file, "(1,2):a"]) == 0
    assert capsys.readouterr().out == "[-2,-1]:a (1,2):a\n"
    assert main(["positive-part", "--pam", pam_file, "(-1,1]:a"]) == 0
    assert capsys.readouterr().out == "[0,1]:a\n"


def test_cli_homotopy(pam_file, capsys):
    eta = "(-7/2,-1/4]:b (-1/4,1/4]:a (1/4,7/2]:b"
    rc = main(["homotopy", "contract", "--pam", pam_file, "--t", "1/2", "--len", "7/2", eta])
    assert rc == 0
    assert capsys.readouterr().out == "(-7/4,7/4]:b\n"
    cover = "(-3,-1]:b (-1/8,1/8]:a (1,3]:b"
    rc = main(["homotopy", "cover", "--pam", pam_file, "--t", "1", "--len", "3", cover])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "(-9/2,-5/2]:b (5/2,9/2]:b\nlength 9/2\n"
    assert main(["homotopy", "contract", "--pam", pam_file, "--t", "2", "--len", "1", "∅"]) == 3


def test_cli_fiber(pam_file, capsys):
    near = "(-3/2,-1/4]:b (-1/4,1/4]:a (1/4,3/2]:b"
    std = "(-7/2,-1/4]:b (-1/4,1/4]:a (1/4,7/2]:b"
    base = ["--pam", pam_file, "--z", "1/2:c"]
    assert main(["fiber", "classify"] + base + [near]) == 0
    assert capsys.readouterr().out == "in-F alpha 1/2:a,b\n"
    assert main(["fiber", "classify"] + base + ["[0,1):c"]) == 1
    assert capsys.readouterr().out.startswith("neither:")
    assert main(["fiber", "retract"] + base + [near]) == 0
    assert capsys.readouterr().out == std + "\n"
    assert main(["fiber", "glue", "--alpha", "1/2:a,b"] + base + [std]) == 0
    out = capsys.readouterr().out
    assert out.count(":") == 7
    assert main(["fiber", "cap", "--pam", pam_file, "--len", "7/2", std]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "value 1/2:c"
    assert out.splitlines()[-1] == "length 11/2"
    assert main(["fiber", "lift", "--len", "7/2"] + base) == 0
    out = capsys.readouterr().out
    assert "(1/4,5/4]:c" in out


def test_cli_usage_error_is_2(pam_file):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "eval", "--pam", pam_file, "(1,3]:a"])
    assert exc.value.code == 2


def test_cli_missing_pam(capsys):
    assert main(["config", "normalize", "[0,1):a"]) == 2


def test_svg_deterministic(m3):
    xi = ((I(1, 3, OPEN, CLOSED), "a"), (I(0, 1, CLOSED, OPEN), "b"))
    assert config_svg(xi) == config_svg(xi)
    assert config_svg(xi).startswith("<svg ")
    loop = alpha_trace(xi[:1], F(4), m3)
    assert loop_svg(loop) == loop_svg(loop)
    z = bm_canon(m3, [(F(1, 2), "a")])
    assert bm_svg(z) == bm_svg(z)


def test_cli_svg_output(pam_file, tmp_path, capsys):
    out = tmp_path / "pic.svg"
    rc = main(["config", "normalize", "--pam", pam_file, "--svg", str(out), "[0,1):a"])
    assert rc == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.startswith(b"<svg ")
    # byte-identical on rerun
    rc = main(["config", "normalize", "--pam", pam_file, "--svg", str(out), "[0,1):a"])
    capsys.readouterr()
    assert out.read_bytes() == data

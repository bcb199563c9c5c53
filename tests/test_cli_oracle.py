"""The CLI parser, built along argv, against the full parser as oracle.

``oracle_build_parser`` is the parser the CLI used to build on every call:
all 26 parsers (the top level, 9 verbs and 16 actions) with every argument.
``pamscan.cli.build_parser(argv)`` builds a parser, with its arguments,
only for the top level and for a verb or action whose name is a token of
argv, and lists the others by name and help line alone: three parsers for
``config normalize``, as counted here.  On help at every level, on a
missing action or argument at every level, on an unknown option under
every command, on names the parse does not enter, on every argv of
``test_cli_total`` and on drawn argvs, both must exit with the same code
and print the same stdout and stderr, or parse to the same values.
``COLUMNS`` is fixed so that argparse wraps help text the same way on any
terminal; the expected text comes from the oracle, so no Python version's
help text is pinned.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamscan.cli import COMMANDS, _int, build_parser

from test_cli_total import CASES

# The oracle's handlers are never called: only its parsing is compared.
cmd_pam_check = cmd_config_normalize = cmd_config_eq = cmd_config_admissible = None
cmd_alpha_eval = cmd_alpha_trace = cmd_bm_canon = cmd_mirror = cmd_double = None
cmd_positive_part = cmd_homotopy = cmd_fiber_classify = cmd_fiber_cap = None
cmd_fiber_lift = cmd_fiber_retract = cmd_fiber_glue = None


def _add_pam_opt(p):
    p.add_argument("--pam", metavar="FILE", help="carrier description file")
    p.add_argument("--default-label", metavar="ID", help="label for unlabeled items")


def oracle_build_parser():
    ap = argparse.ArgumentParser(
        prog="pamscan",
        description="exact configuration spaces of labeled parity intervals",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pam", help="carrier operations")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("check", help="validate a carrier file")
    q.add_argument("file")
    q.add_argument("--require-self-insummable", action="store_true")
    q.set_defaults(fn=cmd_pam_check)

    p = sub.add_parser("config", help="configuration operations")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("normalize", help="print the normal form")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_config_normalize)
    q = psub.add_parser("eq", help="decide equality in the labeled space")
    q.add_argument("left")
    q.add_argument("right")
    _add_pam_opt(q)
    q.add_argument("--method", choices=("nf", "search"), default="nf")
    q.add_argument("--depth", type=_int, default=6)
    q.set_defaults(fn=cmd_config_eq)
    q = psub.add_parser("admissible", help="check thickened admissibility")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--eps", default="1")
    q.add_argument("--support", required=True, metavar="a,b")
    q.set_defaults(fn=cmd_config_admissible)

    p = sub.add_parser("alpha", help="scanning map")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("eval", help="value of the scan at a window position")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--u", required=True)
    q.add_argument("--t", default=None)
    q.set_defaults(fn=cmd_alpha_eval)
    q = psub.add_parser("trace", help="exact piecewise-affine loop")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--len", required=True)
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_alpha_trace)

    p = sub.add_parser("bm", help="circle sum operations")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("canon", help="canonical form of a circle sum")
    q.add_argument("element")
    _add_pam_opt(q)
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_bm_canon)

    for name, fn in (("mirror", cmd_mirror), ("double", cmd_double)):
        q = sub.add_parser(name, help="%s a configuration" % name)
        q.add_argument("config")
        _add_pam_opt(q)
        q.add_argument("--svg", metavar="PATH")
        q.set_defaults(fn=fn)
    q = sub.add_parser("positive-part", help="fold a symmetric configuration")
    q.add_argument("config")
    _add_pam_opt(q)
    q.set_defaults(fn=cmd_positive_part)

    p = sub.add_parser("homotopy", help="deformations")
    psub = p.add_subparsers(dest="kind", required=True)
    for kind in ("contract", "push", "base", "cover"):
        q = psub.add_parser(kind)
        q.add_argument("config")
        _add_pam_opt(q)
        q.add_argument("--t", required=True)
        if kind in ("contract", "cover"):
            q.add_argument("--len", required=True)
        q.set_defaults(fn=cmd_homotopy)

    p = sub.add_parser("fiber", help="fiber machinery")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("classify", help="match against the fiber patterns")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--z", required=True, metavar="BM")
    q.set_defaults(fn=cmd_fiber_classify)
    q = psub.add_parser("cap", help="project to value and cap payload")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--len", required=True)
    q.set_defaults(fn=cmd_fiber_cap)
    q = psub.add_parser("lift", help="standard lift of a base element")
    q.add_argument("config", nargs="?", default="∅")
    _add_pam_opt(q)
    q.add_argument("--z", required=True, metavar="BM")
    q.add_argument("--len", required=True)
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_fiber_lift)
    q = psub.add_parser("retract", help="retract onto the standard pattern")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--z", required=True, metavar="BM")
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_fiber_retract)
    q = psub.add_parser("glue", help="glue fresh pattern content")
    q.add_argument("config")
    _add_pam_opt(q)
    q.add_argument("--z", required=True, metavar="BM")
    q.add_argument("--alpha", required=True, metavar="SPEC")
    q.add_argument("--svg", metavar="PATH")
    q.set_defaults(fn=cmd_fiber_glue)

    return ap


def _levels(parser, prefix=()):
    """The argv prefix of every parser below ``parser``, itself first."""
    yield list(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _levels(child, prefix + (name,))


LEVELS = list(_levels(oracle_build_parser()))
LEAVES = [
    level for level in LEVELS if not any(other[: len(level)] == level != other for other in LEVELS)
]
# names that argv holds but the parse does not enter: a verb after an
# unknown verb or after help, an abbreviation, an action under another
# verb, and a verb name as an operand
UNENTERED = [
    ["bogus", "config"],
    ["-h", "config", "normalize"],
    ["conf", "normalize"],
    ["config", "norm"],
    ["alpha", "normalize"],
    ["config", "trace"],
    ["config", "normalize", "pam", "--pam", "FILE"],
    ["mirror", "config"],
    ["--he"],
]
ARGVS = (
    [level + ["-h"] for level in LEVELS]
    + LEVELS
    + [leaf + ["--bogus"] for leaf in LEAVES]
    + UNENTERED
    + [argv for _, argv, _, _ in CASES]
)


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as e:
            result = ("exit", e.code)
        else:
            result = ("parsed", {k: v for k, v in vars(ns).items() if k != "fn"})
    return result, out.getvalue(), err.getvalue()


def test_the_oracle_has_every_level():
    assert len(LEVELS) == 26
    assert len(LEAVES) == 19


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv)[:70] or "(none)" for argv in ARGVS])
def test_parser_built_along_argv_matches_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(build_parser(argv), argv) == _parse(oracle_build_parser(), argv)


def _options(parser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _options(child)


TOKENS = sorted(
    {level[-1] for level in LEVELS if level}
    | set(_options(oracle_build_parser()))
    | {"bogus", "conf", "norm", "--bogus", "--he", "--de", "-x"}
    | {"[0,1):a", "FILE", "1/2", "-1", "nf", "7", "∅"}
)
TAILS = st.lists(st.sampled_from(TOKENS), max_size=6)
DRAWN = st.one_of(
    TAILS,
    st.builds(lambda level, tail: level + tail, st.sampled_from(LEVELS), TAILS),
)


def test_drawn_argvs_match_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    oracle, drawn = oracle_build_parser(), []

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(DRAWN)
    def check(argv):
        drawn.append(argv)
        assert _parse(build_parser(argv), argv) == _parse(oracle, argv)

    check()
    assert len(drawn) >= 300


def _argvs_by_parsers_built():
    """Argvs with the number of parsers ``build_parser`` makes for them:
    the top level, plus one per verb or action that the argv names."""
    yield [], 1
    yield ["-h"], 1
    yield ["bogus"], 1
    yield ["config"], 2
    for verb, action, *_ in COMMANDS:
        if action is None:
            yield [verb, "X"], 2
        else:
            yield [verb, action], 3


@pytest.mark.parametrize("argv, built", list(_argvs_by_parsers_built()))
def test_parsers_built_per_call(argv, built, monkeypatch):
    count, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        count.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser(argv)
    assert len(count) == built, count

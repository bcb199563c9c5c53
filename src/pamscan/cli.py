"""Command-line interface.

Exit codes: 0 success (or a true answer), 1 false/distinct/neither,
2 parse error, 3 domain error, 4 undecided.  Results go to stdout,
errors to stderr.

Each command is one row of ``COMMANDS``: verb, action (None for a verb
without actions), help line, arguments in order, handler.  ``build_parser``
builds a parser, with its arguments, only for the top level and for a verb
or action whose name is a token of argv; a built parser lists each of its
other verbs or actions by name and help line alone.  This is exact:
argparse enters a subparser only through an argv token equal to its name
(an exact lookup, with no abbreviation), and prints choices and help lines
without entering one, so every parser that a parse reaches, for help, a
usage error or a value, is complete.  Nothing is cached between calls.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import fibers
from .dsl import (
    ParseError,
    fmt_bm,
    fmt_config,
    fmt_loop,
    fmt_rational,
    parse_alpha,
    parse_bm_pairs,
    parse_config,
    parse_pam_text,
    parse_rational,
)
from .intervals import IncompatibleConfig
from .labeled import (
    config_eq,
    double,
    is_admissible,
    labeled_normalize,
    mirror_config,
    positive_part,
)
from .pam import DomainError, PamError, UndecidedError
from .scanning import TraceError, alpha_eval, alpha_trace
from .svg import bm_svg, config_svg, loop_svg
from .tensor import EqVerdict, bm_canon

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_UNKNOWN = 4


def _read_carrier(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError("cannot read carrier file: %s" % e) from None


_INT = re.compile(r"-?[0-9]+")


def _int(text):
    """An integer in ASCII digits: ``int`` alone reads any Unicode digit,
    spaces and underscores.  A sign is left to the caller's range check."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _support(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected two rationals 'a,b', got %r" % text)
    a, b = (parse_rational(p.strip()) for p in parts)
    if b <= a:
        raise ParseError("empty support window %r" % text)
    return a, b


class _Args(argparse.Namespace):
    """A parsed argv, as every handler receives it.

    The carrier file is read on first use, and every operand read through
    ``xi``, ``bm`` or ``rat`` is read after it, so a missing or invalid
    carrier is reported before a bad operand.  Only a handler's own checks
    on plain options (``config eq``'s ``--depth``) come before the read.
    """

    svg = None  # a command without --svg draws nothing
    _carrier = None

    @property
    def carrier(self):
        if self._carrier is None:
            if not self.pam:
                raise ParseError("a carrier file is required (--pam FILE)")
            self._carrier = parse_pam_text(_read_carrier(self.pam))
        return self._carrier

    def xi(self, text=None):
        """The configuration ``text``, by default the ``config`` argument."""
        text = self.config if text is None else text
        return parse_config(text, pam=self.carrier, default_label=self.default_label)

    def bm(self, text):
        return bm_canon(self.carrier, parse_bm_pairs(text, self.carrier))

    def rat(self, text):
        self.carrier  # read first, as for every operand
        return parse_rational(text.strip())

    def show(self, xi, length=None):
        """Print a configuration (and a loop length), then draw it."""
        print(fmt_config(xi))
        if length is not None:
            print("length %s" % fmt_rational(length))
        self.draw(config_svg, xi)

    def draw(self, render, value):
        if self.svg:
            try:
                with open(self.svg, "w", encoding="utf-8") as fh:
                    fh.write(render(value))
            except OSError as e:
                raise ParseError("cannot write svg file: %s" % e) from None


def _pam_check(a):
    try:
        pam = parse_pam_text(_read_carrier(a.file))
    except PamError as e:
        for v in e.violations:
            print(v, file=sys.stderr)
        print("invalid")
        return EXIT_DOMAIN
    print("ok: %s (%d elements, %d sums)" % (pam.name, len(pam.elements), len(pam.sum_rows())))
    if a.require_self_insummable and not pam.is_self_insummable():
        print("not self-insummable")
        return EXIT_FALSE


def _config_eq(a):
    if a.depth < 0:
        raise ParseError("--depth must be at least 0, got %d" % a.depth)
    verdict = config_eq(a.xi(a.left), a.xi(a.right), a.carrier, method=a.method, depth=a.depth)
    print(verdict.value)
    return {EqVerdict.EQUAL: EXIT_OK, EqVerdict.DISTINCT: EXIT_FALSE}.get(verdict, EXIT_UNKNOWN)


def _admissible(a):
    report = is_admissible(a.xi(), a.rat(a.eps), _support(a.support), a.carrier)
    print("admissible" if report.ok else "not admissible: %s" % report.reason)
    return EXIT_OK if report.ok else EXIT_FALSE


def _alpha_eval(a):
    xi = a.xi()
    t = None if a.t is None else a.rat(a.t)
    print(fmt_bm(alpha_eval(xi, a.rat(a.u), a.carrier, t=t)))


def _alpha_trace(a):
    loop = alpha_trace(a.xi(), a.rat(a.len), a.carrier)
    sys.stdout.write(fmt_loop(loop))
    a.draw(loop_svg, loop)


def _bm_canon(a):
    z = a.bm(a.element)
    print(fmt_bm(z))
    a.draw(bm_svg, z)


def _fiber_classify(a):
    eta, z = a.xi(), a.bm(a.z)
    cls = fibers.classify_fiber(eta, z, a.carrier)
    if not cls.matched:
        print("neither: %s" % cls.reason)
        return EXIT_FALSE
    parts = " ".join(
        "%s:%s,%s" % (fmt_rational(u), x, y) for (u, _), (x, y) in zip(z.points, cls.alpha)
    )
    print("%s%s" % (cls.verdict, " alpha " + parts if parts else ""))


def _fiber_cap(a):
    z, xi, s2 = fibers.cap_project(a.xi(), a.rat(a.len), a.carrier)
    print("value %s" % fmt_bm(z))
    a.show(xi, s2)


def _fiber_glue(a):
    eta, z = a.xi(), a.bm(a.z)
    chosen = dict(parse_alpha(a.alpha, a.carrier))
    alpha = []
    for u, _ in z.points:
        if u not in chosen:
            raise ParseError("alpha gives no partition for the point %s" % fmt_rational(u))
        alpha.append(chosen.pop(u))
    if chosen:
        raise ParseError(
            "alpha names a point %s absent from the base element" % fmt_rational(min(chosen))
        )
    a.show(fibers.glue_g(eta, alpha, z, a.carrier))


def _arg(name, **kwargs):
    return name, kwargs


CONFIG = _arg("config")
CARRIER = (
    _arg("--pam", metavar="FILE", help="carrier description file"),
    _arg("--default-label", metavar="ID", help="label for unlabeled items"),
)
SVG = _arg("--svg", metavar="PATH")
T = _arg("--t", required=True)
LEN = _arg("--len", required=True)
Z = _arg("--z", required=True, metavar="BM")

# A verb that groups actions: its help line and the name argparse reports
# when the action is missing.
GROUPS = {
    "pam": ("carrier operations", "action"),
    "config": ("configuration operations", "action"),
    "alpha": ("scanning map", "action"),
    "bm": ("circle sum operations", "action"),
    "homotopy": ("deformations", "kind"),
    "fiber": ("fiber machinery", "action"),
}

# (verb, action, help, arguments, handler).  A handler returns the exit
# code, or None for success.
COMMANDS = (
    ("pam", "check", "validate a carrier file",
     (_arg("file"), _arg("--require-self-insummable", action="store_true")), _pam_check),
    ("config", "normalize", "print the normal form", (CONFIG, *CARRIER, SVG),
     lambda a: a.show(labeled_normalize(a.xi(), a.carrier))),
    ("config", "eq", "decide equality in the labeled space",
     (_arg("left"), _arg("right"), *CARRIER,
      _arg("--method", choices=("nf", "search"), default="nf"),
      _arg("--depth", type=_int, default=6)), _config_eq),
    ("config", "admissible", "check thickened admissibility",
     (CONFIG, *CARRIER, _arg("--eps", default="1"),
      _arg("--support", required=True, metavar="a,b")), _admissible),
    ("alpha", "eval", "value of the scan at a window position",
     (CONFIG, *CARRIER, _arg("--u", required=True), _arg("--t", default=None)), _alpha_eval),
    ("alpha", "trace", "exact piecewise-affine loop", (CONFIG, *CARRIER, LEN, SVG), _alpha_trace),
    ("bm", "canon", "canonical form of a circle sum", (_arg("element"), *CARRIER, SVG), _bm_canon),
    ("mirror", None, "mirror a configuration", (CONFIG, *CARRIER, SVG),
     lambda a: a.show(labeled_normalize(mirror_config(a.xi()), a.carrier))),
    ("double", None, "double a configuration", (CONFIG, *CARRIER, SVG),
     lambda a: a.show(labeled_normalize(double(a.xi()), a.carrier))),
    ("positive-part", None, "fold a symmetric configuration", (CONFIG, *CARRIER),
     lambda a: a.show(positive_part(a.xi(), a.carrier))),
    # keywords in the order read: a homotopy reads --t before its operand
    ("homotopy", "contract", None, (CONFIG, *CARRIER, T, LEN),
     lambda a: a.show(fibers.contract(t=a.rat(a.t), eta=a.xi(), s=a.rat(a.len), pam=a.carrier))),
    ("homotopy", "push", None, (CONFIG, *CARRIER, T),
     lambda a: a.show(fibers.push_homotopy(t=a.rat(a.t), xi=a.xi(), pam=a.carrier))),
    ("homotopy", "base", None, (CONFIG, *CARRIER, T),
     lambda a: print(fmt_bm(fibers.base_homotopy(
         t=a.rat(a.t), z=a.bm(a.config), pam=a.carrier)))),
    ("homotopy", "cover", None, (CONFIG, *CARRIER, T, LEN),
     lambda a: a.show(*fibers.cover_homotopy(
         t=a.rat(a.t), eta=a.xi(), s=a.rat(a.len), pam=a.carrier))),
    ("fiber", "classify", "match against the fiber patterns", (CONFIG, *CARRIER, Z),
     _fiber_classify),
    ("fiber", "cap", "project to value and cap payload", (CONFIG, *CARRIER, LEN), _fiber_cap),
    ("fiber", "lift", "standard lift of a base element",
     (_arg("config", nargs="?", default="∅"), *CARRIER, Z, LEN, SVG),
     lambda a: a.show(*fibers.standard_lift(a.bm(a.z), a.xi(), a.rat(a.len), a.carrier))),
    ("fiber", "retract", "retract onto the standard pattern", (CONFIG, *CARRIER, Z, SVG),
     lambda a: a.show(fibers.retract_r(a.xi(), a.bm(a.z), a.carrier))),
    ("fiber", "glue", "glue fresh pattern content",
     (CONFIG, *CARRIER, Z, _arg("--alpha", required=True, metavar="SPEC"), SVG), _fiber_glue),
)


def build_parser(argv):
    """The parser for ``argv``: a verb or action gets a parser only when
    argv names it, and is otherwise a name and help line in its parent's
    choices (see the module docstring)."""
    named = set(argv)

    def parser_class(**kwargs):
        # argparse passes the prog "<parent prog> <name>"
        name = kwargs["prog"].rpartition(" ")[2]
        return argparse.ArgumentParser(**kwargs) if name in named else None

    ap = argparse.ArgumentParser(
        prog="pamscan", description="exact configuration spaces of labeled parity intervals"
    )
    verbs = ap.add_subparsers(dest="verb", required=True, parser_class=parser_class)
    actions = {}
    for verb, action, text, arguments, fn in COMMANDS:
        if action is None:
            p = verbs.add_parser(verb, help=text)
        else:
            if verb not in actions:
                group_help, dest = GROUPS[verb]
                p = verbs.add_parser(verb, help=group_help)
                actions[verb] = p and p.add_subparsers(
                    dest=dest, required=True, parser_class=parser_class
                )
            if actions[verb] is None:
                continue
            # a help line, even an empty one, would list the action under -h
            p = actions[verb].add_parser(action, **({} if text is None else {"help": text}))
        if p is not None:
            for name, kwargs in arguments:
                p.add_argument(name, **kwargs)
            p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv, namespace=_Args())
    try:
        return args.fn(args) or EXIT_OK
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except UndecidedError as e:
        print("undecided: %s" % e, file=sys.stderr)
        return EXIT_UNKNOWN
    except (PamError, DomainError, IncompatibleConfig, TraceError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

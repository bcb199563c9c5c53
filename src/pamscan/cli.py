"""Command-line interface.

Exit codes: 0 success (or a true answer), 1 false/distinct/neither,
2 parse error, 3 domain error, 4 undecided.  Results go to stdout,
errors to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import fibers, svg
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
from .pam import DomainError, PamError
from .scanning import TraceError, alpha_eval, alpha_trace
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


def _load_pam(args):
    if not getattr(args, "pam", None):
        raise ParseError("a carrier file is required (--pam FILE)")
    return parse_pam_text(_read_carrier(args.pam))


def _config(args, text, pam):
    return parse_config(text, pam=pam, default_label=getattr(args, "default_label", None))


def _bm(text, pam):
    return bm_canon(pam, parse_bm_pairs(text, pam))


def _rat(text):
    return parse_rational(text.strip())


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


def _write_svg(args, render):
    if getattr(args, "svg", None):
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render())
        except OSError as e:
            raise ParseError("cannot write svg file: %s" % e) from None


def cmd_pam_check(args):
    try:
        pam = parse_pam_text(_read_carrier(args.file))
    except PamError as e:
        for v in e.violations:
            print(v, file=sys.stderr)
        print("invalid", file=sys.stdout)
        return EXIT_DOMAIN
    print("ok: %s (%d elements, %d sums)" % (pam.name, len(pam.elements), len(pam.sum_rows())))
    if args.require_self_insummable and not pam.is_self_insummable():
        print("not self-insummable")
        return EXIT_FALSE
    return EXIT_OK


def cmd_config_normalize(args):
    pam = _load_pam(args)
    nf = labeled_normalize(_config(args, args.config, pam), pam)
    print(fmt_config(nf))
    _write_svg(args, lambda: svg.config_svg(nf))
    return EXIT_OK


def cmd_config_eq(args):
    if args.depth < 0:
        raise ParseError("--depth must be at least 0, got %d" % args.depth)
    pam = _load_pam(args)
    x1 = _config(args, args.left, pam)
    x2 = _config(args, args.right, pam)
    verdict = config_eq(x1, x2, pam, method=args.method, depth=args.depth)
    if verdict == EqVerdict.EQUAL:
        print("equal")
        return EXIT_OK
    if verdict == EqVerdict.DISTINCT:
        print("distinct")
        return EXIT_FALSE
    print("unknown")
    return EXIT_UNKNOWN


def cmd_config_admissible(args):
    pam = _load_pam(args)
    xi = _config(args, args.config, pam)
    report = is_admissible(xi, _rat(args.eps), _support(args.support), pam)
    if report.ok:
        print("admissible")
        return EXIT_OK
    print("not admissible: %s" % report.reason)
    return EXIT_FALSE


def cmd_alpha_eval(args):
    pam = _load_pam(args)
    xi = _config(args, args.config, pam)
    t = _rat(args.t) if args.t is not None else None
    z = alpha_eval(xi, _rat(args.u), pam, t=t)
    print(fmt_bm(z))
    return EXIT_OK


def cmd_alpha_trace(args):
    pam = _load_pam(args)
    xi = _config(args, args.config, pam)
    loop = alpha_trace(xi, _rat(args.len), pam)
    sys.stdout.write(fmt_loop(loop))
    _write_svg(args, lambda: svg.loop_svg(loop))
    return EXIT_OK


def cmd_bm_canon(args):
    pam = _load_pam(args)
    z = _bm(args.element, pam)
    print(fmt_bm(z))
    _write_svg(args, lambda: svg.bm_svg(z))
    return EXIT_OK


def cmd_mirror(args):
    pam = _load_pam(args)
    out = labeled_normalize(mirror_config(_config(args, args.config, pam)), pam)
    print(fmt_config(out))
    _write_svg(args, lambda: svg.config_svg(out))
    return EXIT_OK


def cmd_double(args):
    pam = _load_pam(args)
    out = labeled_normalize(double(_config(args, args.config, pam)), pam)
    print(fmt_config(out))
    _write_svg(args, lambda: svg.config_svg(out))
    return EXIT_OK


def cmd_positive_part(args):
    pam = _load_pam(args)
    print(fmt_config(positive_part(_config(args, args.config, pam), pam)))
    return EXIT_OK


def cmd_homotopy(args):
    pam = _load_pam(args)
    t = _rat(args.t)
    if args.kind == "contract":
        out = fibers.contract(_config(args, args.config, pam), t, _rat(args.len), pam)
        print(fmt_config(out))
    elif args.kind == "push":
        print(fmt_config(fibers.push_homotopy(_config(args, args.config, pam), t, pam)))
    elif args.kind == "base":
        print(fmt_bm(fibers.base_homotopy(_bm(args.config, pam), t, pam)))
    else:
        out, s2 = fibers.cover_homotopy(
            _config(args, args.config, pam), t, _rat(args.len), pam
        )
        print(fmt_config(out))
        print("length %s" % fmt_rational(s2))
    return EXIT_OK


def cmd_fiber_classify(args):
    pam = _load_pam(args)
    eta = _config(args, args.config, pam)
    z = _bm(args.z, pam)
    cls = fibers.classify_fiber(eta, z, pam)
    if not cls.matched:
        print("neither: %s" % cls.reason)
        return EXIT_FALSE
    parts = " ".join(
        "%s:%s,%s" % (fmt_rational(u), a, b)
        for (u, _), (a, b) in zip(z.points, cls.alpha)
    )
    print("%s%s" % (cls.verdict, " alpha " + parts if parts else ""))
    return EXIT_OK


def cmd_fiber_cap(args):
    pam = _load_pam(args)
    z, xi, s2 = fibers.cap_project(_config(args, args.config, pam), _rat(args.len), pam)
    print("value %s" % fmt_bm(z))
    print(fmt_config(xi))
    print("length %s" % fmt_rational(s2))
    return EXIT_OK


def cmd_fiber_lift(args):
    pam = _load_pam(args)
    z = _bm(args.z, pam)
    xi = _config(args, args.config, pam)
    out, s2 = fibers.standard_lift(z, xi, _rat(args.len), pam)
    print(fmt_config(out))
    print("length %s" % fmt_rational(s2))
    _write_svg(args, lambda: svg.config_svg(out))
    return EXIT_OK


def cmd_fiber_retract(args):
    pam = _load_pam(args)
    out = fibers.retract_r(_config(args, args.config, pam), _bm(args.z, pam), pam)
    print(fmt_config(out))
    _write_svg(args, lambda: svg.config_svg(out))
    return EXIT_OK


def cmd_fiber_glue(args):
    pam = _load_pam(args)
    eta = _config(args, args.config, pam)
    z = _bm(args.z, pam)
    chosen = dict()
    for u, ab in parse_alpha(args.alpha, pam):
        chosen[u] = ab
    alpha = []
    for u, _ in z.points:
        if u not in chosen:
            raise ParseError("alpha gives no partition for the point %s" % fmt_rational(u))
        alpha.append(chosen.pop(u))
    if chosen:
        raise ParseError(
            "alpha names a point %s absent from the base element" % fmt_rational(min(chosen))
        )
    out = fibers.glue_g(eta, alpha, z, pam)
    print(fmt_config(out))
    _write_svg(args, lambda: svg.config_svg(out))
    return EXIT_OK


def _add_pam_opt(p):
    p.add_argument("--pam", metavar="FILE", help="carrier description file")
    p.add_argument("--default-label", metavar="ID", help="label for unlabeled items")


def build_parser():
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except (PamError, DomainError, IncompatibleConfig, TraceError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""Text formats: labeled configurations, carrier files, circle sums, loops.

All parsers report positions as line:col (1-based) through ParseError.
Formatting is exact; rationals never go through floats.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .intervals import CLOSED, OPEN, Interval
from .pam import FinitePam
from .scanning import MooreLoop
from .tensor import BASEPOINT, BMElement

EMPTY_MARK = "∅"

# ASCII digits only: \d and str.isdigit also take digits of other scripts
# and superscripts, outside the grammar
_RAT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"[0-9]+")
_NAME = re.compile(r"^[A-Za-z0-9_.+-]+$")


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "%s:%s: %s" % (line, col, message)
        super().__init__(message)


def _tokens(text):
    """Whitespace-separated tokens with 1-based (line, col) positions."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        for match in re.finditer(r"\S+", raw):
            out.append((match.group(0), ln, match.start() + 1))
    return out


def parse_rational(tok, line=None, col=None):
    if not _RAT.fullmatch(tok):
        raise ParseError("expected a rational, got %r" % tok, line, col)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ParseError("zero denominator in %r" % tok, line, col) from None


def fmt_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def fmt_interval(j):
    return "%s%s,%s%s" % (
        "[" if j.p == CLOSED else "(",
        fmt_rational(j.u),
        fmt_rational(j.v),
        "]" if j.q == CLOSED else ")",
    )


def _parse_interval_body(body, line, col):
    if not body or body[0] not in "[(":
        raise ParseError("interval must start with '[' or '('", line, col)
    if body[-1] not in "])":
        raise ParseError("interval must end with ']' or ')'", line, col)
    p = CLOSED if body[0] == "[" else OPEN
    q = CLOSED if body[-1] == "]" else OPEN
    inner = body[1:-1]
    if inner.count(",") != 1:
        raise ParseError("interval needs exactly one comma", line, col)
    us, vs = inner.split(",")
    u = parse_rational(us, line, col)
    v = parse_rational(vs, line, col)
    if v < u:
        raise ParseError("interval endpoints out of order", line, col)
    if u == v and p == q:
        raise ParseError("degenerate interval requires opposite parities", line, col)
    return Interval(u, v, p, q)


def _items(text):
    """The tokens of ``text``, none when the empty-set sign stands alone.

    A generator: an empty-set sign among other tokens raises only when it
    is reached, so an error in an earlier token is reported first.
    """
    toks = _tokens(text)
    if len(toks) == 1 and toks[0][0] == EMPTY_MARK:
        return
    for tok, line, col in toks:
        if tok == EMPTY_MARK:
            raise ParseError("empty-set sign must stand alone", line, col)
        yield tok, line, col


def _label(label, pam, line, col):
    """``label``, checked against the grammar and, when given, the carrier."""
    if not _NAME.match(label):
        raise ParseError("bad label %r" % label, line, col)
    if pam is not None and label not in pam.elements:
        raise ParseError("unknown label %r" % label, line, col)
    return label


def parse_config(text, pam=None, default_label=None):
    """Parse whitespace-separated `interval:label` items into a configuration.

    The empty configuration is written as the empty-set sign (or no tokens
    at all).  Labels are validated against the carrier when one is given.
    """
    pairs = []
    for tok, line, col in _items(text):
        end = max(tok.rfind("]"), tok.rfind(")"))
        if end < 0:
            raise ParseError("missing interval close in %r" % tok, line, col)
        body, rest = tok[: end + 1], tok[end + 1 :]
        j = _parse_interval_body(body, line, col)
        if rest == "":
            if default_label is None:
                raise ParseError("item %r has no label" % tok, line, col)
            label = default_label
        elif rest.startswith(":") and len(rest) > 1:
            label = rest[1:]
        else:
            raise ParseError("expected ':label' after interval in %r" % tok, line, col)
        pairs.append((j, _label(label, pam, line, col)))
    return tuple(pairs)


def fmt_config(xi):
    if not xi:
        return EMPTY_MARK
    return " ".join("%s:%s" % (fmt_interval(j), m) for j, m in xi)


def parse_pam_text(text):
    """Parse a carrier description.

    Format: a `pam <name>` header, one `elements ...` line that must include
    0, and any number of `sum a + b = c` lines.  '#' starts a comment.
    Structural violations raise PamError from the constructor.
    """
    name = None
    elements = None
    sums = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "pam":
            if name is not None:
                raise ParseError("duplicate header", ln, 1)
            if len(toks) != 2:
                raise ParseError("expected 'pam <name>'", ln, 1)
            name = toks[1]
        elif toks[0] == "elements":
            if elements is not None:
                raise ParseError("duplicate elements line", ln, 1)
            if len(toks) < 2:
                raise ParseError("elements line needs at least one id", ln, 1)
            elements = toks[1:]
        elif toks[0] == "sum":
            if len(toks) != 6 or toks[2] != "+" or toks[4] != "=":
                raise ParseError("expected 'sum a + b = c'", ln, 1)
            sums.append((toks[1], toks[3], toks[5]))
        else:
            raise ParseError("unknown directive %r" % toks[0], ln, 1)
    if name is None:
        raise ParseError("missing 'pam <name>' header", 1, 1)
    if elements is None:
        raise ParseError("missing elements line", 1, 1)
    return FinitePam(name, elements, [((a, b), c) for a, b, c in sums])


def fmt_pam(pam):
    lines = ["pam %s" % pam.name, "elements %s" % " ".join(pam.elements)]
    lines.extend("sum %s + %s = %s" % row for row in pam.sum_rows())
    return "\n".join(lines) + "\n"


def parse_bm_pairs(text, pam=None):
    """Parse `t:m` tokens into raw circle pairs (basepoint tokens allowed).

    A coordinate must lie in the fundamental domain (-1, 1]; `*` is 1.
    """
    pairs = []
    for tok, line, col in _items(text):
        if ":" not in tok:
            raise ParseError("expected 't:label', got %r" % tok, line, col)
        ts, label = tok.split(":", 1)
        _label(label, pam, line, col)
        if ts == "*":
            t = BASEPOINT
        else:
            t = parse_rational(ts, line, col)
            if not -1 < t <= 1:
                raise ParseError("circle coordinate %s outside (-1,1]" % ts, line, col)
        pairs.append((t, label))
    return pairs


def fmt_bm(z: BMElement):
    if z.is_empty:
        return EMPTY_MARK
    items = []
    if z.m0 is not None:
        items.append("0:%s" % z.m0)
    items.extend("%s:%s" % (fmt_rational(t), m) for t, m in z.points)
    return " ".join(items)


def parse_alpha(text, pam=None):
    """Parse `t:a,b` partition choices, one per base point.

    A point given twice, by value (`2/4` repeats `1/2`), is a ParseError
    at its second token, once that token's own labels have been read.
    """
    out, seen = [], set()
    for tok, line, col in _tokens(text):
        if tok.count(":") != 1 or tok.count(",") != 1:
            raise ParseError("expected 't:a,b', got %r" % tok, line, col)
        ts, rest = tok.split(":")
        a, b = rest.split(",")
        t = parse_rational(ts, line, col)
        ab = _label(a, pam, line, col), _label(b, pam, line, col)
        if t in seen:
            raise ParseError("alpha gives the point %s twice" % fmt_rational(t), line, col)
        seen.add(t)
        out.append((t, ab))
    return out


def fmt_loop(loop: MooreLoop):
    lines = ["moore %s" % fmt_rational(loop.s)]
    lines.extend("breakpoint %s" % fmt_rational(b) for b in loop.breakpoints)
    for i, tracks in enumerate(loop.segments):
        lines.append("segment %d" % i)
        for c1, c0, m in tracks:
            lines.append("track %s %s %s" % (fmt_rational(c1), fmt_rational(c0), m))
    return "\n".join(lines) + "\n"


def parse_loop(text):
    s = None
    breakpoints = []
    segments = []
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "moore":
            if s is not None or len(toks) != 2:
                raise ParseError("expected one 'moore <length>' line", ln, 1)
            s = parse_rational(toks[1], ln, 1)
        elif toks[0] == "breakpoint":
            if len(toks) != 2:
                raise ParseError("expected 'breakpoint <q>'", ln, 1)
            breakpoints.append(parse_rational(toks[1], ln, 1))
        elif toks[0] == "segment":
            if len(toks) != 2 or not _INDEX.fullmatch(toks[1]):
                raise ParseError("expected 'segment <i>'", ln, 1)
            if int(toks[1]) != len(segments):
                raise ParseError("segments out of order", ln, 1)
            current = []
            segments.append(current)
        elif toks[0] == "track":
            if current is None:
                raise ParseError("track before any segment", ln, 1)
            if len(toks) != 4:
                raise ParseError("expected 'track <c1> <c0> <label>'", ln, 1)
            c1 = parse_rational(toks[1], ln, 1)
            c0 = parse_rational(toks[2], ln, 1)
            current.append((c1, c0, toks[3]))
        else:
            raise ParseError("unknown directive %r" % toks[0], ln, 1)
    if s is None:
        raise ParseError("missing 'moore <length>' line", 1, 1)
    try:
        return MooreLoop(s, tuple(breakpoints), tuple(tuple(t) for t in segments))
    except ValueError as e:
        raise ParseError(str(e), 1, 1) from None

"""Deterministic SVG rendering for configurations, loops and circle sums.

Everything is computed from exact rationals and formatted through a fixed
12-digit decimal stage, so identical inputs always produce identical bytes.
No external renderer is involved.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .dsl import fmt_rational
from .intervals import CLOSED

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _dec(x):
    """Exact rational to a short decimal string (12 significant digits)."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 12
        d = Decimal(x.numerator) / Decimal(x.denominator)
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _el(tag, body=None, **attrs):
    parts = ["<%s" % tag]
    for key in sorted(attrs):
        parts.append(' %s="%s"' % (key.replace("_", "-"), attrs[key]))
    if body is None:
        parts.append("/>")
    else:
        parts.append(">%s</%s>" % (body, tag))
    return "".join(parts)


def _document(width, height, children):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d" font-family="monospace" font-size="11">'
        % (width, height, width, height)
    )
    bg = _el("rect", fill="#ffffff", height=height, width=width, x=0, y=0)
    return head + bg + "".join(children) + "</svg>\n"


def _color_for(label, labels):
    return PALETTE[sorted(labels).index(label) % len(PALETTE)]


def _endpoint_marker(x, y, closed, color, mid):
    """Square for a closed endpoint, outlined circle for an open one."""
    if closed:
        return _el(
            "rect", fill=color, height=7, id=mid, width=7, x=_dec(x - Fraction(7, 2)), y=y - 3.5
        )
    return _el(
        "circle", cx=_dec(x), cy=y, fill="#ffffff", id=mid, r="3.5",
        stroke=color, stroke_width="1.5",
    )


def config_svg(xi):
    """Number-line picture: one bar per piece, stacked to avoid overlap."""
    pieces = list(xi)
    if pieces:
        lo = min(j.u for j, _ in pieces) - Fraction(1, 2)
        hi = max(j.v for j, _ in pieces) + Fraction(1, 2)
    else:
        lo, hi = Fraction(-1), Fraction(1)
    width, margin = 720, 50
    span = hi - lo

    def X(t):
        return margin + (Fraction(t) - lo) * (width - 2 * margin) / span

    rows = []  # last occupied v per row
    placed = []
    for j, m in pieces:
        for r, last in enumerate(rows):
            if last < j.u:
                rows[r] = j.v
                placed.append((j, m, r))
                break
        else:
            rows.append(j.v)
            placed.append((j, m, len(rows) - 1))
    height = 70 + max(1, len(rows)) * 26
    axis_y = height - 28
    labels = {m for _, m in pieces}
    body = []
    body.append(
        _el("line", stroke="#222222", stroke_width="1",
            x1=margin - 10, x2=width - margin + 10, y1=axis_y, y2=axis_y)
    )
    t = math.ceil(lo)
    while t <= math.floor(hi):
        x = _dec(X(t))
        body.append(_el("line", stroke="#222222", x1=x, x2=x, y1=axis_y - 4, y2=axis_y + 4))
        body.append(_el("text", body=str(t), fill="#222222", text_anchor="middle", x=x, y=axis_y + 17))
        t += 1
    for i, (j, m, r) in enumerate(placed):
        color = _color_for(m, labels)
        y = 34 + r * 26
        x1, x2 = X(j.u), X(j.v)
        if not j.is_degenerate:
            body.append(
                _el("line", id="bar%d" % i, stroke=color, stroke_width="3",
                    x1=_dec(x1), x2=_dec(x2), y1=y, y2=y)
            )
        body.append(_endpoint_marker(x1, y, j.p == CLOSED, color, "lft%d" % i))
        body.append(_endpoint_marker(x2, y, j.q == CLOSED, color, "rgt%d" % i))
        body.append(
            _el("text", body=m, fill=color, text_anchor="middle",
                x=_dec((x1 + x2) / 2), y=y - 8)
        )
    return _document(width, height, body)


def loop_svg(loop):
    """Piecewise-affine tracks of a loop, basepoint at the frame's edges."""
    width, height, margin = 720, 280, 50

    def X(u):
        return margin + Fraction(u) * (width - 2 * margin) / loop.s

    def Y(val):
        return margin + (1 - Fraction(val)) * (height - 2 * margin) / 2

    labels = {m for seg in loop.segments for _, _, m in seg}
    body = [
        _el("rect", fill="none", height=height - 2 * margin, stroke="#222222",
            width=width - 2 * margin, x=margin, y=margin),
        _el("line", stroke="#bbbbbb", stroke_dasharray="2,3",
            x1=margin, x2=width - margin, y1=_dec(Y(0)), y2=_dec(Y(0))),
    ]
    for b in loop.breakpoints:
        x = _dec(X(b))
        body.append(
            _el("line", stroke="#bbbbbb", stroke_dasharray="4,3",
                x1=x, x2=x, y1=margin, y2=height - margin)
        )
        body.append(
            _el("text", body=fmt_rational(b), fill="#222222",
                text_anchor="middle", x=x, y=height - margin + 16)
        )
    for i, tracks in enumerate(loop.segments):
        lo, hi = loop.breakpoints[i], loop.breakpoints[i + 1]
        for k, (c1, c0, m) in enumerate(tracks):
            color = _color_for(m, labels)
            v1 = max(Fraction(-1), min(Fraction(1), c1 * lo + c0))
            v2 = max(Fraction(-1), min(Fraction(1), c1 * hi + c0))
            body.append(
                _el("line", id="trk%d-%d" % (i, k), stroke=color, stroke_width="2",
                    x1=_dec(X(lo)), x2=_dec(X(hi)), y1=_dec(Y(v1)), y2=_dec(Y(v2)))
            )
            mid = (lo + hi) / 2
            body.append(
                _el("text", body=m, fill=color, text_anchor="middle",
                    x=_dec(X(mid)), y=_dec(Y(c1 * mid + c0) - 6))
            )
    return _document(width, height, body)


def bm_svg(z):
    """Labeled points on the circle; the basepoint sits at the east pole."""
    size, r = 220, 80
    c = size / 2
    body = [
        _el("circle", cx=c, cy=c, fill="none", r=r, stroke="#222222"),
        _el("circle", cx=c + r, cy=c, fill="#222222", r=3),
        _el("text", body="*", fill="#222222", x=c + r + 8, y=c + 4),
    ]
    pts = list(z.to_pairs())
    labels = {m for _, m in pts}
    for i, (t, m) in enumerate(pts):
        # coordinate t in (-1, 1]; angle 0 at the basepoint, positive t upper half
        ang = math.pi * (1 - float(t))
        x, y = c + r * math.cos(ang), c - r * math.sin(ang)
        color = _color_for(m, labels)
        body.append(_el("circle", cx="%.6f" % x, cy="%.6f" % y, fill=color, id="pt%d" % i, r=4))
        lx, ly = c + (r + 16) * math.cos(ang), c - (r + 16) * math.sin(ang)
        body.append(
            _el("text", body=m, fill=color, text_anchor="middle",
                x="%.6f" % lx, y="%.6f" % (ly + 4))
        )
    return _document(size, size, body)

"""Fiber machinery for the scanning map.

Contraction along the symmetric window, the cap construction and its
standard-lift section, the base and covering homotopies that squeeze near
points away, and the pattern classification of fiber members together with
the retraction and gluing maps between the two pattern shapes.  The
retraction has no round bound: ``retract_r`` proves that its loop ends, in
the standard pattern or on a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pam import UNIT, DomainError
from .intervals import CLOSED, OPEN, Interval, _frac, _positive
from .labeled import (
    _mirror_split,
    in_T_labeled,
    labeled_normalize,
    lc_sorted,
    mirror_config,
    positive_part,
    restrict,
    translate_config,
)
from .scanning import path_eval_at_zero
from .tensor import BMElement, bm_canon


def _check_unit_t(t):
    t = _frac(t)
    if not (0 <= t <= 1):
        raise DomainError("homotopy time %s outside [0, 1]" % t)
    return t


def _map_pieces(xi, f):
    """Endpoint map over a configuration, dropping collapsed pieces."""
    out = []
    for j, m in xi:
        nj = j.map_endpoints(f)
        if nj is not None:
            out.append((nj, m))
    return lc_sorted(out)


def _clamp_toward(xi, centre, d, pam):
    """Slide content toward ``centre`` by d from both sides, clamping there.

    Content left of 0 slides toward ``-centre`` instead, so the map
    commutes with ``mirror_config`` on content with no endpoint at 0 (0
    itself goes with the positive side).  Pieces meeting at a centre paste,
    so the result is in normal form.
    """

    def f(x):
        c = centre if x >= 0 else -centre
        if x - c >= d:
            return x - d
        if x - c <= -d:
            return x + d
        return Fraction(c)

    return labeled_normalize(_map_pieces(labeled_normalize(xi, pam), f), pam)


def contract(eta, t, s, pam):
    """Slide everything toward 0 by t*s, clamping at 0.

    Mirror pairs meeting at the origin paste into zero-crossing pieces, so
    the result is returned in normal form.
    """
    t = _check_unit_t(t)
    s = _positive(s, "length")
    return _clamp_toward(eta, 0, t * s, pam)


def cap_project(eta, s, pam):
    """Split a symmetric configuration into its loop value and a cap payload.

    Returns (z, xi, s + 2): z is the scan value at 0; xi is the positive
    part pushed out by two units, with one cap strand per piece that starts
    within half a unit of 0.
    """
    s = _positive(s, "length")
    z = path_eval_at_zero(eta, pam)
    pos = positive_part(eta, pam)
    cap = []
    for j, m in pos:
        if j.u <= Fraction(1, 2):
            cap.append((Interval(1 - j.u, 2 - j.u, OPEN, -j.p), m))
    return z, lc_sorted(cap + list(translate_config(pos, 2))), s + 2


def standard_lift(z, xi, s, pam):
    """Section of the cap projection: a cut pair per base point, plus payload.

    The base element must have no label at coordinate 0.  Each point t
    contributes a half-open unit strand starting at |t|/2, open on the side
    the sign dictates; the payload is pushed out by two units and the whole
    picture is mirrored.
    """
    s = _positive(s, "length")
    if z.m0 is not None:
        raise DomainError("standard lift requires no label at coordinate 0")
    core = []
    for t, m in z.points:
        c = abs(t) / 2
        sgn = 1 if t > 0 else -1
        core.append((Interval(c, c + 1, -sgn, sgn), m))
    core.extend(translate_config(xi, 2))
    out = lc_sorted(core + list(mirror_config(core)))
    ok, wit = in_T_labeled(out, pam, witness=True)
    if not ok:
        raise DomainError("lift leaves the tensor region: %r" % (wit,))
    return out, s + 2


def push_homotopy(xi, t, pam):
    """Slide content toward the anchor at 2, clamping there.

    Content left of 0 slides toward -2, so the homotopy commutes with the
    mirror on content with no endpoint at 0.
    """
    t = _check_unit_t(t)
    return _clamp_toward(xi, 2, 2 * t, pam)


def base_homotopy(z, t, pam):
    """Squeeze base points outward: near points stretch, far ones vanish."""
    t = _check_unit_t(t)
    pairs = []
    for u, m in z.to_pairs():
        if u <= t / 2 - 1:
            v = Fraction(-1)
        elif u >= 1 - t / 2:
            v = Fraction(1)
        else:
            v = 2 * u / (2 - t)
        pairs.append((v, m))
    return bm_canon(pam, pairs)


def is_in_O(z: BMElement):
    """True when some point sits farther than half a unit from 0."""
    return any(abs(u) > Fraction(1, 2) for u, _ in z.points)


def _odd(f):
    def g(x):
        if x >= 0:
            return f(x)
        return -f(-x)

    return g


def cover_homotopy(eta, t, s, pam):
    """Cover the base squeeze on configurations whose value lies in O.

    Zero-crossing pieces follow the squeeze exactly; far strands translate
    outward by 3t/2.  Returns (config, s + 3t/2).
    """
    t = _check_unit_t(t)
    s = _positive(s, "length")
    z = path_eval_at_zero(eta, pam)
    if not is_in_O(z):
        raise DomainError("covering homotopy needs a point beyond 1/2")
    nf = labeled_normalize(eta, pam)
    s_zero, s_plus = _mirror_split(nf)

    def lam(x):
        if x <= t / 4:
            return Fraction(0)
        if x <= Fraction(1, 2):
            return (4 * x - t) / (4 - 2 * t)
        if x <= 1:
            return (3 * t + 1) * x - 3 * t / 2
        return x + 3 * t / 2

    def nu(x):
        if x <= Fraction(3, 4):
            return (t + 1) * x
        if x <= 1:
            return (3 * t + 1) * x - 3 * t / 2
        return x + 3 * t / 2

    moved_zero = _map_pieces(s_zero, _odd(lam))
    moved_plus = _map_pieces(s_plus, _odd(nu))
    out = lc_sorted(
        list(moved_zero) + list(moved_plus) + list(mirror_config(moved_plus))
    )
    return labeled_normalize(out, pam), s + 3 * t / 2


# --- fiber patterns --------------------------------------------------------


@dataclass(frozen=True)
class FiberClass:
    verdict: str  # "in-H", "in-F" or "neither"
    alpha: tuple = None
    far: tuple = ()
    reason: str = None

    @property
    def matched(self):
        return self.verdict in ("in-H", "in-F")


def _match_pattern(eta, z, pam, window, far_allowed):
    """Match the window content of eta against the fiber pattern over z.

    Returns (alpha, far) or a string describing the first mismatch.
    Central pieces of radius below 1/2 are single-point contributions; cut
    pairs contribute through their plateau; everything else must clip the
    window edges (big central content or strand bodies).
    """
    W = Fraction(window)
    half = Fraction(1, 2)
    w = labeled_normalize(restrict(eta, -W, W), pam)
    e_at, f_at = {}, {}
    lefts, rights = [], []
    zpool = []
    for j, m in w:
        if j.u == -W and j.v == W:
            zpool.append(m)
        elif j.u == -W:
            lefts.append((j.v, j.q, m))
        elif j.v == W:
            rights.append((j.u, j.p, m))
        elif j.u < 0 < j.v:
            if j.u != -j.v or j.p != -j.q:
                return "central piece %r is not mirror-shaped" % (j,)
            r = j.v
            if r < half:
                e_at[j.q * (1 - 2 * r)] = m
            elif far_allowed and r < W:
                zpool.append(m)
            else:
                return "central piece %r has intermediate radius" % (j,)
        else:
            return "stray piece %r:%s inside the window" % (j, m)

    lefts.sort()
    rights.sort()
    far = []
    while lefts:
        w1, pi, m = lefts.pop()
        partner = (-w1, -pi, m)
        if w1 >= 0:
            return "anchored piece with cut %s on the wrong side" % (w1,)
        if partner not in rights:
            return "unpaired anchored piece with cut %s:%s" % (w1, m)
        rights.remove(partner)
        c = -w1
        u = pi * 2 * c
        if c < half:
            f_at[u] = m
        elif far_allowed and c < 1:
            far.append((u, m))
        else:
            return "cut pair at distance %s not allowed here" % (c,)
    if rights:
        return "unpaired anchored piece with cut %s:%s" % (rights[0][0], rights[0][2])

    zsum = pam.sum_tuple(zpool)
    if zsum is None:
        return "central labels %r do not sum" % (zpool,)
    want_m0 = z.m0 if z.m0 is not None else UNIT
    if zsum != want_m0:
        return "central label sum %s differs from %s" % (zsum, want_m0)

    alpha = []
    for u, m in z.points:
        a = e_at.pop(u, UNIT)
        b = f_at.pop(u, UNIT)
        if pam.pair_sum(a, b) != m:
            return "point %s carries (%s, %s), not a partition of %s" % (u, a, b, m)
        alpha.append((a, b))
    if e_at or f_at:
        stray = sorted(e_at) + sorted(f_at)
        return "contribution at %s does not match any base point" % (stray[0],)
    return tuple(alpha), tuple(sorted(far))


def classify_fiber(eta, z, pam):
    """Decide membership in the two fiber patterns over a base element."""
    res = _match_pattern(eta, z, pam, 3, far_allowed=False)
    if not isinstance(res, str):
        alpha, far = res
        return FiberClass("in-H", alpha=alpha, far=far)
    res = _match_pattern(eta, z, pam, 1, far_allowed=True)
    if not isinstance(res, str):
        alpha, far = res
        return FiberClass("in-F", alpha=alpha, far=far)
    return FiberClass("neither", reason=res)


def _sigma(x):
    if x <= Fraction(1, 2):
        return x
    return 3 * x - 1


def _tau(x):
    if x < Fraction(1, 2):
        raise DomainError("outward map undefined below 1/2")
    if x <= Fraction(3, 4):
        return x + Fraction(1, 2)
    return 3 * x - 1


def retract_r(eta, z, pam):
    """Retract a fiber member onto the standard pattern.

    Members already in the standard pattern are returned unchanged, which
    makes the map a genuine retraction.  Otherwise each round classifies
    the member and maps it: central and near pieces by the odd σ, pieces
    whose ends all have |x| >= 1/2 by the odd τ.  The loop ends on an in-H
    member, on one that is not a fiber member (DomainError), or on a round
    that moves no endpoint strictly inside the wide window (-3, 3): that
    round raises DomainError, since the member never reaches the standard
    pattern.

    Proof that the loop ends, and that a stall is final.  σ fixes
    [-1/2, 1/2] and triples any excess over 1/2; τ moves each point by at
    least 1/2 and lies above σ on [1/2, ∞), so a τ round moves an endpoint
    at least as far as a σ round would.  Both satisfy |f(x)| >= |x| and are
    strictly increasing, so no piece collapses, no endpoint re-enters the
    window, and the normal form makes no new endpoint.  So an endpoint with
    |x| = 1/2 + d, d > 0, leaves the window after at most ⌈log₃(5/(2d))⌉
    rounds that move it, one with |x| = 1/2 after at most 3 τ rounds, and
    one with |x| < 1/2 never moves.  Every round but a stall moves one of
    these finitely many endpoints, so the loop ends.  Both patterns read
    only ``restrict(·, -3, 3)``, which a round moving no endpoint inside
    the window leaves as it is, and each piece that meets the window keeps
    its map.  So every later round is the same stall, and the verdict is
    final.
    """
    half = Fraction(1, 2)
    current = labeled_normalize(eta, pam)
    while True:
        cls = classify_fiber(current, z, pam)
        if cls.verdict == "in-H":
            return current
        if cls.verdict != "in-F":
            raise DomainError("not a fiber member: %s" % cls.reason)
        mapped = []
        moved = False
        for j, m in current:
            if j.u < 0 < j.v:
                f = _odd(_sigma)
            elif j.u >= 1 or j.v <= -1:
                f = _odd(_tau)
            else:
                cut = j.u if j.u >= 0 else -j.v
                f = _odd(_sigma) if cut < half else _odd(_tau)
            nj = j.map_endpoints(f)
            moved = moved or (nj.u != j.u and -3 < j.u < 3) or (nj.v != j.v and -3 < j.v < 3)
            mapped.append((nj, m))
        if not moved:
            raise DomainError(
                "retraction stalls off the standard pattern: %s"
                % _match_pattern(current, z, pam, 3, far_allowed=False)
            )
        current = labeled_normalize(mapped, pam)


def glue_g(eta, alpha, z, pam):
    """Glue a standard fiber member with fresh pattern content over z.

    The payload (positive part of eta, origin pieces made half-open) moves
    out by two units and is mirrored; new central and cut-pair content for z
    with the prescribed partitions alpha sits at the origin, the cut strands
    reaching the payload seam.

    A partition (a, a) with a nonzero at a base point u = +-1/2 is refused
    (DomainError): the central piece (-1/4, 1/4) and the cut strand from
    1/4 would share the label a and meet at 1/4 with complementary
    parities, so they paste, and the output would not lie over z.
    """
    alpha = tuple(alpha)
    if len(alpha) != len(z.points):
        raise DomainError("alpha must assign one partition per base point")
    for (u, m), (a, b) in zip(z.points, alpha):
        if pam.pair_sum(a, b) != m:
            raise DomainError(
                "(%s, %s) is not a partition of the label %s at %s" % (a, b, m, u)
            )
        if a == b != UNIT and abs(u) == Fraction(1, 2):
            raise DomainError(
                "partition (%s, %s) at %s would paste its central piece to its cut strand"
                % (a, b, u)
            )
    p_eta = path_eval_at_zero(eta, pam)
    cls = classify_fiber(eta, p_eta, pam)
    if cls.verdict != "in-H":
        raise DomainError(
            "gluing needs the standard pattern: %s" % (cls.reason or cls.verdict)
        )
    shared = {u: ab for u, ab in zip((u for u, _ in p_eta.points), cls.alpha)}
    for (u, m), ab in zip(z.points, alpha):
        if u in shared and shared[u] != ab:
            raise DomainError(
                "partition at %s disagrees with the existing content" % (u,)
            )

    pieces = []
    if z.m0 is not None:
        pieces.append((Interval(-1, 1, CLOSED, OPEN), z.m0))
    for (u, m), (a, b) in zip(z.points, alpha):
        sgn = 1 if u > 0 else -1
        if a != UNIT:
            r = (1 - abs(u)) / 2
            pieces.append((Interval(-r, r, -sgn, sgn), a))
        if b != UNIT:
            right = Interval(abs(u) / 2, 2, -sgn, sgn)
            pieces.append((right, b))
            pieces.append((right.mirror(), b))

    nf = labeled_normalize(eta, pam)
    s_zero, s_plus = _mirror_split(nf)
    payload = [(Interval(0, j.v, -j.q, j.q), m) for j, m in s_zero]
    payload.extend(s_plus)
    moved = translate_config(payload, 2)
    return lc_sorted(list(pieces) + list(moved) + list(mirror_config(moved)))

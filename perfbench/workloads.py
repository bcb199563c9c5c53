"""The four benchmark workloads.

A workload builds its carriers in ``setup`` (timed as ``setup_s``), yields
an endless seeded stream of rounds, turns each plain input into pamscan
objects in ``prepare`` (not timed), runs one operation in ``run`` (timed)
and judges the result in ``check`` (not timed) against an oracle that does
not call pamscan.  Every round has the same mix of tiers, so a run's
statistics do not depend on how many rounds fit into it.

``check`` returns "ok", "undecided" (a bounded search gave UNKNOWN) or a
string starting with "wrong" that says what was wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import gen
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def _to_config(pamscan, pieces):
    Interval = pamscan.Interval
    return tuple((Interval(u, v, p, q), m) for u, v, p, q, m in pieces)


def _plain(config):
    return tuple((j.u, j.v, j.p, j.q, m) for j, m in config)


def _plain_bm(z):
    return z.m0, tuple(z.points)


class Item:
    """One operation's input: its tier (None when untiered) and payload."""

    __slots__ = ("kind", "tier", "data")

    def __init__(self, kind, tier, data):
        self.kind = kind
        self.tier = tier
        self.data = data


class Workload:
    """Shared parts: carrier set-up from the fixture files, no probe."""

    reference = "compute"  # the reference loop that paces it (pace.py)

    def setup(self, pamscan):
        """Parse and validate the workload's carrier files."""
        carriers = {}
        for name in self.carriers:
            with open(os.path.join(FIXTURES, name + ".pam"), encoding="utf-8") as fh:
                carriers[name] = pamscan.dsl.parse_pam_text(fh.read())
        return carriers

    def probe(self, seed):
        return []

    def new_round(self, pamscan, ctx):
        """Called before each round's inputs are prepared (not timed)."""


# --- trace ------------------------------------------------------------------

class Trace(Workload):
    """M3 chains of k clusters: alpha_trace, is_admissible, loop_eval."""

    name = "trace"
    tiers = (8, 16, 32, 64)
    tail_pct = 70
    min_ops = 34
    carriers = ("m3",)
    # Blocks of 5, 2, 4 and 1 operations put p50 at the middle of the
    # 16-cluster block and p70 inside the 32 block, away from the edges
    # between tiers.
    mix = (8,) * 5 + (16,) * 2 + (32,) * 4 + (64,)
    samples = 16

    def rounds(self, seed):
        r = 0
        while True:
            items = []
            for i, k in enumerate(self.mix):
                rng = gen.rng_for(self.name, seed, r, i)
                pieces, s = gen.chain(rng, k)
                us = sorted({gen.grid(rng, 0, s) for _ in range(self.samples)} | {Fraction(0), s})
                items.append(Item("chain", k, {"pieces": pieces, "s": s, "us": us}))
            yield items
            r += 1

    def prepare(self, pamscan, ctx, item):
        return (_to_config(pamscan, item.data["pieces"]), item.data["s"], item.data["us"])

    def run(self, pamscan, ctx, prepared):
        xi, s, us = prepared
        pam = ctx["m3"]
        loop = pamscan.alpha_trace(xi, s, pam)
        report = pamscan.is_admissible(xi, 1, (0, s), pam)
        return loop, report, [pamscan.loop_eval(loop, u, pam) for u in us]

    def check(self, item, out):
        loop, report, values = out
        if not report.ok:
            return "wrong: generated chain judged not admissible: %s" % report.reason
        if loop.s != item.data["s"] or loop.breakpoints[0] != 0 or loop.breakpoints[-1] != loop.s:
            return "wrong: loop does not span [0, s]"
        units = oracles.scan_units(item.data["pieces"])
        for u, z in zip(item.data["us"], values):
            want = oracles.chain_value(units, u)
            if _plain_bm(z) != want:
                return "wrong: loop value at %s is %r, expected %r" % (u, z, want)
        return "ok"


# --- normalize ----------------------------------------------------------------

class Normalize(Workload):
    """Large presentations of M3 chains, plus symmetric fiber maps."""

    name = "normalize"
    tiers = (100, 200, 400, 800)
    tail_pct = 75
    min_ops = 40
    carriers = ("m3",)
    clusters = 16
    # Each noisy input is two operations (labeled_normalize, then config_eq
    # against its source), so a round has blocks of 4, 4, 6, 6 and 2
    # operations: p50 sits at the middle of the 200-piece block and p75
    # inside the 400 block.
    mix = ("sym",) * 4 + (100,) * 2 + (200,) * 3 + (400,) * 3 + (800,)

    def rounds(self, seed):
        r = 0
        while True:
            items = []
            for i, tier in enumerate(self.mix):
                rng = gen.rng_for(self.name, seed, r, i)
                if tier == "sym":
                    pieces, s = gen.symmetric(rng)
                    t = Fraction(rng.randint(1, 4), 4)
                    items.append(Item("sym", None, {"pieces": pieces, "s": s, "t": t}))
                else:
                    data = self._noisy(rng, tier)
                    items.append(Item("nf", tier, data))
                    items.append(Item("eq", tier, data))
            yield items
            r += 1

    def _noisy(self, rng, target):
        source, _ = gen.chain(rng, self.clusters)
        pieces = gen.unpaste(rng, source, target)
        # degenerate points go into gaps between source pieces, one per
        # slot, so the noisy input stays in the tensor region
        slots = sorted({v + Fraction(j, 64) for _, v, _, _, _ in source for j in range(1, 8)})
        rng.shuffle(slots)
        for _ in range(target // 10):
            pieces = gen.rewrite(rng, pieces, "0abc", gen.M3_PARTITIONS, slots)
        rng.shuffle(pieces)
        return {"source": source, "pieces": pieces}

    def prepare(self, pamscan, ctx, item):
        d = item.data
        if item.kind == "sym":
            return ("sym", _to_config(pamscan, d["pieces"]), d["t"], d["s"])
        return (item.kind, _to_config(pamscan, d["pieces"]), _to_config(pamscan, d["source"]))

    def run(self, pamscan, ctx, prepared):
        pam = ctx["m3"]
        kind, config = prepared[:2]
        if kind == "sym":
            t, s = prepared[2:]
            return (
                pamscan.is_mirror_invariant(config, pam),
                pamscan.positive_part(config, pam),
                pamscan.contract(config, t, s, pam),
                pamscan.cap_project(config, s, pam),
            )
        if kind == "nf":
            return pamscan.labeled_normalize(config, pam)
        return pamscan.config_eq(config, prepared[2], pam, method="nf")

    def check(self, item, out):
        if item.kind == "nf":
            return "ok" if _plain(out) == item.data["source"] else "wrong: normal form differs from the source chain"
        if item.kind == "eq":
            return "ok" if out.value == "equal" else "wrong: config_eq says %s" % out.value
        pieces, s, t = item.data["pieces"], item.data["s"], item.data["t"]
        invariant, pos, contracted, (z, xi, s2) = out
        if invariant is not True:
            return "wrong: symmetric configuration judged not mirror-invariant"
        if _plain(pos) != oracles.positive_part(pieces):
            return "wrong: positive part %r" % (pos,)
        if _plain(contracted) != oracles.contract(pieces, t, s):
            return "wrong: contraction at t=%s is %r" % (t, contracted)
        if (_plain_bm(z), _plain(xi), s2) != oracles.cap_project(pieces, s):
            return "wrong: cap projection %r %r %s" % (z, xi, s2)
        return "ok"


# --- dense --------------------------------------------------------------------

CYCLIC = {"z5": 5, "z7": 7}
TRUNC_K = 24


def _total_of(carrier):
    if carrier in CYCLIC:
        return lambda labels: oracles.cyclic_sum(labels, CYCLIC[carrier])
    return lambda labels: oracles.trunc_sum(labels, TRUNC_K)


def _cyclic_partitions(n):
    """Nonzero (a, b) with a + b = m in Z/n, for each nonzero m."""
    return {
        "g%d" % m: [("g%d" % a, "g%d" % ((m - a) % n)) for a in range(1, n) if (m - a) % n]
        for m in range(1, n)
    }


def _labels(rng, carrier, n, unsummable):
    if carrier in CYCLIC:
        return ["g%d" % rng.randint(1, CYCLIC[carrier] - 1) for _ in range(n)]
    values = [rng.randint(1, max(1, TRUNC_K // n)) for _ in range(n)]
    if unsummable:
        # push the total to K + 1; every value stays <= K
        values[rng.randrange(n)] += TRUNC_K + 1 - sum(values)
    return ["t%d" % v for v in values]


class Dense(Workload):
    """Many labels per window over Z/5, Z/7 and the truncated {0..24}.

    A tiered operation takes one label multiset through bm_canon (on that
    many circle points) and is_admissible (on a window holding that many
    disjoint half-open pieces).
    """

    name = "dense"
    tiers = (2, 4, 6, 8)
    probe_tiers = (9, 10, 11, 12)
    tail_pct = 98
    min_ops = 500
    carriers = ("z5", "z7", "t24")
    window = (Fraction(1), Fraction(5, 2))
    support = (Fraction(0), Fraction(7, 2))
    # (carrier, rewrite steps) of the config_eq searches in each round.  Five
    # one-step and two two-step searches balance the 3 two-label and the 8
    # costlier operations around the 4-label block, so p50 sits at its
    # middle.  Three steps are left out: their cost runs from milliseconds
    # to over ten seconds, so a few draws would set every figure of a run.
    searches = (("z5", 1), ("z7", 1), ("z5", 1), ("z7", 1), ("z5", 1), ("z5", 2), ("z7", 2))
    # About one two-step search in ten takes 100-350 ms instead of 5 ms,
    # with no simple sign of which, and an 8-label sum costs 5-70 ms by how
    # many of its labels differ.  Drawn afresh each round, the number of
    # such inputs per run moved ops_per_s and the p98 tail by 10% from seed
    # to seed (the same seed repeated came within 3%).  So two-step
    # searches and the label multisets come from fixed pools, the same for
    # every seed, taken in a seeded cyclic order: every run has the same
    # share of slow inputs.  The seed sets the order, the circle points and
    # the window pieces.  The probe draws afresh.
    # A run holds 80-150 rounds.  Label pools are small, so that a run
    # makes ten or more whole passes and its last, partial pass weighs
    # little; search pools are larger, to hold a fair share of slow ones.
    label_pool = 8
    search_pool = 32

    def _pool(self, seed, key, draw, size):
        """Round r's draw from the pool ``key``, as a function of r."""
        items = [draw(gen.rng_for(self.name, "pool", *key, i)) for i in range(size)]
        order = gen.rng_for(self.name, seed, "order", *key).sample(range(size), size)
        return lambda r: items[order[r % size]]

    def _label_pools(self, seed):
        def draw(carrier, n):
            def one(rng):
                return _labels(rng, carrier, n, carrier == "t24" and rng.random() < 0.3)
            return one

        return {(n, c): self._pool(seed, ("labels", n, c), draw(c, n), self.label_pool)
                for n in self.tiers for c in self.carriers}

    def _items(self, seed, r, arities, pools=None):
        items = []
        for n in arities:
            for carrier in self.carriers:
                rng = gen.rng_for(self.name, seed, r, n, carrier)
                if pools is None:
                    labels = _labels(rng, carrier, n, carrier == "t24" and rng.random() < 0.3)
                else:
                    labels = pools[n, carrier](r)
                coords = [Fraction(rng.randint(-7, 8), 8) for _ in labels]
                order = rng.sample(labels, n)
                boxes = gen.disjoint_window_pieces(rng, n, *self.window)
                pieces = tuple(box + (m,) for box, m in zip(boxes, order))
                items.append(Item("labels", n, {"carrier": carrier, "labels": labels,
                                                "coords": coords, "pieces": pieces}))
        return items

    def rounds(self, seed):
        labels = self._label_pools(seed)
        searches = {c: self._pool(seed, ("eq", c), lambda rng, c=c: self._search(rng, c, 2), self.search_pool)
                    for c, steps in self.searches if steps > 1}
        r = 0
        while True:
            items = self._items(seed, r, self.tiers, labels)
            for i, (carrier, steps) in enumerate(self.searches):
                if steps == 1:
                    items.append(self._search(gen.rng_for(self.name, seed, r, "eq", i), carrier, steps))
                else:
                    items.append(searches[carrier](r))
            yield items
            r += 1

    def _search(self, rng, carrier, steps):
        labs = ["g%d" % k for k in range(1, CYCLIC[carrier])]
        boxes = gen.disjoint_window_pieces(rng, 2, Fraction(0), Fraction(3))
        source = tuple(box + (rng.choice(labs),) for box in boxes)
        moved = list(source)
        spots = [Fraction(k, 8) for k in range(1, 24)]
        rng.shuffle(spots)
        for _ in range(steps):
            if rng.random() < 0.5:
                i = rng.choice([k for k, pc in enumerate(moved) if pc[0] < pc[1]])
                moved[i : i + 1] = gen.unpaste(rng, moved[i : i + 1], 2)
            else:
                moved = gen.rewrite(rng, moved, labs, _cyclic_partitions(CYCLIC[carrier]), spots)
        return Item("eq", None, {"carrier": carrier, "source": source, "moved": tuple(moved)})

    def probe(self, seed):
        """Inputs with more than 8 labels, run once per dense run."""
        return self._items(seed, "probe", self.probe_tiers)

    def new_round(self, pamscan, ctx):
        # Fresh carriers, so sums of earlier rounds are not cached: over
        # Z/5 there are only 165 multisets of 8 labels, and with carriers
        # kept for the whole run the share of cache hits grew with the
        # number of rounds, which depends on the machine's speed.
        ctx.update(self.setup(pamscan))

    def prepare(self, pamscan, ctx, item):
        d = item.data
        pam = ctx[d["carrier"]]
        if item.kind == "labels":
            return ("labels", pam, list(zip(d["coords"], d["labels"])), _to_config(pamscan, d["pieces"]))
        return ("eq", pam, _to_config(pamscan, d["source"]), _to_config(pamscan, d["moved"]))

    def run(self, pamscan, ctx, prepared):
        kind, pam, a, b = prepared
        if kind == "eq":
            return pamscan.config_eq(a, b, pam, method="search")
        try:
            z = pamscan.bm_canon(pam, a)
        except pamscan.DomainError as e:
            z = e
        return z, pamscan.is_admissible(b, 1, self.support, pam)

    def check(self, item, out):
        d = item.data
        if item.kind == "eq":
            if out.value == "unknown":
                return "undecided"
            return "ok" if out.value == "equal" else "wrong: config_eq says %s" % out.value
        z, report = out
        total_of = _total_of(d["carrier"])
        want = oracles.canon(list(zip(d["coords"], d["labels"])), total_of)
        if want is None and not isinstance(z, Exception):
            return "wrong: bm_canon accepted unsummable labels"
        if want is not None and isinstance(z, Exception):
            return "wrong: bm_canon rejected summable labels: %s" % z
        if want is not None and _plain_bm(z) != want:
            return "wrong: bm_canon gave %r, expected %r" % (z, want)
        summable = total_of(d["labels"]) is not None
        if report.ok != summable:
            return "wrong: is_admissible=%s, expected %s (%s)" % (report.ok, summable, report.reason)
        return "ok"


# --- cli ----------------------------------------------------------------------

class Cli(Workload):
    """Every subcommand on the README fixtures through pamscan.cli.main."""

    name = "cli"
    reference = "cli"
    tail_pct = 98
    min_ops = 500
    carriers = ("m3",)

    def __init__(self):
        with open(os.path.join(FIXTURES, "cli_cases.json"), encoding="utf-8") as fh:
            self.cases = json.load(fh)
        self.tiers = tuple(sorted({c["tier"] for c in self.cases}))

    def rounds(self, seed):
        # the fixtures are fixed; the seed only permutes their order
        rng = gen.rng_for(self.name, seed)
        order = list(range(len(self.cases)))
        rng.shuffle(order)
        while True:
            yield [Item("cli", self.cases[i]["tier"], {"case": i}) for i in order]

    def prepare(self, pamscan, ctx, item):
        case = self.cases[item.data["case"]]
        out_dir = ctx["out_dir"]
        svg = os.path.join(out_dir, "case%d.svg" % item.data["case"])
        argv = [
            a.replace("{pam}", os.path.join(FIXTURES, "m3.pam")).replace("{svg}", svg)
            for a in case["argv"]
        ]
        if case.get("svg"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(svg)
        return argv, svg

    def run(self, pamscan, ctx, prepared):
        argv, _ = prepared
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pamscan.cli.main(argv)
        return rc, out.getvalue(), err.getvalue(), prepared[1]

    def check(self, item, out):
        case = self.cases[item.data["case"]]
        rc, stdout, stderr, svg = out
        if rc != case["rc"]:
            return "wrong: exit %s, expected %s (%s)" % (rc, case["rc"], stderr.strip())
        if stdout != case["stdout"]:
            return "wrong: stdout %r, expected %r" % (stdout, case["stdout"])
        if case.get("svg"):
            # every repeat must write the recorded bytes
            with open(svg, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != case["svg"]:
                return "wrong: svg bytes differ from the recorded ones (%s)" % digest
        return "ok"


WORKLOADS = {w.name: w for w in (Trace, Normalize, Dense, Cli)}

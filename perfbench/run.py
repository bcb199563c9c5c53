"""pamscan benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pamscan is imported from ``src/`` there.
With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped, and reports every time paced (pace.py).  With ``--trace 1`` it first runs the workload untraced for a
quarter of ``--seconds``, then wraps pamscan's public functions (see
tracer.py) and replays exactly the same operations, reporting per-layer
metrics and the tracing overhead.  Human-readable lines come first; the
last line of stdout is one JSON object with the metrics that BENCHMARK.json
names.  See NOTES.md for the design and spec.json for the workload record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_FIRST = 3  # set-up samples before the first round

from pace import NOMINAL_S, Pace  # noqa: E402
from tracer import GROUPS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Fail(Exception):
    """The benchmark cannot run here; reported on stderr, exit code 2."""


class Record:
    """One operation's outcome.  The input itself is not kept, so memory
    does not grow with the number of operations a run completes."""

    __slots__ = ("kind", "tier", "t0", "t1", "seconds", "status")

    def __init__(self, item, t0, t1, status):
        self.kind = item.kind
        self.tier = item.tier
        self.t0, self.t1 = t0, t1
        self.seconds = t1 - t0  # wall time; paced once the run has ended
        self.status = status

    @property
    def wrong(self):
        return self.status.startswith(("wrong", "error"))


def check_record(workload):
    """spec.json documents the workloads; refuse to run if it drifted."""
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        rec = json.load(fh)["workloads"][workload.name]
    mine = (list(workload.tiers), workload.tail_pct, list(workload.carriers))
    if mine != (rec["tiers"], rec["tail_pct"], rec["carriers"]):
        raise Fail("spec.json disagrees with the %s workload: %r" % (workload.name, mine))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise Fail("BENCHMARK.json not found at %s" % ROOT)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pamscan_modules():
    return {n: m for n, m in sys.modules.items() if n == "pamscan" or n.startswith("pamscan.")}


class Setup:
    """Times the workload's set-up: import pamscan, build its carriers.

    The first sample's modules and carriers are the ones the run uses.
    Later samples import pamscan afresh into sys.modules, time it, and
    put the live modules back, so they can be taken between rounds and
    spread over the run like every other figure.
    """

    def __init__(self, workload):
        if not os.path.isfile(os.path.join(SRC, "pamscan", "__init__.py")):
            raise Fail("no pamscan sources under %s" % SRC)
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.workload = workload
        self.spans = []  # (t0, t1) of each sample
        self.pamscan, self.ctx = self.sample()
        if not os.path.abspath(self.pamscan.__file__).startswith(SRC + os.sep):
            raise Fail("pamscan was imported from %s, not from %s" % (self.pamscan.__file__, SRC))

    def sample(self):
        live = _pamscan_modules()
        for name in live:
            del sys.modules[name]
        t0 = time.perf_counter()
        pamscan = importlib.import_module("pamscan")
        importlib.import_module("pamscan.cli")
        ctx = self.workload.setup(pamscan)
        self.spans.append((t0, time.perf_counter()))
        if live:
            for name in _pamscan_modules():
                del sys.modules[name]
            sys.modules.update(live)
        return pamscan, ctx



def run_items(workload, pamscan, ctx, items, records):
    """Run one round.  Before each operation the cyclic garbage collector
    collects and then freezes every live object (gc.freeze), untimed, so a
    collection inside the operation is one that its own allocations set
    off, and it scans only what was allocated since.  pamscan's garbage
    costs what it costs, but the benchmark's records and inputs are not
    scanned again and again, and what an earlier operation left does not
    decide when a later one is interrupted.  Once per round everything is
    unfrozen and collected, so cyclic garbage that was frozen while still
    alive (dense's carriers of the last round) does not pile up."""
    workload.new_round(pamscan, ctx)
    prepared = [workload.prepare(pamscan, ctx, it) for it in items]
    gc.unfreeze()
    clock = time.perf_counter
    for it, prep in zip(items, prepared):
        gc.collect()
        gc.freeze()
        t0 = clock()
        try:
            out = workload.run(pamscan, ctx, prep)
            err = None
        except Exception as e:  # an unexpected error is a failed operation
            err = e
        t1 = clock()
        if err is not None:
            status = "error: %s: %s" % (type(err).__name__, err)
        else:
            status = workload.check(it, out)
        records.append(Record(it, t0, t1, status))


class Measured:
    """Records of a measured stretch, the sha256 prefix of its inputs, its
    round count, and (when asked to keep them) the rounds for a replay."""

    def __init__(self, keep):
        self.records = []
        self.kept = [] if keep else None
        self.rounds = 0
        self._digest = hashlib.sha256()

    def add_round(self, items):
        self.rounds += 1
        for it in items:
            self._digest.update(repr((it.kind, it.tier, sorted(it.data.items()))).encode())
        if self.kept is not None:
            self.kept.append(items)

    @property
    def digest(self):
        return self._digest.hexdigest()[:16]


def measure(workload, pamscan, ctx, rounds, seconds, min_ops, between=None, keep=False):
    """Run whole rounds until the next one would overrun ``seconds``.

    ``between`` is called after a round at most every seconds/10, outside
    the operations' timing.
    """
    out = Measured(keep)
    start = last_between = time.perf_counter()
    for items in rounds:
        t_round = time.perf_counter()
        run_items(workload, pamscan, ctx, items, out.records)
        out.add_round(items)
        now = time.perf_counter()
        if len(out.records) >= min_ops and (now - start) + (now - t_round) > seconds:
            break
        if between is not None and now - last_between >= seconds / 10:
            between()
            last_between = time.perf_counter()
    return out


def percentile(sorted_values, pct):
    """Nearest-rank percentile; also returns how many samples lie beyond."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def scaling_exponent(by_tier):
    """Least-squares slope of log median time against log tier size."""
    pts = [(math.log(t), math.log(statistics.median(v))) for t, v in by_tier.items() if t is not None]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def end_to_end(workload, records, setup_s):
    lat = sorted(r.seconds for r in records)
    tail, beyond = percentile(lat, workload.tail_pct)
    by_tier = {}
    for r in records:
        by_tier.setdefault(r.tier, []).append(r.seconds)
    n = len(records)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "largest_input_s": (statistics.median(by_tier[max(workload.tiers)]), "s"),
        "scaling_exponent": (scaling_exponent(by_tier), "1"),
        "error_rate": (sum(r.wrong for r in records) / n, "1"),
        "undecided_rate": (sum(r.status == "undecided" for r in records) / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = "n=%d tail=p%d (%d samples beyond); tier medians ms: %s" % (
        n, workload.tail_pct, beyond,
        " ".join("%s:%.1f(%d)" % (t, statistics.median(v) * 1e3, len(v))
                 for t, v in sorted(by_tier.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))))
    return values, notes


def layer_metrics(tracer, traced_s, untraced_s):
    """Every per-layer metric this benchmark can report, by name."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    names = set(tracer.stats) | set(GROUPS)
    for name in names:
        st = tracer.group(name)
        put(name + ".calls", st.calls, "count")
        put(name + ".self_s", st.self_time / 1e9, "s")
        put(name + ".errors", st.errors, "count")
    st = tracer.stat("labeled.restrict")
    put("labeled.restrict.kept_ratio", _ratio(st.extra.get("kept", 0), st.extra.get("scanned", 0)), "ratio")
    segments = tracer.stat("scanning.alpha_trace").extra.get("segments", 0)
    put("scanning.scan_core.per_segment", _ratio(tracer.stat("scanning.scan_core").calls, segments), "ratio")
    st = tracer.stat("labeled.labeled_normalize")
    put("labeled.labeled_normalize.mean_input_pieces", _ratio(st.extra.get("input_pieces", 0), st.calls), "count")
    st = tracer.stat("pam.sum_tuple")
    put("pam.sum_tuple.max_arity", st.extra.get("max_arity", 0), "count")
    put("pam.sum_tuple.distinct_key_ratio", _ratio(len(st.extra.get("keys", ())), st.calls), "ratio")
    st = tracer.stat("labeled.decompose_window")
    put("labeled.decompose_window.valid_matchings", st.extra.get("valid_matchings", 0), "count")
    put("labeled.config_eq.unknown", tracer.stat("labeled.config_eq").extra.get("unknown", 0), "count")
    put("trace.overhead", traced_s - untraced_s, "s")
    put("trace.overhead_share", _ratio(traced_s - untraced_s, untraced_s), "ratio")
    put("trace.spans", len(tracer.spans) + tracer.dropped, "count")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def emit(spec_metrics, values, correct, records):
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise Fail("metric %s is not produced by this run" % m["name"])
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise Fail("metric %s has unit %s here, %s in BENCHMARK.json" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.wrong for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))


def report_failures(label, records, limit=5):
    bad = [r for r in records if r.wrong]
    for r in bad[:limit]:
        print("%s failure [%s tier=%s]: %s" % (label, r.kind, r.tier, r.status[:300]))
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    workload = WORKLOADS[args.workload]()
    check_record(workload)
    if args.trace:
        return run_traced(spec, workload, args)

    pace = Pace(workload.reference)
    with pace:
        setup, probe = start(workload, args.seed)
        pamscan, ctx = setup.pamscan, setup.ctx
        run = measure(workload, pamscan, ctx, workload.rounds(args.seed), args.seconds,
                      workload.min_ops, setup.sample)
        setup.sample()
    records = run.records
    for r in records:
        r.seconds = pace.paced(r.t0, r.t1)
    probed = []
    run_items(workload, pamscan, ctx, probe, probed)
    values, notes = end_to_end(workload, records, statistics.median(pace.paced(*sp) for sp in setup.spans))
    print("inputs sha256/16 %s, %d rounds, %d set-up samples; %s"
          % (run.digest, run.rounds, len(setup.spans), notes))
    ref = sorted(pace.times)
    print("paced: the times below are at a reference-loop (%s) time of %.3f ms; here it took "
          "%.3f ms median, %.3f-%.3f ms middle half, over %d samples"
          % (workload.reference, NOMINAL_S * 1e3, statistics.median(ref) * 1e3, percentile(ref, 25)[0] * 1e3,
             percentile(ref, 75)[0] * 1e3, len(ref)))
    print("wall clock: latency p50 %.4g ms, set-up %.4g s"
          % (statistics.median(r.t1 - r.t0 for r in records) * 1e3,
             statistics.median(t1 - t0 for t0, t1 in setup.spans)))
    for name, (value, unit) in values.items():
        print("  %-18s %14.6g %s" % (name, value, unit))
    bad = report_failures("timed", records)
    if probe:
        # inputs past the 8-summand cap of FinitePam.sum_tuple: a known
        # defect, run outside the timed loop and reported here
        wrong = [r for r in probed if r.wrong]
        over = all(r.tier > 8 for r in wrong)
        print("  probe (>8 labels): %d of %d wrong; error_rate over timed+probe %.4f; "
              "every failure has >8 labels: %s"
              % (len(wrong), len(probed), (len(bad) + len(wrong)) / (len(records) + len(probed)), over))
    emit(spec["end_to_end"], values, not bad, records)
    return 0


def start(workload, seed):
    """Set-up samples before the first round, the output directory, and
    the workload's probe inputs."""
    setup = Setup(workload)
    for _ in range(SETUP_FIRST - 1):
        setup.sample()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup.ctx["out_dir"] = OUT_DIR
    print("workload %s seed %d: pamscan %s from %s"
          % (workload.name, seed, setup.pamscan.__version__, os.path.relpath(SRC, ROOT)))
    return setup, workload.probe(seed)


def run_traced(spec, workload, args):
    """--trace 1: untraced rounds, then the same operations traced."""
    setup, probe = start(workload, args.seed)
    pamscan, ctx = setup.pamscan, setup.ctx
    budget = args.seconds / 4
    run = measure(workload, pamscan, ctx, workload.rounds(args.seed), budget, 1, keep=True)
    records = run.records
    probed = []
    run_items(workload, pamscan, ctx, probe, probed)
    untraced_s = sum(r.seconds for r in records + probed)

    tracer = Tracer()
    tracer.install(pamscan)
    ctx.update(workload.setup(pamscan))
    traced, traced_probe = [], []
    for items in run.kept:
        run_items(workload, pamscan, ctx, items, traced)
    run_items(workload, pamscan, ctx, probe, traced_probe)
    traced_s = sum(r.seconds for r in traced + traced_probe)
    tracer.uninstall()

    values = layer_metrics(tracer, traced_s, untraced_s)
    print("traced %d operations: %.3f s traced vs %.3f s untraced" % (len(traced), traced_s, untraced_s))
    total_self = sum(st.self_time for st in tracer.stats.values()) or 1
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)[:12]
    for name, st in top:
        print("  %-36s self %8.4f s  %5.1f%%  calls %d" % (name, st.self_time / 1e9, 100 * st.self_time / total_self, st.calls))
    spans_path = os.path.join(OUT_DIR, "spans-%s.tsv" % workload.name)
    tracer.write_spans(spans_path)
    print("spans written to %s" % os.path.relpath(spans_path, ROOT))
    bad = report_failures("traced", traced)
    emit(spec["per_layer"], values, not bad, traced)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fail as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)

"""Per-layer tracing by wrapping pamscan's public functions from outside.

``install`` replaces every public function of the traced modules (and the
two FinitePam methods that carry the carrier work) with a wrapper that
records a span: name, parent span, start and end.  Self time is computed as
the span's duration minus the time covered by its direct children.  Every
module attribute bound to a wrapped function is patched, so calls through
``from .labeled import restrict`` in scanning or fibers are traced too.

Spans are kept in memory (up to ``max_spans``) and written out at the end;
per-name totals are kept for all of them.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("pam", "intervals", "tensor", "labeled", "scanning", "fibers", "dsl", "cli", "svg")

# Layer names that sum several functions: the parsers, the printers and the
# SVG renderers.
GROUPS = {
    "dsl.parse": lambda name: name.startswith("dsl.parse_"),
    "dsl.fmt": lambda name: name.startswith("dsl.fmt_"),
    "svg.render": lambda name: name.startswith("svg.") and name.endswith("_svg"),
}


class Stats:
    __slots__ = ("calls", "self_time", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.errors = 0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def peak(self, key, value):
        if value > self.extra.get(key, 0):
            self.extra[key] = value


def _observe_restrict(st, args, kwargs, result):
    st.add("scanned", len(args[0]))
    st.add("kept", len(result))


def _observe_normalize(st, args, kwargs, result):
    st.add("input_pieces", len(args[0]))


def _observe_sum_tuple(st, args, kwargs, result):
    elems = tuple(args[1])
    st.peak("max_arity", len(elems))
    keys = st.extra.setdefault("keys", set())
    keys.add((id(args[0]), tuple(sorted(elems))))


def _observe_decompose(st, args, kwargs, result):
    st.add("valid_matchings", result.count)


def _observe_config_eq(st, args, kwargs, result):
    if result.value == "unknown":
        st.add("unknown", 1)


def _observe_trace(st, args, kwargs, result):
    st.add("segments", len(result.segments))


OBSERVERS = {
    "labeled.restrict": _observe_restrict,
    "labeled.labeled_normalize": _observe_normalize,
    "pam.sum_tuple": _observe_sum_tuple,
    "labeled.decompose_window": _observe_decompose,
    "labeled.config_eq": _observe_config_eq,
    "scanning.alpha_trace": _observe_trace,
}

# sum_tuple's argument list is observed before the call so that an
# exception (the 8-summand cap) still records the attempted arity.
PRE_OBSERVERS = {"pam.sum_tuple"}


class Tracer:
    def __init__(self, max_spans=200_000):
        self.stats = {}
        self.max_spans = max_spans
        self.spans = []  # (id, parent, name, start_ns, end_ns)
        self.dropped = 0
        self._stack = []  # [span id, child time]
        self._next_id = 1
        self._patched = []  # (owner, attr, original)

    def wrap(self, name, fn):
        st = self.stats.setdefault(name, Stats())
        observe = OBSERVERS.get(name)
        pre = name in PRE_OBSERVERS
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            if pre:
                observe(st, args, kwargs, None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.calls += 1
                st.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < tracer.max_spans:
                    spans.append((sid, parent, name, start, end))
                else:
                    tracer.dropped += 1
            if observe is not None and not pre:
                observe(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package):
        """Wrap the public functions of each traced module of ``package``."""
        originals = {}
        for short in MODULES:
            mod = sys.modules[package.__name__ + "." + short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                originals[obj] = "%s.%s" % (short, attr)
        pam_cls = sys.modules[package.__name__ + ".pam"].FinitePam
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        for meth, name in (("__init__", "pam.FinitePam"), ("sum_tuple", "pam.sum_tuple")):
            fn = vars(pam_cls)[meth]
            self._patched.append((pam_cls, meth, fn))
            setattr(pam_cls, meth, self.wrap(name, fn))
        # rebind every module attribute that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package.__name__ or modname.startswith(package.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def stat(self, name):
        return self.stats.get(name) or Stats()

    def group(self, name):
        """Stats of a layer name, summing the members of a group name."""
        match = GROUPS.get(name)
        if match is None:
            return self.stat(name)
        out = Stats()
        for member, st in self.stats.items():
            if match(member):
                out.calls += st.calls
                out.self_time += st.self_time
                out.errors += st.errors
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write("%d\t%d\t%s\t%d\t%d\n" % (sid, parent, name, start, end))
            if self.dropped:
                fh.write("# %d further spans counted but not kept\n" % self.dropped)

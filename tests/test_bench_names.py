"""The benchmark's per-layer names exist in the library it traces.

``perfbench/run.py --trace 1`` wraps every public function of pamscan's
modules and reports ``<layer>.calls`` for each layer that BENCHMARK.json
names; a name that is neither a wrapped function nor a group of them makes
the run exit 2 ("metric ... is not produced by this run").  So removing or
renaming a public function that the benchmark traces fails here first.
"""

import importlib.util
import json
import os

import pamscan
import pamscan.cli
import pamscan.scanning

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    layers = [m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")]
    assert layers
    tracing = _load_tracer()
    original = pamscan.scanning.alpha_trace
    tracer = tracing.Tracer()
    tracer.install(pamscan)
    try:
        missing = [name for name in layers if name not in tracer.stats and name not in tracing.GROUPS]
    finally:
        tracer.uninstall()
    assert pamscan.scanning.alpha_trace is original
    assert missing == []

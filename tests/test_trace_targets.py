"""The benchmark's trace targets still name library functions.

`perfbench/layers.py` wraps functions by their "module:attr" names from
outside the library; a refactor that renames or stops importing one drops
its per-layer metrics from a traced run without failing it.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return layers, tracer


def test_every_span_has_a_resolvable_target(perfbench):
    layers, tracer = perfbench
    spans = {p.span for p in layers.PATCHES}
    resolved = {p.span for p in layers.PATCHES if tracer._resolve(p.target) is not None}
    assert spans - resolved == set()


def test_benchmark_per_layer_names_match_the_tracer(perfbench):
    layers, _ = perfbench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    traced = [metric for metric, *_ in layers.PER_LAYER]
    assert [m["name"] for m in declared] == traced + [
        "trace.coverage", "trace.overhead_ratio", "trace.ops"]

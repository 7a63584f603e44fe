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


def test_oracle_draws_every_grid_point_from_the_traced_generator(perfbench, monkeypatch):
    """The benchmark counts optimizer.oracle_grid_points on the rows the
    traced generator yields: the oracle must draw every grid point under
    its cap from it, in one call, or the per-layer metric reads 0.  At
    D = 4 that is the whole grid."""
    import math
    from fractions import Fraction

    from wpir import optimizer
    from wpir.leakage import build_query_table, download_cost_form
    from wpir.schemes import SchemeKind, make_scheme

    layers, tracer = perfbench
    (patch,) = [p for p in layers.PATCHES if "optimizer.oracle_grid_points" in p.feeds]
    owner, attr = tracer._resolve(patch.target)
    assert owner is optimizer
    real, calls, rows = getattr(owner, attr), [], []

    def counting(*args):
        calls.append(args)
        for chunk in real(*args):
            rows.append(len(chunk))
            yield chunk

    monkeypatch.setattr(owner, attr, counting)
    table = build_query_table(make_scheme(SchemeKind.OLR, 2, 3, 2), 1)
    assert table.alphabet_size == 6
    cost = download_cost_form((table,))
    optimizer.brute_force_min_leakage(table, cost, 4, step=Fraction(1, 30))
    assert len(calls) == 1
    assert sum(rows) == optimizer.grid_point_count(30, 6)
    cap = math.floor((2 - cost.constant) * cost.denominator * 30)
    feasible = sum(int((chunk @ cost.dense(6) <= cap).sum()) for chunk in real(30, 6))
    calls.clear()
    rows.clear()
    optimizer.brute_force_min_leakage(table, cost, 2, step=Fraction(1, 30))
    assert len(calls) == 1
    assert sum(rows) == feasible == 31

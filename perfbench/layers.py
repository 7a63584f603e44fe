"""Where the tracer wraps the library, and the per-layer metrics it yields.

Each target is the name a caller looks up at call time: `cli` calls
`make_scheme` through `wpir.cli`, `build_query_table` calls
`time_shared_query` through `wpir.leakage`, and so on.  Busy times and
counts are per operation of the workload (one CLI frontier, one retrieval,
one oracle pass of five targets); a span that only runs during set-up is per set-up.
Gauges (sizes) are the largest value seen.
"""
from __future__ import annotations

from tracer import Patch


def _gauge(gauges, key, value) -> None:
    gauges[key] = max(gauges.get(key, 0), value)


def _alphabet(c, g, args, kwargs, inst):
    _gauge(g, "schemes.alphabet_size", inst.alphabet.size)


def _queries(c, g, args, kwargs, table):
    _gauge(g, "leakage.queries", len(table.queries))


def _point(c, g, args, kwargs, point):
    c["optimizer.points"] += 1
    c["optimizer.points_infeasible"] += point is None


def _lp_size(c, g, args, kwargs):
    a_ub, a_eq = kwargs["A_ub"], kwargs["A_eq"]
    _gauge(g, "optimizer.lp_rows", a_ub.shape[0] + a_eq.shape[0])
    _gauge(g, "optimizer.lp_nnz", a_ub.nnz + a_eq.nnz)


def _lp_iterations(c, g, args, kwargs, res):
    c["optimizer.highs_iterations"] += res.nit


def _grid_chunk(c, g, chunk):
    c["optimizer.oracle_grid_points"] += len(chunk)


def _unknowns(c, g, args, kwargs):
    _gauge(g, "fields.unknowns", args[0].cols)


def _bytes_up(c, g, args, kwargs, frame):
    c["protocol.bytes_up"] += len(frame)


def _bytes_down(c, g, args, kwargs, frame):
    c["protocol.bytes_down"] += len(frame)


def _transcript(c, g, args, kwargs, tr):
    c["protocol.symbols_downloaded"] += tr.downloaded
    c["protocol.decode_failures"] += not tr.success


PATCHES = (
    # entry points the workloads call
    Patch("wpir.cli:main", "cli.cmd_tradeoff"),
    Patch("wpir.protocol:run_retrieval", "protocol.run_retrieval", after=_transcript,
          feeds=("protocol.symbols_downloaded", "protocol.decode_failures")),
    Patch("wpir.optimizer:brute_force_min_leakage", "optimizer.oracle"),
    # set-up steps, as the workloads and the CLI reach them
    Patch("wpir.schemes:make_scheme", "schemes.make_scheme", after=_alphabet,
          feeds=("schemes.alphabet_size",)),
    Patch("wpir.cli:make_scheme", "schemes.make_scheme", after=_alphabet,
          feeds=("schemes.alphabet_size",)),
    Patch("wpir.mds:make_rs_code", "mds.make_rs_code"),
    Patch("wpir.storage:encode_storage", "storage.encode_storage"),
    Patch("wpir.leakage:build_all_tables", "leakage.build_all_tables"),
    Patch("wpir.cli:build_all_tables", "leakage.build_all_tables"),
    Patch("wpir.leakage:download_cost_form", "leakage.download_cost_form"),
    Patch("wpir.cli:download_cost_form", "leakage.download_cost_form"),
    # analysis pipeline
    Patch("wpir.leakage:build_query_table", "leakage.build_query_table", after=_queries,
          feeds=("leakage.queries",)),
    Patch("wpir.leakage:time_shared_query", "schemes.time_shared_query"),
    Patch("wpir.cli:solve_tradeoff_point", "optimizer.solve_tradeoff_point", after=_point,
          feeds=("optimizer.points", "optimizer.points_infeasible")),
    Patch("wpir.optimizer:reformulate", "optimizer.reformulate"),
    Patch("wpir.optimizer:linprog", "optimizer.highs", before=_lp_size, after=_lp_iterations,
          feeds=("optimizer.lp_rows", "optimizer.lp_nnz", "optimizer.highs_iterations")),
    Patch("wpir.optimizer:maxl", "leakage.maxl"),
    Patch("wpir.optimizer:_composition_chunks", "optimizer.oracle_compositions",
          each=_grid_chunk, generator=True, feeds=("optimizer.oracle_grid_points",)),
    # retrieval pipeline
    Patch("wpir.protocol:time_shared_query", "schemes.time_shared_query"),
    Patch("wpir.protocol:encode_query_frame", "protocol.encode_query_frame",
          after=_bytes_up, feeds=("protocol.bytes_up",)),
    Patch("wpir.protocol:ServerNode.handle", "protocol.server_handle",
          after=_bytes_down, feeds=("protocol.bytes_down",)),
    Patch("wpir.protocol:decode_answer_frame", "protocol.decode_answer_frame"),
    Patch("wpir.protocol:decode", "protocol.decode"),
    Patch("wpir.protocol:solve_linear", "fields.solve_linear", before=_unknowns,
          feeds=("fields.unknowns",)),
)

# (metric, unit, kind, key): kind "busy" is a span's inclusive
# time, "self" its time minus traced children, "calls" its call count;
# "count" and "gauge" read what the hooks record under key.
PER_LAYER = (
    ("schemes.make_scheme_s", "s", "busy", "schemes.make_scheme"),
    ("schemes.alphabet_size", "count", "gauge", "schemes.alphabet_size"),
    ("schemes.time_shared_query.calls", "count", "calls", "schemes.time_shared_query"),
    ("schemes.time_shared_query_s", "s", "busy", "schemes.time_shared_query"),
    ("leakage.build_all_tables_s", "s", "busy", "leakage.build_all_tables"),
    ("leakage.build_query_table.calls", "count", "calls", "leakage.build_query_table"),
    ("leakage.build_query_table_self_s", "s", "self", "leakage.build_query_table"),
    ("leakage.queries", "count", "gauge", "leakage.queries"),
    ("leakage.download_cost_form_s", "s", "busy", "leakage.download_cost_form"),
    ("leakage.maxl.calls", "count", "calls", "leakage.maxl"),
    ("leakage.maxl_s", "s", "busy", "leakage.maxl"),
    ("optimizer.reformulate.calls", "count", "calls", "optimizer.reformulate"),
    ("optimizer.reformulate_s", "s", "busy", "optimizer.reformulate"),
    ("optimizer.highs.calls", "count", "calls", "optimizer.highs"),
    ("optimizer.highs_s", "s", "busy", "optimizer.highs"),
    ("optimizer.highs_iterations", "count", "count", "optimizer.highs_iterations"),
    ("optimizer.lp_rows", "count", "gauge", "optimizer.lp_rows"),
    ("optimizer.lp_nnz", "count", "gauge", "optimizer.lp_nnz"),
    ("optimizer.solve_tradeoff_point_self_s", "s", "self", "optimizer.solve_tradeoff_point"),
    ("optimizer.points", "count", "count", "optimizer.points"),
    ("optimizer.points_infeasible", "count", "count", "optimizer.points_infeasible"),
    ("optimizer.oracle_grid_points", "count", "count", "optimizer.oracle_grid_points"),
    ("optimizer.oracle_s", "s", "busy", "optimizer.oracle"),
    ("optimizer.oracle_compositions_s", "s", "busy", "optimizer.oracle_compositions"),
    ("optimizer.oracle_self_s", "s", "self", "optimizer.oracle"),
    ("fields.solve_linear.calls", "count", "calls", "fields.solve_linear"),
    ("fields.solve_linear_s", "s", "busy", "fields.solve_linear"),
    ("fields.unknowns", "count", "gauge", "fields.unknowns"),
    ("mds.make_rs_code_s", "s", "busy", "mds.make_rs_code"),
    ("storage.encode_storage_s", "s", "busy", "storage.encode_storage"),
    ("protocol.encode_query_frame_s", "s", "busy", "protocol.encode_query_frame"),
    ("protocol.server_handle_s", "s", "busy", "protocol.server_handle"),
    ("protocol.decode_answer_frame_s", "s", "busy", "protocol.decode_answer_frame"),
    ("protocol.decode_self_s", "s", "self", "protocol.decode"),
    ("protocol.run_retrieval_self_s", "s", "self", "protocol.run_retrieval"),
    ("protocol.bytes_up", "bytes", "count", "protocol.bytes_up"),
    ("protocol.bytes_down", "bytes", "count", "protocol.bytes_down"),
    ("protocol.symbols_downloaded", "count", "count", "protocol.symbols_downloaded"),
    ("protocol.decode_failures", "count", "count", "protocol.decode_failures"),
    ("cli.cmd_tradeoff_self_s", "s", "self", "cli.cmd_tradeoff"),
)

_SPAN_KINDS = ("busy", "self", "calls")


def _feeding_span(key: str):
    return next((p.span for p in PATCHES if key in p.feeds), None)


def _read(phase, kind: str, key: str):
    table = {"busy": phase.busy, "self": phase.own, "calls": phase.calls,
             "count": phase.counters}[kind]
    return table.get(key, 0)


def per_layer_metrics(tracer, setup, n_setups: int, ops, n_ops: int) -> dict:
    """Per-layer values; a metric whose target is gone is left out."""
    out = {}
    for metric, unit, kind, key in PER_LAYER:
        span = key if kind in _SPAN_KINDS else _feeding_span(key)
        if span not in tracer.installed_spans or key in tracer.broken:
            continue
        if kind == "gauge":
            value = max(ops.gauges.get(key, 0), setup.gauges.get(key, 0))
        else:
            op_val, setup_val = _read(ops, kind, key), _read(setup, kind, key)
            value = op_val / n_ops if op_val else setup_val / n_setups if setup_val else 0
        out[metric] = {"value": value, "unit": unit}
    return out

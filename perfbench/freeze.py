#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs every run is checked against.

    python3 perfbench/freeze.py

The file was written from the seed library.  Rewrite it only for a change
that is meant to alter an output, and say which one and why.
"""
from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wpir  # noqa: E402
from wpir import cli  # noqa: E402
from workloads import (  # noqa: E402
    ENDPOINTS_ARGV, FRONTIER_ARGV, GATE_SEED, ORACLE_STEP, ORACLE_TARGETS,
    RETRIEVE_INSTANCE, Retrieve, build_oracle, oracle_result,
)


def frontier_csv(argv) -> dict:
    buf = io.StringIO()
    if cli.main(list(argv), stdout=buf) != 0:
        raise SystemExit(f"wpir {' '.join(argv)} failed")
    return {"csv": buf.getvalue()}


def retrieve() -> dict:
    wl = Retrieve({}, GATE_SEED, "")
    wl.setup(0)
    transcripts = wl.gate_transcripts()
    if not all(tr.success for tr in transcripts):
        raise SystemExit("a gate retrieval failed")
    return {
        "instance": list(RETRIEVE_INSTANCE),
        "success": True,
        "gate_downloaded": sum(tr.downloaded for tr in transcripts),
    }


def oracle() -> dict:
    table, cost = build_oracle(0)
    return {
        str(d): oracle_result(*wpir.brute_force_min_leakage(table, cost, d, step=ORACLE_STEP))
        for d in ORACLE_TARGETS
    }


def main() -> None:
    reference = {
        "frontier": frontier_csv(FRONTIER_ARGV),
        "endpoints-wide": frontier_csv(ENDPOINTS_ARGV),
        "retrieve": retrieve(),
        "oracle": oracle(),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

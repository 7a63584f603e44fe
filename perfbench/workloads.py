"""The four workloads.  Each runs in this process, on this thread, as a
closed loop: one operation starts when the previous one returns.

A workload gives the runner three things: timed set-up samples, a gate of
untimed checks against frozen outputs (which also warms the caches), and
operations, each checked against frozen outputs.  See README.md for why
each workload exists and which layers it loads.
"""
from __future__ import annotations

import gc
import importlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

# set-up is timed in CPU seconds, like the operations (see run.py)
_clock = time.process_time
HERE = os.path.dirname(os.path.abspath(__file__))

FRONTIER_ARGV = ("tradeoff", "--scheme", "zyqt", "--files", "4", "--servers", "3",
                 "--dim", "2", "--grid", "10")
ENDPOINTS_ARGV = ("tradeoff", "--scheme", "zyqt", "--files", "2", "--servers", "5",
                  "--dim", "3", "--grid", "2")
RETRIEVE_INSTANCE = ("ztsl", 8, 7, 4)  # scheme, M, N, K
GATE_SEED = 0
GATE_TRIPLES = 32
ORACLE_INSTANCE = ("olr", 2, 3, 2)
ORACLE_STEP = Fraction(1, 50)
ORACLE_TARGETS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4))

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import wpir; print(time.process_time() - t)"
)
_BUILD_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "print(workloads.timed_build(int(sys.argv[3])))"
)


def _probe(code: str, *args) -> float:
    """Run one timing probe in a fresh interpreter; it prints seconds."""
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=120, check=True, env=os.environ.copy(),
    )
    return float(out.stdout.strip().splitlines()[-1])


def draw_triples(seed: int, m_files: int, size: int, n_servers: int):
    """Endless (m, s_index, t) stream, uniform over the scheme's range."""
    rng = random.Random(seed)
    while True:
        yield (rng.randrange(1, m_files + 1), rng.randrange(size),
               rng.randrange(1, n_servers + 1))


def oracle_result(bits: float, z) -> dict:
    return {"bits": repr(bits), "z": [str(v) for v in z]}


class CliFrontier:
    """One `wpir tradeoff` call, in process, with its CSV captured."""

    overhead_ops = 1
    setup_repeats = 3
    repeats_are_setups = False
    collect_between_ops = True
    gate_checks = 0

    def __init__(self, argv, reference: dict, seed: int, src: str):
        self.argv = list(argv)
        self.reference = reference
        self.src = src
        self.cli = importlib.import_module("wpir.cli")

    def setup(self, samples: int) -> list[float]:
        """`import wpir` in fresh interpreters; this process has already
        imported it, so it cannot time its own import again."""
        return [_probe(_IMPORT_PROBE, self.src) for _ in range(samples)]

    def gate(self) -> list[str]:
        return []

    def op(self, i: int):
        buf = io.StringIO()
        rc = self.cli.main(list(self.argv), stdout=buf)
        if rc != 0:
            return f"wpir tradeoff exited {rc}"
        if buf.getvalue() != self.reference["csv"]:
            return "CSV differs from the frozen reference"
        return None


class Retrieve:
    """Sampled retrievals on ztsl (8,7,4) over shared in-process channels."""

    overhead_ops = 40
    setup_repeats = 3
    repeats_are_setups = True
    # the repetition is the set-up; a full collection per retrieval would
    # walk the whole alphabet
    collect_between_ops = False
    gate_checks = GATE_TRIPLES + 1

    def __init__(self, reference: dict, seed: int, src: str):
        self.reference = reference
        self.seed = seed
        self.src = src
        self.protocol = importlib.import_module("wpir.protocol")
        self.state = None
        self.triples: list = []
        self._stream = None

    def setup(self, samples: int) -> list[float]:
        """All samples but the last build the state in a fresh interpreter;
        the last is this process's own first build, which inherits no other
        build's heap either.  A traced run (no samples) builds untimed."""
        times = [_probe(_BUILD_PROBE, self.src, HERE, self.seed)
                 for _ in range(samples - 1)]
        t0 = _clock()
        self.state = build_retrieval(self.seed)
        if samples:
            times.append(_clock() - t0)
        inst = self.state[0]
        self._stream = draw_triples(self.seed, inst.m_files, inst.alphabet.size, inst.n_servers)
        return times

    def _retrieve(self, triple):
        inst, storage, channels = self.state
        return self.protocol.run_retrieval(inst, storage, *triple, channels=channels)

    def gate_transcripts(self) -> list:
        """The first GATE_TRIPLES retrievals of the default seed's stream."""
        inst = self.state[0]
        stream = draw_triples(GATE_SEED, inst.m_files, inst.alphabet.size, inst.n_servers)
        return [self._retrieve(t) for _, t in zip(range(GATE_TRIPLES), stream)]

    def gate(self) -> list[str]:
        """The gate retrievals all decode, and their total download
        matches the frozen count."""
        transcripts = self.gate_transcripts()
        failures = [
            f"gate retrieval {(tr.m, tr.s_index, tr.shift_t)} failed: {tr.reason}"
            for tr in transcripts if not tr.success
        ]
        downloaded = sum(tr.downloaded for tr in transcripts)
        if downloaded != self.reference["gate_downloaded"]:
            failures.append(
                f"gate downloaded {downloaded} symbols, frozen "
                f"{self.reference['gate_downloaded']}"
            )
        return failures

    def op(self, i: int):
        while len(self.triples) <= i:
            self.triples.append(next(self._stream))
        tr = self._retrieve(self.triples[i])
        if tr.success != self.reference["success"]:
            return f"retrieval {self.triples[i]}: success={tr.success} {tr.reason}"
        return None


def _dispatch(node, frame: bytes) -> bytes:
    return type(node).handle(node, frame)


def build_retrieval(seed: int):
    """Scheme, code, files, encoded storage and one channel per server."""
    w = importlib.import_module("wpir")
    kind, m_files, n_servers, dim = RETRIEVE_INSTANCE
    inst = w.schemes.make_scheme(kind, m_files, n_servers, dim)
    fld = w.fields.PrimeField(w.fields.smallest_prime_at_least(n_servers))
    code = w.mds.make_rs_code(n_servers, dim, fld)
    files = w.storage.FileSet.random(m_files, inst.params.lam, dim, fld, seed=seed)
    storage = w.storage.encode_storage(files, code)
    # look `handle` up per call, so a wrapper installed later sees it
    channels = [partial(_dispatch, w.protocol.ServerNode(inst, storage, j))
                for j in range(1, n_servers + 1)]
    return inst, storage, channels


def build_oracle(seed: int):
    """Scheme, tables and cost form; the oracle reads server 1's table."""
    w = importlib.import_module("wpir")
    inst = w.schemes.make_scheme(*ORACLE_INSTANCE)
    tables = w.leakage.build_all_tables(inst)
    return tables[0], w.leakage.download_cost_form(tables)


def timed_build(seed: int) -> float:
    """CPU seconds of one cold `retrieve` set-up, after `import wpir`."""
    importlib.import_module("wpir")
    t0 = _clock()
    build_retrieval(seed)
    return _clock() - t0


class Oracle:
    """`brute_force_min_leakage` on olr (2,3,2): one op is a pass over the
    five targets, whose times differ by up to a third, so a run's ops stay
    alike."""

    overhead_ops = 1
    setup_repeats = 15
    setup_pause_s = 0.2
    repeats_are_setups = False
    collect_between_ops = True
    gate_checks = 0

    def __init__(self, reference: dict, seed: int, src: str):
        self.reference = reference
        self.seed = seed
        self.src = src
        self.optimizer = importlib.import_module("wpir.optimizer")
        self.state = None

    def setup(self, samples: int) -> list[float]:
        """In-process builds, each after a collection and a pause, so that
        it starts with cold caches and the samples span several seconds of
        the host's speed.  The build takes about 3 ms: in a fresh
        interpreter its time is mostly the interpreter's own warm-up, which
        spread from 2 to 5 ms from one interpreter to the next.  The last
        build is kept."""
        times = []
        for _ in range(samples):
            self.state = None
            gc.collect()
            time.sleep(self.setup_pause_s)
            t0 = _clock()
            self.state = build_oracle(self.seed)
            times.append(_clock() - t0)
        if self.state is None:
            self.state = build_oracle(self.seed)
        return times

    def gate(self) -> list[str]:
        return []

    def op(self, i: int):
        table, cost = self.state
        wrong = []
        for target in ORACLE_TARGETS:
            bits, z = self.optimizer.brute_force_min_leakage(table, cost, target, step=ORACLE_STEP)
            if oracle_result(bits, z) != self.reference[str(target)]:
                wrong.append(f"D={target} gave {bits!r} {z}")
        return f"oracle differs from the frozen reference at {'; '.join(wrong)}" if wrong else None


WORKLOADS = {
    "frontier": partial(CliFrontier, FRONTIER_ARGV),
    "endpoints-wide": partial(CliFrontier, ENDPOINTS_ARGV),
    "retrieve": Retrieve,
    "oracle": Oracle,
}

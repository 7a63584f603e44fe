"""End-to-end retrieval harness: wire frames, servers, decoder, verifier.

Every message on the wire is a 4-byte big-endian payload length followed
by the payload.  A query frame carries [version][scheme kind][server j]
and the k x M query entries row-major, one byte each; an answer frame
carries [server j][count] and the transmitted sub-responses as 2-byte
big-endian field elements.  Servers sum over `schemes.answer_positions`;
the client solves the system those positions define over every message
symbol of every file, and demands that the desired file's symbols be
uniquely determined.  Over TCP a whole frame must arrive within
SOCKET_TIMEOUT_S, and each connection is served on its own thread.
"""
from __future__ import annotations

import json
import logging
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldMatrix, solve_linear
from .leakage import ResourceLimitError, key_answer_lengths, key_rows, number_keys
from .schemes import (
    QueryMatrix,
    SchemeInstance,
    SchemeKind,
    answer,
    answer_length,
    answer_positions,
    cyclic_shift,
    time_shared_query,
)
from .storage import EncodedStorage, server_column

PROTOCOL_VERSION = 1
_KIND_CODES = {SchemeKind.ZYQT: 1, SchemeKind.ZTSL: 2, SchemeKind.OLR: 3}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
# largest number of (m, s, t) transcripts run by exhaustive verification
DEFAULT_VERIFY_GUARD = 100_000
# server indices travel as one byte
MAX_SERVERS = 255
# seconds a TCP peer has to deliver a whole frame
SOCKET_TIMEOUT_S = 10.0

_log = logging.getLogger(__name__)


class ProtocolError(ValueError):
    """A malformed, truncated, or mislabeled wire frame."""


class DecodeFailure(Exception):
    """The answers do not determine the desired file."""


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def split_frame(data: bytes) -> tuple[bytes, bytes]:
    """Split one length-prefixed frame off the front of data."""
    if len(data) < 4:
        raise ProtocolError(f"frame header needs 4 bytes, got {len(data)}")
    (length,) = struct.unpack(">I", data[:4])
    if len(data) < 4 + length:
        raise ProtocolError(
            f"frame payload truncated: header says {length}, got {len(data) - 4}"
        )
    return data[4 : 4 + length], data[4 + length :]


def _check_byte(what: str, value: int) -> None:
    if not 0 <= value <= 255:
        raise ProtocolError(f"{what} {value} does not fit one byte")


def encode_query_frame(kind: SchemeKind, j: int, q: QueryMatrix) -> bytes:
    _check_byte("server index", j)
    entries = [e for row in q.rows for e in row]
    if any(not 0 <= e <= 255 for e in entries):
        raise ProtocolError("query entries must fit one byte")
    payload = bytes([PROTOCOL_VERSION, _KIND_CODES[SchemeKind(kind)], j, *entries])
    return _frame(payload)


def decode_query_frame(data: bytes, k: int, m_files: int):
    """Parse a query frame into (kind, server j, QueryMatrix, rest)."""
    payload, rest = split_frame(data)
    if len(payload) != 3 + k * m_files:
        raise ProtocolError(
            f"query payload is {len(payload)} bytes, expected {3 + k * m_files}"
        )
    version, kind_code, j = payload[0], payload[1], payload[2]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if kind_code not in _CODE_KINDS:
        raise ProtocolError(f"unknown scheme code {kind_code}")
    return _CODE_KINDS[kind_code], j, QueryMatrix.from_bytes(payload[3:], m_files), rest


def encode_answer_frame(j: int, values) -> bytes:
    _check_byte("server index", j)
    _check_byte("answer count", len(values))
    symbols = [int(v) for v in values]
    if any(not 0 <= v <= 0xFFFF for v in symbols):
        raise ProtocolError("answer symbols must fit two bytes")
    return _frame(struct.pack(f">BB{len(symbols)}H", j, len(symbols), *symbols))


def decode_answer_frame(data: bytes):
    """Parse an answer frame into (server j, value tuple, rest)."""
    payload, rest = split_frame(data)
    if len(payload) < 2:
        raise ProtocolError("answer payload needs at least 2 bytes")
    j, count = payload[0], payload[1]
    if len(payload) != 2 + 2 * count:
        raise ProtocolError(
            f"answer payload is {len(payload)} bytes, expected {2 + 2 * count}"
        )
    values = struct.unpack(f">{count}H", payload[2:])
    return j, values, rest


class ServerNode:
    """One stateless server: answers query frames from its residue column."""

    def __init__(self, inst: SchemeInstance, storage: EncodedStorage, j: int):
        self.inst = inst
        self.j = j
        self.column = server_column(storage, j)
        self.params = storage.params

    def handle(self, frame: bytes) -> bytes:
        kind, j, q, rest = decode_query_frame(
            frame, self.params.k, self.inst.m_files
        )
        if rest:
            raise ProtocolError("trailing bytes after query frame")
        if kind is not self.inst.kind:
            raise ProtocolError(f"scheme {kind} does not match server {self.inst.kind}")
        if j != self.j:
            raise ProtocolError(f"frame for server {j} reached server {self.j}")
        if any(e >= self.params.n for row in q.rows for e in row):
            raise ProtocolError(f"query entries must lie in [0:{self.params.n - 1}]")
        return encode_answer_frame(self.j, answer(q, self.column, self.params))


def decode(queries, answers, code, params, m: int, m_files: int) -> FieldMatrix:
    """Solve for the desired file from per-server queries and answers.

    Each received sub-response gives one equation over all M*lam*K
    message symbols; dummy rows contribute nothing.  The desired file's
    symbols must come out uniquely determined.
    """
    lam, dim = params.lam, code.dim
    gen = code.generator.residues
    positions, servers, rhs = [], [], []
    for j, (q, values) in enumerate(zip(queries, answers), start=1):
        pos = answer_positions(q, params)
        if len(pos) != len(values):
            raise ProtocolError(
                f"server {j} sent {len(values)} symbols, query needs {len(pos)}"
            )
        positions.append(pos)
        servers += [j - 1] * len(pos)
        rhs.extend(values)
    if not rhs:
        raise DecodeFailure("no sub-responses were transmitted")
    # one row per sub-response; each queried data row (row < lam) of file
    # mm gets server j's generator column over that row's K unknowns (a
    # sub-response reads one row per file, so no two writes overlap)
    mm, row = np.divmod(np.concatenate(positions), params.n)
    eq, read = np.nonzero(row < lam)
    first_var = (mm[eq, read] * lam + row[eq, read]) * dim
    sender = np.array(servers)[eq]
    system = np.zeros((len(rhs), m_files * lam * dim), dtype=np.int64)
    system[eq[:, None], first_var[:, None] + np.arange(dim)] = gen[:, sender].T
    res = solve_linear(FieldMatrix.from_ints(system, code.field), rhs)
    if not res.is_feasible:
        raise DecodeFailure("answers are inconsistent with the queries")
    first, last = (m - 1) * lam * dim, m * lam * dim
    undetermined = np.flatnonzero(~np.array(res.determined[first:last]))
    if undetermined.size:
        i, c = divmod(int(undetermined[0]), dim)
        raise DecodeFailure(
            f"symbol ({i},{c}) of file {m} is not uniquely determined"
        )
    return FieldMatrix.from_ints(
        np.array(res.solution[first:last]).reshape(lam, dim), code.field
    )


@dataclass(frozen=True)
class RetrievalTranscript:
    m: int
    s_index: int
    shift_t: int
    queries: tuple[QueryMatrix, ...]
    answers: tuple[tuple[int, ...], ...]
    decoded: FieldMatrix | None
    success: bool
    reason: str
    downloaded: int

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "s_index": self.s_index,
                "t": self.shift_t,
                "queries": [[list(r) for r in q.rows] for q in self.queries],
                "answers": [list(a) for a in self.answers],
                "decoded": None if self.decoded is None else self.decoded.to_ints(),
                "success": self.success,
                "reason": self.reason,
                "downloaded": self.downloaded,
            },
            separators=(",", ":"),
        )


def in_process_channels(inst: SchemeInstance, storage: EncodedStorage):
    """One frame->frame callable per server, dispatching in this process."""
    nodes = [ServerNode(inst, storage, j) for j in range(1, inst.n_servers + 1)]
    return [node.handle for node in nodes]


def run_retrieval(
    inst: SchemeInstance,
    storage: EncodedStorage,
    m: int,
    s_index: int,
    t: int,
    channels=None,
) -> RetrievalTranscript:
    """One full retrieval: query all servers, decode, compare ground truth."""
    if not 0 <= s_index < inst.alphabet.size:
        raise ValueError(f"strategy index {s_index} outside [0:{inst.alphabet.size - 1}]")
    if channels is None:
        channels = in_process_channels(inst, storage)
    s = inst.alphabet.array[s_index]
    queries, answers = [], []
    for j in range(1, inst.n_servers + 1):
        q = time_shared_query(inst, m, s, t, j)
        reply = channels[j - 1](encode_query_frame(inst.kind, j, q))
        jj, values, rest = decode_answer_frame(reply)
        if rest:
            raise ProtocolError("trailing bytes after answer frame")
        if jj != j:
            raise ProtocolError(f"answer labeled {jj} arrived from server {j}")
        if len(values) != answer_length(q, storage.params):
            raise ProtocolError(
                f"server {j} sent {len(values)} symbols, "
                f"expected {answer_length(q, storage.params)}"
            )
        queries.append(q)
        answers.append(values)
    decoded, success, reason = None, False, ""
    try:
        decoded = decode(
            queries, answers, storage.code, storage.params, m, inst.m_files
        )
        if decoded == storage.file_set.file(m):
            success = True
        else:
            reason = "decoded file differs from stored file"
    except DecodeFailure as exc:
        reason = str(exc)
    return RetrievalTranscript(
        m=m,
        s_index=s_index,
        shift_t=t,
        queries=tuple(queries),
        answers=tuple(answers),
        decoded=decoded,
        success=success,
        reason=reason,
        downloaded=sum(len(a) for a in answers),
    )


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    seed: int | None
    total: int
    failures: tuple
    total_downloaded: int

    @property
    def all_ok(self) -> bool:
        return not self.failures

    @property
    def mean_downloaded(self) -> float:
        return self.total_downloaded / self.total if self.total else 0.0


def verify_retrievability(
    inst: SchemeInstance,
    storage: EncodedStorage,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Run retrievals over all (or sampled) (m, s, t) and report failures.

    Exhaustive mode refuses more than DEFAULT_VERIFY_GUARD transcripts
    (read at call time)."""
    channels = in_process_channels(inst, storage)
    size = inst.alphabet.size
    if mode == "exhaustive":
        total = inst.m_files * size * inst.n_servers
        if total > DEFAULT_VERIFY_GUARD:
            raise ResourceLimitError(
                f"exhaustive verification needs {total} transcripts, "
                f"budget {DEFAULT_VERIFY_GUARD}"
            )
        triples = (
            (m, si, t)
            for m in range(1, inst.m_files + 1)
            for si in range(size)
            for t in range(1, inst.n_servers + 1)
        )
        used_seed = None
    elif mode == "sampled":
        rng = random.Random(seed)
        triples = (
            (
                rng.randrange(1, inst.m_files + 1),
                rng.randrange(size),
                rng.randrange(1, inst.n_servers + 1),
            )
            for _ in range(samples)
        )
        used_seed = seed
    else:
        raise ValueError(f"unknown mode {mode!r}")
    failures = []
    total = 0
    downloaded = 0
    for m, si, t in triples:
        tr = run_retrieval(inst, storage, m, si, t, channels=channels)
        total += 1
        downloaded += tr.downloaded
        if not tr.success:
            failures.append((m, si, t, tr.reason))
    return VerificationReport(
        mode=mode,
        seed=used_seed,
        total=total,
        failures=tuple(failures),
        total_downloaded=downloaded,
    )


@dataclass
class SimulationStats:
    """Empirical download and per-server query frequencies for one z."""

    count: int
    seed: int
    total_downloaded: int
    query_counts: dict = field(default_factory=dict)

    @property
    def mean_downloaded(self) -> float:
        return self.total_downloaded / self.count


def simulate_downloads(
    inst: SchemeInstance, z, count: int, seed: int
) -> SimulationStats:
    """Sample (s ~ z, t uniform, m uniform) query streams without decoding.

    Each server's queries are built as key rows, one `key_rows` call per
    drawn (m, t), and counted per distinct key with the table's numbering
    (number_keys); only distinct queries become QueryMatrix objects.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    weights = [float(v) for v in z]
    if len(weights) != inst.alphabet.size:
        raise ValueError("PMF length does not match the alphabet")
    rng = random.Random(seed)
    s_indices = rng.choices(range(inst.alphabet.size), weights=weights, k=count)
    drawn: dict[tuple[int, int], list[int]] = {}
    for si in s_indices:
        m_t = rng.randrange(1, inst.m_files + 1), rng.randrange(1, inst.n_servers + 1)
        drawn.setdefault(m_t, []).append(si)
    stats = SimulationStats(count=count, seed=seed, total_downloaded=0)
    for j in range(1, inst.n_servers + 1):
        rows = np.concatenate([
            key_rows(inst, m, inst.alphabet.array[members].astype(np.int64),
                     cyclic_shift(j, t - 1, inst.n_servers))
            for (m, t), members in drawn.items()])
        inverse, first = number_keys(rows, inst.params.n)
        keys, tally = rows[first], np.bincount(inverse)
        stats.total_downloaded += int(tally @ key_answer_lengths(keys, inst.params))
        stats.query_counts[j] = {QueryMatrix.from_bytes(key.tobytes(), inst.m_files): c
                                 for key, c in zip(keys, tally.tolist())}
    return stats


def _recv_exact(conn: socket.socket, nbytes: int, deadline: float) -> bytes:
    buf = b""
    while len(buf) < nbytes:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no whole frame within {SOCKET_TIMEOUT_S:g} s")
        conn.settimeout(left)
        chunk = conn.recv(nbytes - len(buf))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        buf += chunk
    return buf


def _recv_frame(conn: socket.socket) -> bytes:
    """One whole frame, which must arrive within SOCKET_TIMEOUT_S."""
    deadline = time.monotonic() + SOCKET_TIMEOUT_S
    header = _recv_exact(conn, 4, deadline)
    (length,) = struct.unpack(">I", header)
    return header + _recv_exact(conn, length, deadline)


class TcpServer:
    """Loopback TCP wrapper around one ServerNode, one frame per connection,
    each connection served on its own thread."""

    def __init__(self, node: ServerNode):
        self.node = node
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.address = self.sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket):
        with conn:
            try:
                conn.sendall(self.node.handle(_recv_frame(conn)))
            except ProtocolError as exc:
                _log.warning("server %d rejected a frame: %s", self.node.j, exc)
            except OSError as exc:  # a reset, a timeout, a closed peer
                _log.warning("server %d dropped a connection: %s", self.node.j, exc)

    def close(self):
        self.sock.close()


def tcp_channel(address):
    """A frame->frame callable that talks to a TcpServer at address."""

    def send(frame: bytes) -> bytes:
        with socket.create_connection(address, timeout=SOCKET_TIMEOUT_S) as conn:
            conn.sendall(frame)
            return _recv_frame(conn)

    return send

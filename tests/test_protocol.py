"""Tests for wire frames, servers, the generic decoder, and verification."""
import hashlib
import json
import logging
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, strategies as st

from wpir.fields import PrimeField, smallest_prime_at_least
from wpir.leakage import ResourceLimitError, build_query_table, uniform_pmf
from wpir.mds import make_rs_code
from wpir.protocol import (
    DecodeFailure,
    ProtocolError,
    ServerNode,
    TcpServer,
    decode,
    decode_answer_frame,
    decode_query_frame,
    encode_answer_frame,
    encode_query_frame,
    in_process_channels,
    run_retrieval,
    simulate_downloads,
    split_frame,
    tcp_channel,
    time_shared_query,
    verify_retrievability,
)
from wpir.schemes import QueryMatrix, SchemeKind, answer_length, make_scheme
from wpir.storage import FileSet, encode_storage

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def qm(*rows):
    return QueryMatrix(tuple(tuple(r) for r in rows))


def build(kind, m_files=2, n_servers=3, dim=2, q=3, seed=17, zeros=False):
    inst = make_scheme(kind, m_files, n_servers, dim)
    fld = PrimeField(q)
    code = make_rs_code(n_servers, dim, fld)
    lam = inst.params.lam
    if zeros:
        fs = FileSet.zeros(m_files, lam, dim, fld)
    else:
        fs = FileSet.random(m_files, lam, dim, fld, seed=seed)
    return inst, encode_storage(fs, code)


@given(
    k=st.integers(1, 4),
    m_files=st.integers(1, 4),
    j=st.integers(0, 255),
    kind=st.sampled_from(list(SchemeKind)),
    data=st.data(),
)
def test_query_frame_round_trip(k, m_files, j, kind, data):
    rows = tuple(
        tuple(data.draw(st.integers(0, 255)) for _ in range(m_files))
        for _ in range(k)
    )
    frame = encode_query_frame(kind, j, QueryMatrix(rows))
    kind2, j2, q2, rest = decode_query_frame(frame, k, m_files)
    assert (kind2, j2, q2.rows, rest) == (kind, j, rows, b"")


@given(j=st.integers(0, 255), values=st.lists(st.integers(0, 65535), max_size=20))
def test_answer_frame_round_trip(j, values):
    frame = encode_answer_frame(j, values)
    j2, values2, rest = decode_answer_frame(frame)
    assert (j2, list(values2), rest) == (j, values, b"")


def test_truncated_frames_rejected():
    frame = encode_query_frame(SchemeKind.ZTSL, 1, qm((0, 0), (1, 1)))
    for cut in (0, 3, len(frame) - 1):
        with pytest.raises(ProtocolError):
            split_frame(frame[:cut])
    with pytest.raises(ProtocolError):
        decode_query_frame(frame, k=3, m_files=2)  # wrong shape for payload
    bad = encode_answer_frame(1, [5])[:-1]
    with pytest.raises(ProtocolError):
        decode_answer_frame(bad)


def test_server_rejects_bad_frames():
    inst, storage = build(SchemeKind.ZTSL)
    node = ServerNode(inst, storage, 2)
    good = encode_query_frame(SchemeKind.ZTSL, 2, qm((0, 0), (1, 1)))
    node.handle(good)
    with pytest.raises(ProtocolError):
        node.handle(encode_query_frame(SchemeKind.ZTSL, 1, qm((0, 0), (1, 1))))
    with pytest.raises(ProtocolError):
        node.handle(encode_query_frame(SchemeKind.OLR, 2, qm((0, 0), (1, 1))))
    with pytest.raises(ProtocolError):
        node.handle(encode_query_frame(SchemeKind.ZTSL, 2, qm((0, 0), (1, 7))))
    with pytest.raises(ProtocolError):
        node.handle(good + b"xx")


def test_server_is_stateless():
    inst, storage = build(SchemeKind.OLR)
    node = ServerNode(inst, storage, 1)
    frame = encode_query_frame(SchemeKind.OLR, 1, qm((0, 0), (2, 1)))
    assert node.handle(frame) == node.handle(frame)


def test_retrieval_zero_files():
    inst, storage = build(SchemeKind.ZTSL, zeros=True)
    tr = run_retrieval(inst, storage, 1, 0, 1)
    assert tr.success
    assert all(v == 0 for row in tr.decoded.to_ints() for v in row)


def test_ztsl_decode_lengths_1_1_2():
    """m=1, s=(0,0), t=1: per-server answer lengths are (1,1,2)."""
    inst, storage = build(SchemeKind.ZTSL, seed=23)
    tr = run_retrieval(inst, storage, 1, 0, 1)
    assert tr.success
    assert tuple(len(a) for a in tr.answers) == (1, 1, 2)
    assert tr.downloaded == 4
    assert tr.decoded == storage.file_set.file(1)


def test_olr_232_exhaustive_36():
    inst, storage = build(SchemeKind.OLR, seed=29)
    report = verify_retrievability(inst, storage, mode="exhaustive")
    assert report.total == 2 * 6 * 3 == 36
    assert report.all_ok


def test_gcd_case_retrieves():
    inst, storage = build(SchemeKind.ZYQT, n_servers=4, dim=2, q=5, seed=31)
    report = verify_retrievability(inst, storage, mode="exhaustive")
    assert report.total == 2 * 4 * 4
    assert report.all_ok


def test_downloads_match_table_lengths():
    """Transcript download counts agree with the tabulated lengths."""
    inst, storage = build(SchemeKind.ZTSL, seed=37)
    table = build_query_table(inst, 1)
    for si in range(3):
        for m in (1, 2):
            for t in (1, 2, 3):
                tr = run_retrieval(inst, storage, m, si, t)
                expect = sum(
                    table.length(
                        time_shared_query(inst, m, inst.alphabet.members[si], t, j)
                    )
                    for j in range(1, 4)
                )
                assert tr.downloaded == expect


def test_tampered_symbol_detected():
    inst, storage = build(SchemeKind.OLR, n_servers=5, dim=3, q=5, seed=41)

    def tamper(j, reply):
        if j != 1:
            return reply
        jj, values, _ = decode_answer_frame(reply)
        assert values, "pick a server with a nonempty answer"
        return encode_answer_frame(jj, ((values[0] + 1) % 5,) + values[1:])

    clean = run_retrieval(inst, storage, 1, 0, 1)
    assert clean.success
    tampered = run_retrieval(inst, storage, 1, 0, 1, tamper=tamper)
    assert not tampered.success
    assert tampered.reason


def test_truncating_tamper_raises_protocol_error():
    inst, storage = build(SchemeKind.ZTSL, seed=43)
    with pytest.raises(ProtocolError):
        run_retrieval(inst, storage, 1, 0, 1, tamper=lambda j, r: r[:-1])


def test_decode_reports_underdetermined():
    """Dropping a whole server's equations leaves the file undetermined."""
    inst, storage = build(SchemeKind.ZTSL, seed=47)
    s = inst.alphabet.members[0]
    queries = [time_shared_query(inst, 1, s, 1, j) for j in (1, 2, 3)]
    from wpir.schemes import answer as scheme_answer
    from wpir.storage import server_column

    answers = [
        tuple(
            v
            for v in scheme_answer(q, server_column(storage, j), storage.params)
        )
        for j, q in enumerate(queries, start=1)
    ]
    with pytest.raises(DecodeFailure):
        decode(queries[:2], answers[:2], storage.code, storage.params, 1, 2)


def test_verify_sampled_reproducible():
    inst, storage = build(SchemeKind.ZYQT, seed=53)
    r1 = verify_retrievability(inst, storage, mode="sampled", samples=40, seed=7)
    r2 = verify_retrievability(inst, storage, mode="sampled", samples=40, seed=7)
    assert r1 == r2
    assert r1.seed == 7 and r1.total == 40 and r1.all_ok
    with pytest.raises(ValueError):
        verify_retrievability(inst, storage, mode="bogus")


def test_verify_guard():
    inst, storage = build(SchemeKind.ZYQT, seed=59)
    with pytest.raises(ResourceLimitError):
        verify_retrievability(inst, storage, mode="exhaustive", guard=10)


def test_simulate_downloads_counts():
    inst, storage = build(SchemeKind.ZTSL, seed=61)
    stats = simulate_downloads(inst, uniform_pmf(3), count=2000, seed=99)
    assert stats.count == 2000
    # D(uniform) = 10/3 for this instance
    assert stats.mean_downloaded == pytest.approx(10 / 3, rel=0.05)
    for j in (1, 2, 3):
        assert sum(stats.query_counts[j].values()) == 2000
    again = simulate_downloads(inst, uniform_pmf(3), count=2000, seed=99)
    assert again.total_downloaded == stats.total_downloaded


def test_transcript_jsonl_round_trip():
    inst, storage = build(SchemeKind.OLR, seed=67)
    trs = [run_retrieval(inst, storage, m, 0, 1) for m in (1, 2)]
    lines = [tr.to_json_line() for tr in trs]
    assert all("\n" not in line for line in lines)  # one JSONL line each
    rec = json.loads(lines[0])
    assert rec["success"] is True
    assert rec["m"] == 1
    assert rec["downloaded"] == trs[0].downloaded


def test_tcp_transport_parity():
    inst, storage = build(SchemeKind.ZTSL, seed=71)
    nodes = [ServerNode(inst, storage, j) for j in (1, 2, 3)]
    servers = [TcpServer(n) for n in nodes]
    try:
        channels = [tcp_channel(srv.address) for srv in servers]
        tcp_tr = run_retrieval(inst, storage, 2, 1, 3, channels=channels)
        mem_tr = run_retrieval(inst, storage, 2, 1, 3)
        assert tcp_tr == mem_tr
        assert tcp_tr.success
    finally:
        for srv in servers:
            srv.close()


@given(
    j=st.integers(0, 255),
    values=st.lists(st.integers(0, 65535), max_size=255),
)
def test_answer_frame_round_trip_full_range(j, values):
    frame = encode_answer_frame(j, values)
    assert len(frame) == 4 + 2 + 2 * len(values)
    j2, values2, rest = decode_answer_frame(frame)
    assert (j2, list(values2), rest) == (j, values, b"")


@pytest.mark.parametrize(
    "j, values",
    [
        (1, [65536]),
        (1, [-1]),
        (1, [3, 70000, 4]),
        (1, [0] * 256),
        (256, [1]),
        (-1, [1]),
    ],
)
def test_answer_frame_rejects_out_of_range(j, values):
    with pytest.raises(ProtocolError):
        encode_answer_frame(j, values)


@pytest.mark.parametrize("j", [256, 1000, -1])
def test_query_frame_rejects_out_of_range_server(j):
    with pytest.raises(ProtocolError):
        encode_query_frame(SchemeKind.ZTSL, j, qm((0, 0), (1, 1)))


def test_answer_frame_bytes_unchanged():
    """In-range frames keep the 4-byte length, [j][count], 2-byte symbols."""
    assert encode_answer_frame(3, [1, 65535]) == bytes.fromhex("00000006" "0302" "0001" "ffff")
    assert encode_answer_frame(0, []) == bytes.fromhex("00000002" "0000")


def test_tcp_server_logs_rejected_frame(caplog):
    inst, storage = build(SchemeKind.ZTSL, seed=73)
    srv = TcpServer(ServerNode(inst, storage, 1))
    try:
        with caplog.at_level(logging.WARNING, logger="wpir.protocol"):
            with socket.create_connection(srv.address, timeout=10) as conn:
                conn.sendall(b"\x00\x00\x00\x10abc")  # header promises 16 bytes
                conn.shutdown(socket.SHUT_WR)
                # the server logs before it closes the connection unanswered
                assert conn.recv(1) == b""
    finally:
        srv.close()
    messages = [r.getMessage() for r in caplog.records
                if r.name == "wpir.protocol" and r.levelno == logging.WARNING]
    assert messages == ["server 1 rejected a frame: connection closed mid-frame"]


# SHA-256 over every query frame, answer frame and JSON transcript of the
# seeded retrievals in _wire_digest, and the DecodeFailure messages of
# decodes that lack one server; wire bytes must not drift.
WIRE_SHA256 = "d2175e7f44a57713bd5ba3be5af869ed15788c17155dc74f17f988651ee50fb0"
WIRE_INSTANCES = (("ztsl", 8, 7, 4), ("olr", 3, 5, 3), ("zyqt", 2, 4, 2), ("ztsl", 2, 3, 2))


def _wire_digest(per_instance=60):
    h = hashlib.sha256()

    def recording(node):
        def channel(frame):
            reply = node.handle(frame)
            h.update(frame)
            h.update(reply)
            return reply
        return channel

    for kind, m_files, n_servers, dim in WIRE_INSTANCES:
        inst = make_scheme(kind, m_files, n_servers, dim)
        fld = PrimeField(smallest_prime_at_least(n_servers))
        code = make_rs_code(n_servers, dim, fld)
        files = FileSet.random(m_files, inst.params.lam, dim, fld, seed=n_servers)
        storage = encode_storage(files, code)
        channels = [recording(ServerNode(inst, storage, j)) for j in range(1, n_servers + 1)]
        rng = random.Random(f"{kind}{m_files}{n_servers}{dim}")
        for i in range(per_instance):
            m = rng.randrange(1, m_files + 1)
            si = rng.randrange(inst.alphabet.size)
            t = rng.randrange(1, n_servers + 1)
            tamper = None
            if i % 4 == 3:
                bad = rng.randrange(1, n_servers + 1)

                def tamper(j, reply, bad=bad):
                    jj, values, _ = decode_answer_frame(reply)
                    if j != bad or not values:
                        return reply
                    return encode_answer_frame(jj, ((values[0] + 1) % fld.q,) + values[1:])
            tr = run_retrieval(inst, storage, m, si, t, channels=channels, tamper=tamper)
            h.update(tr.to_json_line().encode())
            h.update(b"\n")
            if i % 4 == 1:
                # drop the last server: the decoder must name what it lacks
                try:
                    got = decode(tr.queries[:-1], tr.answers[:-1], code, storage.params,
                                 m, m_files)
                    h.update(repr(got.to_ints()).encode())
                except DecodeFailure as exc:
                    h.update(str(exc).encode())
    return h.hexdigest()


def test_wire_bytes_and_transcripts_pinned():
    assert _wire_digest() == WIRE_SHA256


def _tcp_servers(inst, storage):
    return [TcpServer(ServerNode(inst, storage, j)) for j in range(1, inst.n_servers + 1)]


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "wpir.protocol" and r.levelno == logging.WARNING]


def test_tcp_server_survives_reset_peer(monkeypatch, caplog):
    """A peer that sends half a header and resets must not kill the server."""
    monkeypatch.setattr("wpir.protocol.SOCKET_TIMEOUT_S", 2.0)
    inst, storage = build(SchemeKind.ZTSL, seed=79)
    servers = _tcp_servers(inst, storage)
    try:
        with caplog.at_level(logging.WARNING, logger="wpir.protocol"):
            conn = socket.create_connection(servers[0].address, timeout=10)
            conn.sendall(b"\x00\x00")
            # linger 0: close sends a reset instead of a clean shutdown
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            channels = [tcp_channel(srv.address) for srv in servers]
            tr = run_retrieval(inst, storage, 1, 2, 2, channels=channels)
        assert tr.success
        assert servers[0]._thread.is_alive()
        assert any(msg.startswith("server 1 ") for msg in _warnings(caplog))
    finally:
        for srv in servers:
            srv.close()


def test_tcp_server_drops_silent_peer(monkeypatch, caplog):
    """A peer that connects and sends nothing is timed out, then the
    server answers the next client."""
    monkeypatch.setattr("wpir.protocol.SOCKET_TIMEOUT_S", 0.3)
    inst, storage = build(SchemeKind.ZTSL, seed=83)
    servers = _tcp_servers(inst, storage)
    try:
        with caplog.at_level(logging.WARNING, logger="wpir.protocol"):
            with socket.create_connection(servers[0].address, timeout=10):
                deadline = time.monotonic() + 10
                while not _warnings(caplog) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert _warnings(caplog) == ["server 1 dropped a connection: timed out"]
                channels = [tcp_channel(srv.address) for srv in servers]
                tr = run_retrieval(inst, storage, 2, 1, 3, channels=channels)
        assert tr.success
        assert servers[0]._thread.is_alive()
    finally:
        for srv in servers:
            srv.close()


def test_tcp_trickling_peer_blocks_no_other_client(monkeypatch, caplog):
    """A peer that sends one byte every 0.3 s never finishes its frame
    within the 0.5 s deadline: it is dropped, and meanwhile a well-formed
    retrieval over the same server decodes."""
    monkeypatch.setattr("wpir.protocol.SOCKET_TIMEOUT_S", 0.5)
    inst, storage = build(SchemeKind.ZTSL, seed=89)
    servers = _tcp_servers(inst, storage)
    stop = threading.Event()
    trickler = socket.create_connection(servers[0].address, timeout=10)

    def trickle():
        try:
            for byte in b"\x00\x00\x00\x10" + bytes(16):
                trickler.sendall(bytes([byte]))
                if stop.wait(0.3):
                    return
        except OSError:  # the server has dropped the connection
            pass

    sender = threading.Thread(target=trickle)
    sender.start()
    try:
        with caplog.at_level(logging.WARNING, logger="wpir.protocol"):
            time.sleep(0.1)
            channels = [tcp_channel(srv.address) for srv in servers]
            tr = run_retrieval(inst, storage, 1, 1, 2, channels=channels)
            # answered while the trickling connection was still held open
            assert not _warnings(caplog)
            deadline = time.monotonic() + 10
            while not _warnings(caplog) and time.monotonic() < deadline:
                time.sleep(0.05)
        assert tr.success
        assert [msg.split(":")[0] for msg in _warnings(caplog)] == [
            "server 1 dropped a connection"]
    finally:
        stop.set()
        sender.join(10)
        trickler.close()
        for srv in servers:
            srv.close()
    assert not sender.is_alive()

"""Residue-array storage, answers and decode systems against scalar
element-by-element implementations.

The `_reference_*` functions are per-entry Python loops on int residues,
kept here as oracles: the stacked columns, the server's answer sums and
the decoder's linear system must come out identical, on small fields and
on q = 65521, the largest prime whose residues fit the 2-byte wire.
"""
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpir import protocol
from wpir.fields import PrimeField
from wpir.mds import make_rs_code
from wpir.protocol import DecodeFailure, decode
from wpir.schemes import QueryMatrix, SchemeKind, answer, make_scheme, time_shared_query
from wpir.storage import FileSet, effective_params, encode_storage, server_column

BIG_Q = 65521

# (M, N, K, q): the benchmark's ztsl (8,7,4), olr (3,5,3), zyqt (2,4,2) and
# (3,4,2), and two instances on the largest field the wire carries
STORAGE_INSTANCES = (
    (8, 7, 4, 7),
    (3, 5, 3, 5),
    (2, 4, 2, 5),
    (3, 4, 2, 5),
    (2, 3, 2, BIG_Q),
    (3, 5, 3, BIG_Q),
)

# (kind, M, N, K, q) with alphabets small enough to build in a test
SCHEME_INSTANCES = (
    (SchemeKind.ZYQT, 2, 4, 2, 5),
    (SchemeKind.ZYQT, 3, 4, 2, 5),
    (SchemeKind.OLR, 3, 5, 3, 5),
    (SchemeKind.OLR, 2, 3, 2, BIG_Q),
    (SchemeKind.ZTSL, 2, 3, 2, 3),
    (SchemeKind.ZTSL, 3, 4, 2, 5),
    (SchemeKind.ZTSL, 2, 3, 2, BIG_Q),
)


def _reference_encode_row(code, w):
    """Codeword w @ G, one multiply-add mod q per entry."""
    q = code.field.q
    g = code.generator.to_ints()
    out = []
    for j in range(code.n_total):
        total = 0
        for i in range(code.dim):
            total = (total + w[i] * g[i][j]) % q
        out.append(total)
    return tuple(out)


def _reference_columns(file_set, code):
    """Per-server stacked columns as tuples of residues."""
    params = effective_params(code.n_total, code.dim)
    lam, k = params.lam, params.k
    encoded = [
        [_reference_encode_row(code, f.to_ints()[i]) for i in range(lam)]
        for f in file_set.files
    ]
    return tuple(
        tuple(
            encoded[m][i][j] if i < lam else 0
            for m in range(file_set.m_files)
            for i in range(lam + k)
        )
        for j in range(code.n_total)
    )


def _reference_answer(query, column, params, q):
    """Sum mod q of the symbols per transmitted row of a residue column."""
    n = params.n
    out = []
    for i, row in enumerate(query.rows):
        if min(row) >= params.lam:
            continue
        total = 0
        for m in range(1, query.m_cols + 1):
            total = (total + column[(m - 1) * n + query.entry(i, m)]) % q
        out.append(total)
    return tuple(out)


def _reference_decode_system(queries, code, params, m_files):
    """The decoder's system, built one sub-response and one file at a time."""
    lam, dim = params.lam, code.dim
    gen = code.generator.residues

    def var(mm, i, c):
        return ((mm - 1) * lam + i) * dim + c

    kept = [[i for i, row in enumerate(q.rows) if min(row) < lam] for q in queries]
    system = np.zeros((sum(map(len, kept)), m_files * lam * dim), dtype=np.int64)
    eq = 0
    for j, (q, rows) in enumerate(zip(queries, kept), start=1):
        col = gen[:, j - 1]
        for sub in rows:
            for mm, row_idx in enumerate(q.rows[sub], start=1):
                if row_idx < lam:
                    start = var(mm, row_idx, 0)
                    system[eq, start : start + dim] += col
            eq += 1
    return system


@lru_cache(maxsize=None)
def _code(n_servers, dim, q):
    return make_rs_code(n_servers, dim, PrimeField(q))


@lru_cache(maxsize=None)
def _scheme(kind, m_files, n_servers, dim):
    return make_scheme(kind, m_files, n_servers, dim)


def _storage(m_files, n_servers, dim, q, seed):
    code = _code(n_servers, dim, q)
    lam = effective_params(n_servers, dim).lam
    return encode_storage(FileSet.random(m_files, lam, dim, code.field, seed=seed), code)


def _random_query(draw, params, m_files):
    return QueryMatrix(tuple(
        tuple(draw(st.integers(0, params.n - 1)) for _ in range(m_files))
        for _ in range(params.k)
    ))


def _captured_system(queries, answers, storage, m, m_files):
    """The (matrix, rhs) that decode hands to solve_linear, or None when
    it raises before solving."""
    seen = []
    real = protocol.solve_linear

    def capture(a, b):
        seen.append((a, list(b)))
        return real(a, b)

    with mock.patch.object(protocol, "solve_linear", capture):
        try:
            decode(queries, answers, storage.code, storage.params, m, m_files)
        except DecodeFailure:
            pass
    return seen[0] if seen else None


def _check_decode_system(queries, storage, m, m_files):
    columns = [server_column(storage, j) for j in range(1, storage.n_servers + 1)]
    answers = [answer(q, c, storage.params) for q, c in zip(queries, columns)]
    got = _captured_system(queries, answers, storage, m, m_files)
    if not any(answers):
        assert got is None
        with pytest.raises(DecodeFailure, match="no sub-responses were transmitted"):
            decode(queries, answers, storage.code, storage.params, m, m_files)
        return
    matrix, rhs = got
    want = _reference_decode_system(queries, storage.code, storage.params, m_files)
    assert matrix.residues.dtype == want.dtype
    assert np.array_equal(matrix.residues, want)
    assert rhs == [v for a in answers for v in a]


@settings(max_examples=60, deadline=None)
@given(inst=st.sampled_from(STORAGE_INSTANCES), m_cut=st.integers(1, 8),
       seed=st.integers(0, 2**32))
def test_storage_matches_boxed_columns(inst, m_cut, seed):
    m_files, n_servers, dim, q = inst
    m_files = min(m_files, m_cut)
    storage = _storage(m_files, n_servers, dim, q, seed)
    ref = _reference_columns(storage.file_set, storage.code)
    n = storage.params.n
    assert storage.columns.residues.shape == (n_servers, m_files * n)
    assert not storage.columns.residues.flags.writeable
    for j in range(1, n_servers + 1):
        assert server_column(storage, j).to_ints() == [list(ref[j - 1])]
        for m in range(1, m_files + 1):
            for row in range(n):
                assert storage.symbol(m, row, j) == ref[j - 1][(m - 1) * n + row]


@settings(max_examples=150, deadline=None)
@given(inst=st.sampled_from(STORAGE_INSTANCES), seed=st.integers(0, 2**32),
       data=st.data())
def test_answer_matches_boxed_sum(inst, seed, data):
    m_files, n_servers, dim, q = inst
    storage = _storage(m_files, n_servers, dim, q, seed)
    ref = _reference_columns(storage.file_set, storage.code)
    for j in range(1, n_servers + 1):
        query = _random_query(data.draw, storage.params, m_files)
        got = answer(query, server_column(storage, j), storage.params)
        assert all(type(v) is int for v in got)
        assert got == _reference_answer(query, ref[j - 1], storage.params, q)


@settings(max_examples=150, deadline=None)
@given(inst=st.sampled_from(STORAGE_INSTANCES), seed=st.integers(0, 2**32),
       data=st.data())
def test_decode_system_matches_loop_built_on_random_queries(inst, seed, data):
    m_files, n_servers, dim, q = inst
    storage = _storage(m_files, n_servers, dim, q, seed)
    queries = [_random_query(data.draw, storage.params, m_files)
               for _ in range(n_servers)]
    m = data.draw(st.integers(1, m_files))
    _check_decode_system(queries, storage, m, m_files)


@settings(max_examples=150, deadline=None)
@given(inst=st.sampled_from(SCHEME_INSTANCES), seed=st.integers(0, 2**32),
       data=st.data())
def test_scheme_retrievals_match_references(inst, seed, data):
    """Time-shared queries of all three schemes: answers, decode system."""
    kind, m_files, n_servers, dim, q = inst
    scheme = _scheme(kind, m_files, n_servers, dim)
    storage = _storage(m_files, n_servers, dim, q, seed)
    ref = _reference_columns(storage.file_set, storage.code)
    m = data.draw(st.integers(1, m_files))
    s = scheme.alphabet.members[data.draw(st.integers(0, scheme.alphabet.size - 1))]
    t = data.draw(st.integers(1, n_servers))
    queries = [time_shared_query(scheme, m, s, t, j) for j in range(1, n_servers + 1)]
    for j, query in enumerate(queries, start=1):
        got = answer(query, server_column(storage, j), storage.params)
        assert got == _reference_answer(query, ref[j - 1], storage.params, q)
    _check_decode_system(queries, storage, m, m_files)


def test_queries_with_no_transmitted_rows():
    """ztsl (2,3,2): lam = 1, so rows reading only entries >= 1 stay silent."""
    storage = _storage(2, 3, 2, 3, seed=5)
    silent = QueryMatrix(((1, 1), (2, 2)))
    for j in (1, 2, 3):
        assert answer(silent, server_column(storage, j), storage.params) == ()
    _check_decode_system([silent] * 3, storage, 1, 2)
    # one talking server among silent ones still yields its equations
    talking = QueryMatrix(((0, 2), (1, 0)))
    _check_decode_system([silent, talking, silent], storage, 2, 2)

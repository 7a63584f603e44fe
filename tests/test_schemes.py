"""Tests for strategy alphabets, query encoders, answers, and time sharing."""
import math

import pytest

from wpir.fields import FieldMatrix, PrimeField
from wpir.mds import make_rs_code
from wpir.schemes import (
    PermSelector,
    QueryMatrix,
    SchemeKind,
    answer,
    answer_length,
    base_query,
    cyclic_shift,
    enumerate_pnk,
    enumerate_strategies,
    make_scheme,
    query_rows,
    strategy_array,
    time_shared_query,
    transmitted_rows,
    ztsl_size,
    zyqt_size,
)
from wpir.storage import FileSet, encode_storage, server_column

GF3 = PrimeField(3)


def sel(*entries):
    return PermSelector(tuple(entries))


def qm(*rows):
    return QueryMatrix(tuple(tuple(r) for r in rows))


def test_perm_selector_rejects_repeats():
    with pytest.raises(ValueError):
        sel(0, 0)


def test_enumerate_pnk_3_2():
    got = [tuple(p) for p in enumerate_pnk(3, 2)]
    assert got == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_enumerate_pnk_edges():
    assert [tuple(p) for p in enumerate_pnk(1, 1)] == [(0,)]
    assert len(enumerate_pnk(5, 3)) == 60
    with pytest.raises(ValueError):
        enumerate_pnk(2, 3)


def test_ztsl_alphabet_3_2():
    alpha = enumerate_strategies(SchemeKind.ZTSL, 3, 2, 2)
    assert alpha.members == ((0, 0), (1, 2), (2, 1))
    assert alpha.size == ztsl_size(3, 2) == 3


def test_zyqt_alphabet_sizes():
    alpha = enumerate_strategies(SchemeKind.ZYQT, 3, 2, 2)
    assert alpha.size == zyqt_size(3, 2, 2) == 36
    assert alpha.size == math.perm(3, 2) ** 2


def test_olr_alphabet_3_2_m2():
    alpha = enumerate_strategies(SchemeKind.OLR, 3, 2, 2)
    assert [tuple(s[0]) for s in alpha.members] == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_olr_alphabet_3_2_m3():
    alpha = enumerate_strategies(SchemeKind.OLR, 3, 2, 3)
    assert alpha.size == 18
    # implied third column must have distinct entries for every member
    for s1, s2 in alpha.members:
        implied = tuple((-(a + b)) % 3 for a, b in zip(s1, s2))
        assert len(set(implied)) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_strategies("xyz", 3, 2, 2)


def test_make_scheme_uses_effective_params():
    inst = make_scheme(SchemeKind.ZYQT, 2, 4, 2)
    assert (inst.params.n, inst.params.k) == (2, 1)
    assert inst.alphabet.n == 2 and inst.alphabet.k == 1


def test_query_zyqt_zero_shift_is_verbatim():
    inst = make_scheme(SchemeKind.ZYQT, 2, 3, 2)
    s = (sel(0, 1), sel(0, 2))
    q = base_query(inst, 1, s, 1)
    assert q.column(1) == (0, 1) and q.column(2) == (0, 2)


def test_query_zyqt_shifted_column():
    inst = make_scheme(SchemeKind.ZYQT, 2, 3, 2)
    s = (sel(0, 1), sel(0, 2))
    q = base_query(inst, 1, s, 2)
    assert q.column(1) == (1, 2) and q.column(2) == (0, 2)


def test_query_zyqt_columns_are_distinct_cyclic_shifts():
    inst = make_scheme(SchemeKind.ZYQT, 2, 3, 2)
    for s in inst.alphabet.members:
        for m in (1, 2):
            cols = {base_query(inst, m, s, j).column(m) for j in range(1, 4)}
            assert len(cols) == 3
            base = base_query(inst, m, s, 1).column(m)
            assert cols == {
                tuple((e + d) % 3 for e in base) for d in range(3)
            }


def test_query_ztsl_frozen_cases():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    assert base_query(inst, 1, (0, 0), 1) == qm((0, 0), (1, 1))
    assert base_query(inst, 2, (0, 0), 3) == qm((0, 2), (1, 0))


def test_query_ztsl_columns_consecutive():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    for s in inst.alphabet.members:
        for m in (1, 2):
            for j in (1, 2, 3):
                q = base_query(inst, m, s, j)
                for col in (q.column(1), q.column(2)):
                    assert col[1] == (col[0] + 1) % 3


def test_query_olr_frozen_cases():
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    assert base_query(inst, 1, (sel(0, 1),), 1) == qm((0, 0), (2, 1))
    assert base_query(inst, 2, (sel(0, 2),), 1) == qm((0, 0), (2, 1))


def test_query_olr_desired_column_in_pnk():
    inst = make_scheme(SchemeKind.OLR, 3, 3, 2)
    for s in inst.alphabet.members:
        for m in (1, 2, 3):
            for j in (1, 2, 3):
                q = base_query(inst, m, s, j)
                assert len(set(q.column(m))) == 2


def test_query_index_validation():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    with pytest.raises(ValueError):
        base_query(inst, 0, (0, 0), 1)
    with pytest.raises(ValueError):
        base_query(inst, 3, (0, 0), 1)
    with pytest.raises(ValueError):
        base_query(inst, 1, (0, 0), 4)


def _reference_columns(inst, m, s, j):
    """The k-entry file columns of server j's base query, one scalar at a time."""
    n, k = inst.params.n, inst.params.k
    if inst.kind is SchemeKind.ZTSL:
        base = [(v + (j - 1 if mm == m else 0)) % n for mm, v in enumerate(s, start=1)]
        return [tuple((v + i) % n for i in range(k)) for v in base]
    if inst.kind is SchemeKind.ZYQT:
        return [tuple((e + (j - 1 if mm == m else 0)) % n for e in sel)
                for mm, sel in enumerate(s, start=1)]
    cols = [tuple(sel) for sel in s]
    cols.insert(m - 1, tuple((j - 1 - sum(c[i] for c in cols)) % n for i in range(k)))
    return cols


@pytest.mark.parametrize("instance", [
    (SchemeKind.ZYQT, 3, 3, 2), (SchemeKind.ZYQT, 1, 5, 3), (SchemeKind.ZTSL, 3, 4, 2),
    (SchemeKind.ZTSL, 1, 3, 2), (SchemeKind.OLR, 3, 5, 3), (SchemeKind.OLR, 1, 4, 2),
])
def test_query_rows_match_scalar_reference(instance):
    """Every member's batched query equals the column-by-column definition."""
    inst = make_scheme(*instance)
    strategies = strategy_array(inst)
    for m in range(1, inst.m_files + 1):
        for j in range(1, inst.n_servers + 1):
            got = query_rows(inst, m, strategies, j).tolist()
            want = [[list(r) for r in zip(*_reference_columns(inst, m, s, j))]
                    for s in inst.alphabet.members]
            assert got == want


def test_answer_length_frozen_cases():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    p = inst.params
    assert answer_length(qm((1, 1), (2, 2)), p) == 0
    assert answer_length(qm((2, 0), (0, 1)), p) == 2
    assert answer_length(qm((2, 1), (1, 2)), p) == 0
    assert answer_length(qm((0, 0), (1, 1)), p) == 1


def test_answer_values_and_suppression():
    """q = (2 0 / 0 1): row 0 reads only file 2's data row, row 1 only file 1's."""
    code = make_rs_code(3, 2, GF3)
    fs = FileSet.random(2, 1, 2, GF3, seed=21)
    st = encode_storage(fs, code)
    q = qm((2, 0), (0, 1))
    for j in (1, 2, 3):
        got = answer(q, server_column(st, j), st.params)
        assert got == (st.symbol(2, 0, j), st.symbol(1, 0, j))


def test_answer_zero_storage():
    code = make_rs_code(3, 2, GF3)
    st = encode_storage(FileSet.zeros(2, 1, 2, GF3), code)
    got = answer(qm((0, 0), (1, 1)), server_column(st, 1), st.params)
    assert len(got) == 1 and got[0] == 0


def test_answer_matches_answer_length_everywhere():
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    code = make_rs_code(3, 2, GF3)
    st = encode_storage(FileSet.random(2, 1, 2, GF3, seed=3), code)
    for s in inst.alphabet.members:
        for m in (1, 2):
            for j in (1, 2, 3):
                q = base_query(inst, m, s, j)
                got = answer(q, server_column(st, j), st.params)
                assert len(got) == answer_length(q, st.params)
                assert transmitted_rows(q, st.params) == tuple(
                    i for i in range(2) if min(q.rows[i]) < 1
                )


def test_answer_shape_check():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    with pytest.raises(ValueError):
        answer(qm((0, 0), (1, 1)), FieldMatrix.from_ints([[0] * 5], GF3), inst.params)


def test_cyclic_shift_wraps():
    assert cyclic_shift(1, 0, 3) == 1
    assert cyclic_shift(3, 1, 3) == 1
    assert cyclic_shift(2, 2, 3) == 1


def test_time_shared_query_identity_and_wrap():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    s = (1, 2)
    for m in (1, 2):
        for j in (1, 2, 3):
            assert time_shared_query(inst, m, s, 1, j) == base_query(inst, m, s, j)
    assert time_shared_query(inst, 1, s, 2, 3) == base_query(inst, 1, s, 1)
    with pytest.raises(ValueError):
        time_shared_query(inst, 1, s, 0, 1)
    with pytest.raises(ValueError):
        time_shared_query(inst, 1, s, 4, 1)


def desired_row_coverage(inst, m, s, t):
    """Servers referencing each data row of file m in some query row."""
    lam = inst.params.lam
    cover = {i: set() for i in range(lam)}
    for j in range(1, inst.n_servers + 1):
        q = time_shared_query(inst, m, s, t, j)
        for i in transmitted_rows(q, inst.params):
            row_idx = q.entry(i, m)
            if row_idx < lam:
                cover[row_idx].add(j)
    return cover


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_desired_rows_hit_k_servers_2_3_2(kind):
    """Every data row of the desired file is readable from K servers."""
    inst = make_scheme(kind, 2, 3, 2)
    for s in inst.alphabet.members:
        for m in (1, 2):
            for t in (1, 2, 3):
                cover = desired_row_coverage(inst, m, s, t)
                assert all(len(js) == inst.dim for js in cover.values())


def test_desired_rows_hit_k_servers_olr_5_3():
    inst = make_scheme(SchemeKind.OLR, 2, 5, 3)
    for s in inst.alphabet.members:
        for m in (1, 2):
            for t in (1, 2, 3, 4, 5):
                cover = desired_row_coverage(inst, m, s, t)
                assert all(len(js) == 3 for js in cover.values())


def test_desired_rows_hit_k_servers_gcd_case():
    """(2,4,2): k*gcd = K = 2 servers must cover the single data row."""
    inst = make_scheme(SchemeKind.ZYQT, 2, 4, 2)
    for s in inst.alphabet.members:
        for m in (1, 2):
            for t in (1, 2, 3, 4):
                cover = desired_row_coverage(inst, m, s, t)
                assert all(len(js) == 2 for js in cover.values())

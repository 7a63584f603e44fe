"""Tests for strategy alphabets, query encoders, answers, and time sharing."""
import math
from itertools import product

import numpy as np
import pytest

from wpir.fields import FieldMatrix, PrimeField
from wpir.mds import make_rs_code
from wpir.schemes import (
    DEFAULT_ALPHABET_GUARD,
    ResourceLimitError,
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
    _check_alphabet_budget,
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
    assert alpha.size == 3 ** (2 - 1) == 3


def test_zyqt_alphabet_sizes():
    alpha = enumerate_strategies(SchemeKind.ZYQT, 3, 2, 2)
    assert alpha.size == 36
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


def _reference_members(kind, n, k, m_files):
    """The alphabet walked member by member: itertools.product, then a filter."""
    kind = SchemeKind(kind)
    if m_files < 1:
        raise ValueError("need at least one file")
    if kind is SchemeKind.ZTSL:
        return tuple(v for v in product(range(n), repeat=m_files) if sum(v) % n == 0)
    selectors = enumerate_pnk(n, k)
    if kind is SchemeKind.ZYQT:
        return tuple(product(selectors, repeat=m_files))
    return tuple(
        tup for tup in product(selectors, repeat=m_files - 1)
        if len({-sum(sel[i] for sel in tup) % n for i in range(k)}) == k
    )


def _reference_steps(kind, n, k, m_files):
    """How many tuples the reference walks."""
    if kind is SchemeKind.ZTSL:
        return n ** m_files
    return math.perm(n, k) ** (m_files - (kind is SchemeKind.OLR))


def _check_alphabet(alpha, want):
    """Same members in the same order, as array rows and as tuples."""
    assert alpha.size == len(want)
    assert alpha.array.dtype == np.uint8 and not alpha.array.flags.writeable
    if alpha.kind is SchemeKind.ZTSL:
        assert alpha.array.shape == (len(want), alpha.m_files)
        assert alpha.array.tolist() == [list(v) for v in want]
    else:
        n_sel = alpha.m_files - (alpha.kind is SchemeKind.OLR)
        assert alpha.array.shape == (len(want), n_sel, alpha.k)
        assert alpha.array.tolist() == [[list(sel) for sel in v] for v in want]
    assert alpha.members == want
    element = int if alpha.kind is SchemeKind.ZTSL else PermSelector
    assert all(type(e) is element for v in alpha.members for e in v)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_alphabet_matches_itertools_reference(kind):
    """Every n <= 5, 1 <= k <= n and M <= 4 whose reference walks at most
    20,000 tuples."""
    checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for m_files in range(1, 5):
                if _reference_steps(kind, n, k, m_files) > 20_000:
                    continue
                _check_alphabet(enumerate_strategies(kind, n, k, m_files),
                                _reference_members(kind, n, k, m_files))
                checked += 1
    assert checked >= 40


def test_alphabet_edges():
    olr = enumerate_strategies(SchemeKind.OLR, 3, 1, 1)
    assert olr.members == ((),) and olr.array.shape == (1, 0, 1)
    assert enumerate_strategies(SchemeKind.OLR, 3, 2, 1).members == ()
    assert enumerate_strategies(SchemeKind.ZTSL, 4, 2, 1).members == ((0,),)
    zyqt = enumerate_strategies(SchemeKind.ZYQT, 3, 2, 1)
    assert zyqt.members == tuple((p,) for p in enumerate_pnk(3, 2))
    for kind in SchemeKind:  # k = n
        _check_alphabet(enumerate_strategies(kind, 3, 3, 3), _reference_members(kind, 3, 3, 3))
    # ztsl never reads k, so k > n is accepted as before
    _check_alphabet(enumerate_strategies(SchemeKind.ZTSL, 2, 3, 3),
                    _reference_members(SchemeKind.ZTSL, 2, 3, 3))


@pytest.mark.parametrize("args", [
    ("xyz", 3, 2, 2), (SchemeKind.ZTSL, 3, 2, 0), (SchemeKind.ZYQT, 3, 2, 0),
    (SchemeKind.OLR, 3, 2, -1), (SchemeKind.ZYQT, 2, 3, 2), (SchemeKind.OLR, 2, 3, 1),
    (SchemeKind.ZYQT, 3, 0, 2),
])
def test_alphabet_errors_match_reference(args):
    with pytest.raises(ValueError) as want:
        _reference_members(*args)
    with pytest.raises(ValueError) as got:
        enumerate_strategies(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind, m_files, rows", [
    (SchemeKind.ZYQT, 2, math.perm(3, 2) ** 2), (SchemeKind.ZTSL, 3, 3 ** (3 - 1)),
    (SchemeKind.OLR, 3, math.perm(3, 2) ** (3 - 1)),
])
def test_alphabet_guard_counts_rows_before_the_filter(monkeypatch, kind, m_files, rows):
    """P(n,k)^M rows for zyqt, n^(M-1) for ztsl and P(n,k)^(M-1) for olr
    are admitted at the budget and refused one above it."""
    monkeypatch.setattr("wpir.schemes.DEFAULT_ALPHABET_GUARD", rows)
    enumerate_strategies(kind, 3, 2, m_files)
    monkeypatch.setattr("wpir.schemes.DEFAULT_ALPHABET_GUARD", rows - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {rows} rows"):
        enumerate_strategies(kind, 3, 2, m_files)


def test_alphabet_guard_admits_the_largest_built_alphabet(monkeypatch):
    """ztsl (8,7,4), the retrieval benchmark's instance, has 7^7 members."""
    assert 7 ** (8 - 1) == 823_543 <= DEFAULT_ALPHABET_GUARD
    _check_alphabet_budget(SchemeKind.ZTSL, 7, 4, 8)
    monkeypatch.setattr("wpir.schemes.DEFAULT_ALPHABET_GUARD", 823_542)
    with pytest.raises(ResourceLimitError, match="needs 823543 rows"):
        _check_alphabet_budget(SchemeKind.ZTSL, 7, 4, 8)


def test_members_are_built_on_first_use():
    alpha = enumerate_strategies(SchemeKind.ZYQT, 3, 2, 2)
    assert "members" not in vars(alpha)
    assert alpha.members is alpha.members
    assert "members" in vars(alpha)


def test_schemes_compare_and_hash_by_parameters():
    a, b = make_scheme(SchemeKind.OLR, 3, 5, 3), make_scheme(SchemeKind.OLR, 3, 5, 3)
    assert a == b and hash(a) == hash(b)
    assert a.alphabet == b.alphabet and hash(a.alphabet) == hash(b.alphabet)
    assert {a: "olr"}[b] == "olr"
    assert a != make_scheme(SchemeKind.ZYQT, 3, 5, 3)
    assert a != make_scheme(SchemeKind.OLR, 2, 5, 3)
    assert a.alphabet != make_scheme(SchemeKind.OLR, 2, 5, 3).alphabet


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


@pytest.mark.parametrize("instance", [
    (SchemeKind.ZYQT, 2, 3, 2), (SchemeKind.ZTSL, 3, 4, 2), (SchemeKind.OLR, 3, 3, 2),
    (SchemeKind.OLR, 1, 4, 2),
])
def test_base_query_takes_member_or_array_row(instance):
    inst = make_scheme(*instance)
    assert strategy_array(inst).dtype == np.int64
    assert strategy_array(inst).tolist() == inst.alphabet.array.tolist()
    for s, row in zip(inst.alphabet.members, inst.alphabet.array):
        for m in range(1, inst.m_files + 1):
            for j in range(1, inst.n_servers + 1):
                assert base_query(inst, m, row, j) == base_query(inst, m, s, j)


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

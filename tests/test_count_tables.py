"""Integer-count query tables against the exact `Fraction` implementations
they replace.

The `_reference_*` functions below are the dict-of-`Fraction` table build,
cost form, LP assembly and leakage that the count tables replaced; the
tests require the count path to reproduce them exactly, bit for bit where
floats are involved.
"""
from dataclasses import dataclass, replace
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from wpir.leakage import (
    LinearForm,
    as_pmf,
    build_all_tables,
    build_query_table,
    download_cost_form,
    maxl,
    normalize_pmf,
    shared_table,
    uniform_pmf,
)
from wpir.optimizer import _with_leakage_cap, reformulate
from wpir.schemes import SchemeKind, answer_length, make_scheme, time_shared_query

INSTANCES = [
    (SchemeKind.ZYQT, 4, 3, 2),
    (SchemeKind.ZYQT, 2, 5, 3),
    (SchemeKind.ZYQT, 1, 3, 2),
    (SchemeKind.OLR, 3, 5, 3),
    (SchemeKind.OLR, 2, 3, 2),
    (SchemeKind.ZTSL, 2, 3, 2),
    (SchemeKind.ZTSL, 3, 4, 2),
    (SchemeKind.ZTSL, 1, 3, 2),
]
IDS = [f"{k.value}-{m}-{n}-{d}" for k, m, n, d in INSTANCES]


@dataclass(frozen=True)
class _ReferenceTable:
    server: int
    m_files: int
    alphabet_size: int
    queries: tuple
    forms: dict
    lengths: dict

    def prob_form(self, q, m):
        return self.forms[q][m - 1]


def _reference_query_table(inst, j):
    """Accumulate weight 1/N per (m, s, t) in per-query Fraction buckets."""
    w = F(1, inst.n_servers)
    acc = {}
    for m in range(1, inst.m_files + 1):
        for sidx, s in enumerate(inst.alphabet.members):
            for t in range(1, inst.n_servers + 1):
                q = time_shared_query(inst, m, s, t, j)
                per_m = acc.setdefault(q, [{} for _ in range(inst.m_files)])
                bucket = per_m[m - 1]
                bucket[sidx] = bucket.get(sidx, F(0)) + w
    queries = tuple(sorted(acc, key=lambda q: q.rows))
    forms = {
        q: tuple(LinearForm(coeffs=dict(sorted(b.items()))) for b in acc[q])
        for q in queries
    }
    lengths = {q: answer_length(q, inst.params) for q in queries}
    return _ReferenceTable(j, inst.m_files, inst.alphabet.size, queries, forms, lengths)


def _reference_download_cost_form(tables):
    """Sum length * prior * coefficient over every table, query and file."""
    tables = tuple(tables)
    size = tables[0].alphabet_size
    coeffs = {}
    for tb in tables:
        prior = F(1, tb.m_files)
        for q in tb.queries:
            ell = tb.lengths[q]
            if ell == 0:
                continue
            for f in tb.forms[q]:
                for i, c in f.coeffs.items():
                    coeffs[i] = coeffs.get(i, F(0)) + ell * prior * c
    return LinearForm(coeffs=coeffs).affine_on_simplex(size)


def _reference_reformulate(table, cost_form, d_target):
    """(A_ub, b_ub, c) assembled entry by entry through COO."""
    n_z = table.alphabet_size
    n_t = len(table.queries)
    rows, cols, vals, b_ub = [], [], [], []
    r = 0
    for ti, q in enumerate(table.queries):
        for m in range(1, table.m_files + 1):
            form = table.prob_form(q, m)
            for i, cf in form.coeffs.items():
                rows.append(r)
                cols.append(i)
                vals.append(float(cf))
            rows.append(r)
            cols.append(n_z + ti)
            vals.append(-1.0)
            b_ub.append(-float(form.constant))
            r += 1
    for i in range(n_z):
        cf = cost_form.coefficient(i)
        if cf != 0:
            rows.append(r)
            cols.append(i)
            vals.append(float(cf))
    b_ub.append(float(F(d_target) - cost_form.constant))
    r += 1
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n_z + n_t), dtype=float)
    c = np.concatenate([np.zeros(n_z), np.ones(n_t)])
    return a_ub, np.array(b_ub), c


def _reference_maxl_sum(table, z):
    zf = as_pmf(z, table.alphabet_size)
    return sum(
        (max(f.evaluate(zf) for f in table.forms[q]) for q in table.queries), F(0)
    )


@lru_cache(maxsize=None)
def _pair(kind, m_files, n_servers, dim):
    inst = make_scheme(kind, m_files, n_servers, dim)
    return inst, build_query_table(inst, 1), _reference_query_table(inst, 1)


@pytest.mark.parametrize("instance", INSTANCES, ids=IDS)
def test_views_and_cost_form_match_reference(instance):
    inst, table, ref = _pair(*instance)
    assert table.counts.dtype == np.int64 and table.counts.has_canonical_format
    assert table.queries == ref.queries
    assert dict(table.forms) == ref.forms
    assert dict(table.lengths) == ref.lengths
    cost = download_cost_form((table,))
    expect = _reference_download_cost_form((ref,) * inst.n_servers)
    assert (cost.constant, cost.coeffs) == (expect.constant, expect.coeffs)
    assert list(cost.coeffs) == list(expect.coeffs)


@pytest.mark.parametrize("instance", INSTANCES, ids=IDS)
def test_reformulate_bitwise_equal_to_reference(instance):
    inst, table, ref = _pair(*instance)
    cost = download_cost_form((table,))
    size = inst.alphabet.size
    lo, hi = cost.min_on_simplex(size), cost.max_on_simplex(size)
    for d in (lo, (lo + hi) / 2, cost.evaluate(uniform_pmf(size)), hi):
        p = reformulate((table,), cost, d)
        a_ub, b_ub, c = _reference_reformulate(ref, cost, d)
        assert p.a_ub.shape == a_ub.shape
        for got, want in (
            (p.a_ub.data, a_ub.data),
            (p.a_ub.indices, a_ub.indices),
            (p.a_ub.indptr, a_ub.indptr),
            (p.b_ub, b_ub),
            (p.c, c),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    capped = _with_leakage_cap(p, 1.5)
    expect_c = np.zeros(capped.c.size)
    for i in range(size):
        expect_c[i] = float(cost.coefficient(i))
    assert capped.c.tobytes() == expect_c.tobytes()


_SMALL = [(SchemeKind.OLR, 2, 3, 2), (SchemeKind.ZYQT, 2, 3, 2),
          (SchemeKind.ZTSL, 3, 4, 2), (SchemeKind.OLR, 3, 3, 2)]
_WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.builds(lambda x, e: x * 2.0**e,
              st.floats(min_value=0.0, max_value=1.0), st.integers(-60, 0)),
)


@settings(max_examples=150, deadline=None)
@given(pick=st.integers(0, len(_SMALL) - 1), data=st.data())
def test_maxl_raw_sum_matches_reference(pick, data):
    inst, table, ref = _pair(*_SMALL[pick])
    weights = data.draw(st.lists(_WEIGHTS, min_size=inst.alphabet.size,
                                 max_size=inst.alphabet.size))
    if not any(weights):
        weights[0] = 1
    z = normalize_pmf(weights)
    assert maxl(table, z).raw_sum == _reference_maxl_sum(ref, z)


@pytest.mark.parametrize(
    "instance",
    [(k, 2, 3, 2) for k in SchemeKind] + [(SchemeKind.OLR, 2, 5, 3),
                                          (SchemeKind.ZTSL, 3, 4, 2)],
)
def test_every_server_counts_equal_server_one(instance):
    inst = make_scheme(*instance)
    tables = build_all_tables(inst)
    first = tables[0]
    for tb in tables:
        assert tb.queries == first.queries
        assert np.array_equal(tb.answer_lengths, first.answer_lengths)
        assert (tb.counts != first.counts).nnz == 0
    assert shared_table(tables) is first


def test_mismatched_count_tables_rejected():
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    table = build_query_table(inst, 1)
    cost = download_cost_form((table,))
    bumped = table.counts.copy()
    bumped.data[0] += 1
    for other in (
        replace(table, counts=bumped),
        replace(table, n_servers=4),
        replace(table, answer_lengths=table.answer_lengths + 1),
        replace(table, queries=table.queries[::-1]),
    ):
        with pytest.raises(ValueError):
            reformulate((table, other), cost, 4)
        with pytest.raises(ValueError):
            download_cost_form((table, other))
    # tables sharing one count array skip the entry-by-entry compare
    assert shared_table((table, replace(table, server=2))) is table

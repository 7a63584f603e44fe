"""Integer-count query tables against the exact `Fraction` implementations
they replace.

The `_reference_*` functions below are the dict-of-`Fraction` table build,
cost form, LP assembly and leakage that the count tables replaced, and
`_ReferenceForm` is the dict-of-`Fraction` linear form that the integer
`LinearForm` replaced; the tests require the count path to reproduce them
exactly, bit for bit where floats are involved.
"""
import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from forms import OFF_CLASS, coeffs, exact, normalize_pmf, views
from wpir import optimizer
from wpir.leakage import (
    LinearForm,
    as_pmf,
    build_all_tables,
    build_query_table,
    download_cost_form,
    maxl,
    shared_table,
    table_to_csv,
    uniform_pmf,
)
from wpir.optimizer import _assemble, default_grid, reformulate
from wpir.schemes import (
    QueryMatrix,
    SchemeKind,
    answer_length,
    cyclic_shift,
    make_scheme,
    query_rows,
    strategy_array,
    time_shared_query,
)

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
class _ReferenceForm:
    """constant + sum of coeffs[i] * z_i with exact rational entries."""

    coeffs: dict
    constant: F = F(0)

    def evaluate(self, z):
        return self.constant + sum((c * z[i] for i, c in self.coeffs.items()), F(0))


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
        q: tuple(_ReferenceForm(coeffs=dict(sorted(b.items()))) for b in acc[q])
        for q in queries
    }
    lengths = {q: answer_length(q, inst.params) for q in queries}
    return _ReferenceTable(j, inst.m_files, inst.alphabet.size, queries, forms, lengths)


def _reference_download_cost_form(tables):
    """Sum length * prior * coefficient over every table, query and file,
    then fold the smallest coefficient into the constant (z sums to 1, so
    c*z == c_min + (c-c_min)*z)."""
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
    every = [coeffs.get(i, F(0)) for i in range(size)]
    lo = min(every)
    return _ReferenceForm(coeffs={i: c - lo for i, c in enumerate(every) if c != lo}, constant=lo)


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
    cost_coeffs = coeffs(cost_form)
    for i in range(n_z):
        cf = cost_coeffs.get(i, F(0))
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
    forms, lengths = views(table)
    assert list(forms) == list(ref.queries)
    assert exact(forms) == {q: tuple((f.coeffs, f.constant) for f in per_m)
                            for q, per_m in ref.forms.items()}
    assert lengths == ref.lengths
    cost = download_cost_form((table,))
    expect = _reference_download_cost_form((ref,) * inst.n_servers)
    assert (cost.constant, coeffs(cost)) == (expect.constant, expect.coeffs)
    assert list(coeffs(cost)) == list(expect.coeffs)


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
    # the second pass minimizes the download cost
    n_rows = table.counts.shape[0]
    stage2 = _assemble(table, np.arange(n_rows), np.arange(p.c.size), cost).stage2
    expect_c = np.zeros(p.c.size)
    every = coeffs(cost)
    for i in range(size):
        expect_c[i] = float(every.get(i, F(0)))
    assert stage2.c.tobytes() == expect_c.tobytes()


_FORMS = [(instance, None) for instance in INSTANCES] + [((SchemeKind.ZYQT, 3, 3, 2), OFF_CLASS)]
_FORM_IDS = IDS + ["zyqt-3-3-2-off-class"]


@pytest.mark.parametrize("instance, form", _FORMS, ids=_FORM_IDS)
def test_integer_form_matches_fraction_coefficients(instance, form):
    """The grid, the oracle's cost vector and the assembled cost row read
    the integer numerators as the coefficient loop over every index
    reads the Fractions, floats byte for byte; explicit zero numerators
    seed the partition as absent ones do."""
    inst = make_scheme(*instance)
    size, table = inst.alphabet.size, build_query_table(inst, 1)
    form = form or download_cost_form((table,))
    given = coeffs(form)
    every = [given.get(i, F(0)) for i in range(size)]
    lo, hi = form.constant + min(every), form.constant + max(every)
    assert (form.min_on_simplex(size), form.max_on_simplex(size)) == (lo, hi)
    assert default_grid(form, size, 1) == [hi]
    for grid_size in (2, 9):
        want = [lo + (hi - lo) * F(i, grid_size - 1) for i in range(grid_size)]
        assert default_grid(form, size, grid_size) == (want if lo != hi else [hi])
    # the dense numerators over the denominator, as floats
    want = np.array([float(c) for c in every])
    assert (form.dense(size) / form.denominator).tobytes() == want.tobytes()
    rows, cols = optimizer._partition(table, form)
    fr = _assemble(table, rows, cols, form)
    first = np.unique(fr.strategy_class, return_index=True)[1].tolist()
    class_cost = [n * every[s] for n, s in zip(fr.sizes, first)]
    assert fr.cost.dtype == np.int64
    assert [F(int(c), form.denominator) for c in fr.cost] == class_cost
    row = fr.stage1.a_ub[-1]
    assert row.indices.tolist() == [i for i, c in enumerate(class_cost) if c]
    assert row.data.tobytes() == np.array([float(c) for c in class_cost if c]).tobytes()
    want = np.zeros(fr.stage2.c.size)
    want[:len(class_cost)] = [float(c) for c in class_cost]
    assert fr.stage2.c.tobytes() == want.tobytes()
    explicit = LinearForm(np.arange(size), form.dense(size), form.denominator, form.constant)
    assert (explicit.numerators == 0).any()
    assert [a.tobytes() for a in optimizer._partition(table, explicit)] \
        == [rows.tobytes(), cols.tobytes()]


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
        replace(table, keys=table.keys[::-1]),
    ):
        with pytest.raises(ValueError):
            reformulate((table, other), cost, 4)
        with pytest.raises(ValueError):
            download_cost_form((table, other))


def _reference_unique_numbering(inst, j):
    """build_query_table's keys, queries, counts and answer lengths with
    the queries numbered by one np.unique over the bytes of their entries."""
    strategies, m_files, n = strategy_array(inst), inst.m_files, inst.n_servers
    size, width = len(strategies), inst.params.k * m_files
    hits = np.stack([
        query_rows(inst, m, strategies, cyclic_shift(j, t - 1, n)).astype(np.uint8)
        for m in range(1, m_files + 1) for t in range(1, n + 1)
    ])
    keys, inverse = np.unique(hits.reshape(-1, width).view(f"V{width}"), return_inverse=True)
    rows = inverse.ravel() * m_files + np.repeat(np.arange(m_files), n * size)
    cols = np.tile(np.arange(size), m_files * n)
    counts = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)),
                               shape=(len(keys) * m_files, size))
    data = keys.tobytes()
    queries = tuple(QueryMatrix.from_bytes(data[i:i + width], m_files)
                    for i in range(0, len(data), width))
    lengths = np.array([answer_length(q, inst.params) for q in queries], dtype=np.int64)
    return keys, queries, counts, lengths


_NUMBERED = [(i, 1) for i in INSTANCES] + [
    ((SchemeKind.ZTSL, 4, 7, 6), 1), ((SchemeKind.ZTSL, 4, 7, 6), 5),
    ((SchemeKind.ZTSL, 7, 5, 4), 2), ((SchemeKind.ZTSL, 3, 3, 2), 1),
    ((SchemeKind.OLR, 4, 3, 2), 3), ((SchemeKind.ZTSL, 1, 256, 1), 1)]


@pytest.mark.parametrize("instance, server", _NUMBERED,
                         ids=[f"{k.value}-{m}-{n}-{d}-j{j}" for (k, m, n, d), j in _NUMBERED])
def test_query_numbering_equals_unique_bytes_reference(instance, server):
    """Queries numbered from base-n words, in one or more 63-bit words,
    come in the byte order of np.unique: the same keys (read-only uint8),
    queries, counts and answer lengths.  ztsl (4,7,6) has 24-entry keys over n = 7 (67 bits)
    and ztsl (7,5,4) 28 entries over n = 5 (65 bits): two words each."""
    inst = make_scheme(*instance)
    table = build_query_table(inst, server)
    keys, queries, counts, lengths = _reference_unique_numbering(inst, server)
    assert table.keys.dtype == np.uint8 and not table.keys.flags.writeable
    assert table.keys.shape == (len(keys), inst.params.k * inst.m_files)
    assert table.keys.tobytes() == keys.tobytes()
    assert table.queries == queries
    assert table.counts.shape == counts.shape
    for part in ("data", "indices", "indptr"):
        got, want = getattr(table.counts, part), getattr(counts, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert table.answer_lengths.dtype == lengths.dtype
    assert table.answer_lengths.tobytes() == lengths.tobytes()
    assert table.answer_lengths.tolist() == [answer_length(q, inst.params)
                                             for q in table.queries]


# SHA-256 of the concatenated table CSVs below: pins query construction,
# row order, counts and answer lengths independently of how they are built
TABLES_SHA256 = "5b0623415a4c0be47f26689756afd562e3b4500eecd20c28318c8cd22db1b85b"


def test_table_csvs_pinned():
    cases = [(SchemeKind.ZYQT, 3, 3, 2, 2), (SchemeKind.OLR, 3, 5, 3, 1),
             (SchemeKind.ZTSL, 4, 3, 2, 3), (SchemeKind.ZYQT, 2, 4, 2, 2),
             (SchemeKind.OLR, 4, 3, 2, 3)]
    text = "".join(
        table_to_csv(build_query_table(make_scheme(kind, m, n, d), j))
        for kind, m, n, d, j in cases
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_SHA256

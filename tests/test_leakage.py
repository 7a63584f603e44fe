"""Tests for conditional query tables, leakage, and cost forms."""
import math
import random
from fractions import Fraction as F

import pytest

from wpir.leakage import (
    LinearForm,
    ResourceLimitError,
    as_pmf,
    build_all_tables,
    build_query_table,
    download_cost_form,
    maxl,
    normalize_pmf,
    serialize_query,
    table_to_csv,
    uniform_pmf,
)
from wpir.schemes import QueryMatrix, SchemeKind, make_scheme

THIRD = F(1, 3)

# (query rows, strategy index per m (1-based z labels), length)
ZTSL_232_TABLE = [
    (((0, 0), (1, 1)), (1, 1), 1),
    (((1, 2), (2, 0)), (2, 2), 1),
    (((2, 1), (0, 2)), (3, 3), 1),
    (((1, 0), (2, 1)), (1, 2), 1),
    (((2, 2), (0, 0)), (2, 3), 1),
    (((0, 1), (1, 2)), (3, 1), 1),
    (((2, 0), (0, 1)), (1, 3), 2),
    (((0, 2), (1, 0)), (2, 1), 2),
    (((1, 1), (2, 2)), (3, 2), 0),
]

OLR_232_SUBSET = [
    (((0, 0), (2, 1)), (1, 2), 1),
    (((0, 0), (1, 2)), (2, 1), 1),
    (((2, 1), (0, 0)), (3, 5), 1),
    (((2, 1), (1, 2)), (4, 6), 0),
    (((1, 2), (0, 0)), (5, 3), 1),
    (((1, 2), (2, 1)), (6, 4), 0),
    (((1, 0), (0, 1)), (1, 3), 2),
    (((1, 0), (2, 2)), (2, 4), 1),
    (((0, 1), (1, 0)), (3, 1), 2),
]


def qm(rows):
    return QueryMatrix(tuple(tuple(r) for r in rows))


def check_frozen(table, frozen, expect_count=None):
    if expect_count is not None:
        assert len(table.queries) == expect_count
    for rows, zlabels, ell in frozen:
        q = qm(rows)
        assert q in table.forms, f"query {rows} missing"
        for m, z in enumerate(zlabels, start=1):
            form = table.prob_form(q, m)
            assert form.constant == 0
            assert form.coeffs == {z - 1: THIRD}
        assert table.length(q) == ell


def test_ztsl_232_table_matches_frozen_values():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    check_frozen(table, ZTSL_232_TABLE, expect_count=9)


def test_ztsl_232_marginals():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    # marginal of the first three queries is z_i/3; of the rest (z_a+z_b)/6
    for rows, zlabels, _ in ZTSL_232_TABLE:
        q = qm(rows)
        marg = {}
        for m in (1, 2):
            for i, c in table.prob_form(q, m).coeffs.items():
                marg[i] = marg.get(i, F(0)) + c / 2
        expect = {}
        for z in zlabels:
            expect[z - 1] = expect.get(z - 1, F(0)) + F(1, 6)
        assert marg == expect


def test_olr_232_table_contains_frozen_columns():
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    table = build_query_table(inst, 1)
    check_frozen(table, OLR_232_SUBSET, expect_count=18)


def test_tables_identical_across_servers():
    for kind in SchemeKind:
        inst = make_scheme(kind, 2, 3, 2)
        tables = build_all_tables(inst)
        for tb in tables[1:]:
            assert tb.queries == tables[0].queries
            assert tb.forms == tables[0].forms
            assert tb.lengths == tables[0].lengths


@pytest.mark.parametrize(
    "kind,m_files,n_servers,dim",
    [(k, 2, 3, 2) for k in SchemeKind] + [(SchemeKind.OLR, 2, 5, 3)],
)
def test_per_m_normalization(kind, m_files, n_servers, dim):
    """Coefficient columns sum to 1: P(.|m) is a PMF for every z."""
    inst = make_scheme(kind, m_files, n_servers, dim)
    table = build_query_table(inst, 1)
    for m in range(1, m_files + 1):
        col = {}
        for q in table.queries:
            for i, c in table.prob_form(q, m).coeffs.items():
                col[i] = col.get(i, F(0)) + c
        assert col == {i: F(1) for i in range(inst.alphabet.size)}


def test_maxl_uniform_is_zero():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    val = maxl(table, uniform_pmf(3))
    assert val.raw_sum == 1
    assert val.bits == 0.0 and val.normalized == 0.0


def test_maxl_vertex_ztsl():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    val = maxl(table, (1, 0, 0))
    assert val.raw_sum == F(5, 3)
    assert val.bits == pytest.approx(math.log2(5 / 3))
    assert val.normalized == pytest.approx(math.log2(5 / 3))


def test_maxl_single_file_is_zero():
    inst = make_scheme(SchemeKind.ZTSL, 1, 3, 2)
    table = build_query_table(inst, 1)
    assert inst.alphabet.size == 1
    val = maxl(table, (1,))
    assert val.bits == 0.0 and val.normalized == 0.0


def test_maxl_rejects_bad_pmf():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    with pytest.raises(ValueError):
        maxl(table, (1, 0))
    with pytest.raises(ValueError):
        maxl(table, (F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        maxl(table, (2, -1, 0))


def test_maxl_bounded_by_log_m():
    rng = random.Random(100)
    for kind in SchemeKind:
        inst = make_scheme(kind, 2, 3, 2)
        tables = build_all_tables(inst)
        for _ in range(20):
            weights = [rng.randrange(10) + (1 if i == 0 else 0) for i in
                       range(inst.alphabet.size)]
            z = normalize_pmf(weights)
            per_server = [maxl(tb, z) for tb in tables]
            for val in per_server:
                assert 0.0 <= val.bits <= math.log2(2) + 1e-12
            per = {v.raw_sum for v in per_server}
            assert len(per) == 1  # time sharing equalizes servers exactly


def test_download_cost_form_ztsl():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    form = download_cost_form(build_all_tables(inst))
    assert form.constant == 3
    assert form.coeffs == {0: F(1)}


def test_download_cost_form_olr():
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    form = download_cost_form(build_all_tables(inst))
    assert form.constant == 2
    assert form.coeffs == {0: F(2), 1: F(2), 2: F(2), 4: F(2)}


def test_cost_at_uniform_is_capacity_point():
    for kind in SchemeKind:
        inst = make_scheme(kind, 2, 3, 2)
        form = download_cost_form(build_all_tables(inst))
        d = form.evaluate(uniform_pmf(inst.alphabet.size))
        assert d == F(10, 3)
        # rate lam*K/D equals the coded-PIR capacity (1 - K/N) / (1 - (K/N)^M)
        assert F(2) / d == F(3, 5) == (1 - F(2, 3)) / (1 - F(2, 3) ** 2)


def test_cost_extremes_on_simplex():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    form = download_cost_form(build_all_tables(inst))
    assert form.min_on_simplex(3) == 3
    assert form.max_on_simplex(3) == 4
    inst = make_scheme(SchemeKind.OLR, 2, 3, 2)
    form = download_cost_form(build_all_tables(inst))
    assert form.min_on_simplex(6) == 2
    assert form.max_on_simplex(6) == 4


def test_cost_never_below_lam_k():
    rng = random.Random(101)
    for kind in SchemeKind:
        inst = make_scheme(kind, 2, 3, 2)
        form = download_cost_form(build_all_tables(inst))
        for _ in range(20):
            z = normalize_pmf(
                [rng.randrange(1, 9) for _ in range(inst.alphabet.size)]
            )
            assert form.evaluate(z) >= inst.params.lam * inst.dim


def test_resource_guard_counts():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    with pytest.raises(ResourceLimitError):
        build_query_table(inst, 1, guard=5)


def test_all_tables_budget_counts_every_server(monkeypatch):
    """zyqt (2,3,2): one table is 36*3*2 = 216 steps, all three are 648."""
    inst = make_scheme(SchemeKind.ZYQT, 2, 3, 2)
    assert build_query_table(inst, 2, guard=300).alphabet_size == 36
    calls = []
    monkeypatch.setattr(
        "wpir.leakage.time_shared_query", lambda *args: calls.append(args)
    )
    with pytest.raises(ResourceLimitError, match="needs 648 = 3[*][|]S[|][*]N[*]M steps"):
        build_all_tables(inst, guard=300)
    assert calls == []  # refused before enumerating anything


def test_linear_form_helpers():
    f = LinearForm(coeffs={0: F(4), 1: F(3), 2: F(3)})
    g = f.affine_on_simplex(3)
    assert g.constant == 3 and g.coeffs == {0: F(1)}
    z = as_pmf((F(1, 2), F(1, 2), 0), 3)
    assert f.evaluate(z) == g.evaluate(z) == F(7, 2)


def test_pmf_helpers():
    assert normalize_pmf((1, 1)) == (F(1, 2), F(1, 2))
    assert normalize_pmf((F(-1, 10**12), 1))[0] == 0
    with pytest.raises(ValueError):
        normalize_pmf((0, 0))
    assert uniform_pmf(4) == (F(1, 4),) * 4


def test_table_csv_shape():
    inst = make_scheme(SchemeKind.ZTSL, 2, 3, 2)
    table = build_query_table(inst, 1)
    csv = table_to_csv(table)
    lines = csv.strip().splitlines()
    assert lines[0] == "server,query,m,coefficients,length"
    assert len(lines) == 1 + 9 * 2
    assert "1,0 0|1 1,1,z1:1/3,1" in lines
    assert serialize_query(table.queries[0]) == "0 0|1 1"
    # deterministic output
    assert csv == table_to_csv(build_query_table(inst, 1))

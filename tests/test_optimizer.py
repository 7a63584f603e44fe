"""Tests for the trade-off LP, the sweep, and the brute-force oracle."""
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from wpir.leakage import (
    ResourceLimitError,
    build_all_tables,
    build_query_table,
    download_cost_form,
    maxl,
    normalize_pmf,
    uniform_pmf,
)
from wpir.optimizer import (
    LpProblem,
    brute_force_min_leakage,
    default_grid,
    grid_point_count,
    reformulate,
    solve_lp,
    solve_tradeoff_point,
)
from wpir.schemes import SchemeKind, make_scheme


def setup_scheme(kind, m_files=2, n_servers=3, dim=2):
    inst = make_scheme(kind, m_files, n_servers, dim)
    tables = build_all_tables(inst)
    return inst, tables, download_cost_form(tables)


def test_trivial_lp_two_floors():
    """min t s.t. t >= 0.5, t >= 0.3 has optimum 0.5."""
    a_ub = sparse.csr_matrix(np.array([[1.0, -1.0], [0.3, -1.0]]))
    p = LpProblem(
        n_z=1,
        c=np.array([0.0, 1.0]),
        a_ub=a_ub,
        b_ub=np.zeros(2),
        a_eq=sparse.csr_matrix(np.array([[2.0, 0.0]])),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(p)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.duality_gap < 1e-8


def test_ztsl_loose_cap_reaches_zero_leakage():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    sol = solve_lp(reformulate(tables, cost, 4))
    assert sol.is_optimal
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.duality_gap < 1e-8


def test_ztsl_tight_cap_forces_z1_zero():
    """D(z) = 3 + z1, so a cap of 3 pins z1 to 0."""
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    pt = solve_tradeoff_point(tables, cost, 3, inst.params.lam, inst.dim)
    assert pt.z[0] == 0
    assert pt.d_achieved == 3
    assert pt.leakage_sum == F(4, 3)


def test_olr_min_cost_point():
    """At D <= 2 only z4, z6 may carry mass; leakage sum is 5/3."""
    inst, tables, cost = setup_scheme(SchemeKind.OLR)
    pt = solve_tradeoff_point(tables, cost, 2, inst.params.lam, inst.dim)
    assert pt.rate == 1
    assert sum(pt.z[i] for i in (0, 1, 2, 4)) == 0
    assert pt.leakage_sum == F(5, 3)
    assert pt.leakage_bits == pytest.approx(math.log2(5 / 3), abs=1e-9)


def test_exactness_lp_vs_table():
    """log2 of the LP objective equals exact maxl at the returned z*."""
    inst, tables, cost = setup_scheme(SchemeKind.OLR)
    for d in (F(5, 2), 3, F(7, 2)):
        p = reformulate(tables, cost, d)
        sol = solve_lp(p)
        exact = maxl(tables[0], normalize_pmf(sol.x))
        assert math.log2(sol.objective) == pytest.approx(exact.bits, abs=1e-9)


def test_two_stage_lowers_cost_to_envelope():
    """ZTSL at D<=3.5: leakage 0 is reachable, and stage 2 pulls the
    achieved cost back to the cheapest zero-leakage point 10/3."""
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    pt = solve_tradeoff_point(tables, cost, F(7, 2), inst.params.lam, inst.dim)
    assert pt.leakage_bits == pytest.approx(0.0, abs=1e-6)
    assert float(pt.d_achieved) == pytest.approx(10 / 3, abs=1e-6)
    assert float(pt.rate) == pytest.approx(0.6, abs=1e-9)


def test_infeasible_below_min_cost():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    assert solve_tradeoff_point(tables, cost, F(29, 10), 1, 2) is None


def test_single_file_leakage_always_zero():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL, m_files=1)
    hi = cost.max_on_simplex(inst.alphabet.size)
    pt = solve_tradeoff_point(tables, cost, hi, inst.params.lam, inst.dim)
    assert pt.leakage_sum == 1 and pt.leakage_bits == 0.0


def test_mismatched_tables_rejected():
    _, t_a, cost = setup_scheme(SchemeKind.ZTSL)
    _, t_b, _ = setup_scheme(SchemeKind.OLR)
    with pytest.raises(ValueError):
        reformulate((t_a[0], t_b[0]), cost, 4)


def test_default_grid_spans_extremes():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    grid = default_grid(cost, inst.alphabet.size, grid_size=5)
    assert grid[0] == 3 and grid[-1] == 4
    assert len(grid) == 5


def _sweep(kind, grid_size):
    """One point per target of the default grid, in target order."""
    inst, tables, cost = setup_scheme(kind)
    grid = default_grid(cost, inst.alphabet.size, grid_size)
    return [solve_tradeoff_point(tables, cost, d, inst.params.lam, inst.dim)
            for d in grid]


def test_sweep_leakage_monotone_in_target():
    pts = _sweep(SchemeKind.OLR, 21)
    # leakage is nonincreasing in the cost target
    for a, b in zip(pts, pts[1:]):
        assert b.leakage_sum <= a.leakage_sum + F(1, 10**9)


def test_sweep_value_function_convex():
    """The LP optimum 2^leakage is convex in the cost target; leakage in
    bits is only monotone (log of a linear value function is concave)."""
    pts = _sweep(SchemeKind.OLR, 9)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        frac = (b.d_target - a.d_target) / (c.d_target - a.d_target)
        chord = (1 - frac) * a.leakage_sum + frac * c.leakage_sum
        assert b.leakage_sum <= chord + F(1, 10**6)
        assert b.leakage_bits <= a.leakage_bits + 1e-9


# SHA-256 over repr((d_target, d_achieved, leakage_sum, leakage_bits, rate,
# z)) of every frontier point below: a change to any point's exact values
# or float digits changes it
FRONTIER_SHA256 = "0764f2acd79bfc854640105a3dc4fbd01cf068ea9bde21a669ba0d8a97d41a1b"


def test_frontier_points_pinned():
    cases = [(SchemeKind.OLR, 2, 3, 2, 9), (SchemeKind.ZTSL, 2, 3, 2, 9),
             (SchemeKind.ZYQT, 2, 3, 2, 9), (SchemeKind.ZYQT, 3, 3, 2, 9),
             (SchemeKind.ZTSL, 3, 4, 2, 7), (SchemeKind.ZYQT, 1, 3, 2, 5)]
    digest = hashlib.sha256()
    for kind, m_files, n_servers, dim, grid in cases:
        inst = make_scheme(kind, m_files, n_servers, dim)
        tables = (build_query_table(inst, 1),)
        cost = download_cost_form(tables)
        size = inst.alphabet.size
        # the last target lies below every achievable cost
        targets = default_grid(cost, size, grid) + [cost.min_on_simplex(size) - 1]
        for d in targets:
            pt = solve_tradeoff_point(tables, cost, d, inst.params.lam, inst.dim)
            digest.update(repr(None if pt is None else (
                pt.d_target, pt.d_achieved, pt.leakage_sum, pt.leakage_bits,
                pt.rate, pt.z)).encode())
    assert digest.hexdigest() == FRONTIER_SHA256


def test_composition_grid_count():
    assert grid_point_count(50, 3) == math.comb(52, 2)
    assert grid_point_count(4, 1) == 1


def test_brute_force_matches_lp_ztsl():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    for d in (3, F(13, 4), F(7, 2), F(15, 4), 4):
        pt = solve_tradeoff_point(tables, cost, d, 1, 2)
        bits, z = brute_force_min_leakage(tables[0], cost, d, step=F(1, 50))
        assert bits >= pt.leakage_bits - 1e-9
        assert bits <= pt.leakage_bits + 0.05
        assert sum(z) == 1
        assert cost.evaluate(z) <= F(d) + F(1, 10**6)


def test_brute_force_unconstrained_hits_zero():
    """With |S| = 3 the uniform PMF sits on a grid of step 1/51 exactly."""
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    bits, z = brute_force_min_leakage(tables[0], cost, 4, step=F(1, 51))
    assert bits == 0.0
    assert z == (F(17, 51),) * 3


def test_brute_force_single_strategy():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL, m_files=1)
    bits, z = brute_force_min_leakage(tables[0], cost, 4, step=F(1, 10))
    assert z == (F(1),) and bits == 0.0


def test_brute_force_guards():
    inst, tables, cost = setup_scheme(SchemeKind.OLR)
    with pytest.raises(ResourceLimitError):
        brute_force_min_leakage(tables[0], cost, 4, step=F(1, 50), guard=10)
    with pytest.raises(ValueError):
        brute_force_min_leakage(tables[0], cost, 4, step=F(3, 100))
    with pytest.raises(ValueError):
        brute_force_min_leakage(tables[0], cost, 1, step=F(1, 10))


def test_solve_lp_rejects_duality_gap(monkeypatch):
    """A solver answer whose primal and dual objectives disagree is refused."""
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    p = reformulate(tables, cost, 4)
    real = linprog

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.fun += 1e-6
        return res

    monkeypatch.setattr("wpir.optimizer.linprog", skewed)
    with pytest.raises(RuntimeError, match="duality gap"):
        solve_lp(p)

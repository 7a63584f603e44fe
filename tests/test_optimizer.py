"""Tests for the trade-off LP, the sweep, and the brute-force oracle."""
import copy
import functools
import hashlib
import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse

from forms import OFF_CLASS as _OFF_CLASS, coeffs, linear_form, normalize_pmf
from wpir import leakage, optimizer
from wpir.leakage import (
    ResourceLimitError,
    build_all_tables,
    build_query_table,
    check_equitable,
    class_indicator,
    download_cost_form,
    epigraph_matrix,
    leakage_at,
    maxl,
    uniform_pmf,
)
from wpir.optimizer import (
    LEAKAGE_CAP_SLACK,
    LpProblem,
    brute_force_min_leakage,
    default_grid,
    frontier,
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
    pt = solve_tradeoff_point(frontier(tables, cost), 3, inst.params.lam, inst.dim)
    assert pt.z[0] == 0
    assert pt.d_achieved == 3
    assert pt.leakage_sum == F(4, 3)


def test_olr_min_cost_point():
    """At D <= 2 only z4, z6 may carry mass; leakage sum is 5/3."""
    inst, tables, cost = setup_scheme(SchemeKind.OLR)
    pt = solve_tradeoff_point(frontier(tables, cost), 2, inst.params.lam, inst.dim)
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
    pt = solve_tradeoff_point(frontier(tables, cost), F(7, 2), inst.params.lam, inst.dim)
    assert pt.leakage_bits == pytest.approx(0.0, abs=1e-6)
    assert float(pt.d_achieved) == pytest.approx(10 / 3, abs=1e-6)
    assert float(pt.rate) == pytest.approx(0.6, abs=1e-9)


def test_infeasible_below_min_cost():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    assert solve_tradeoff_point(frontier(tables, cost), F(29, 10), 1, 2) is None


def test_single_file_leakage_always_zero():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL, m_files=1)
    hi = cost.max_on_simplex(inst.alphabet.size)
    pt = solve_tradeoff_point(frontier(tables, cost), hi, inst.params.lam, inst.dim)
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
    fr = frontier(tables, cost)
    return [solve_tradeoff_point(fr, d, inst.params.lam, inst.dim) for d in grid]


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


_REDUCED = [(SchemeKind.OLR, 2, 3, 2), (SchemeKind.ZTSL, 2, 3, 2),
            (SchemeKind.ZYQT, 2, 3, 2), (SchemeKind.ZYQT, 3, 3, 2),
            (SchemeKind.OLR, 4, 3, 2)]


@pytest.mark.parametrize("instance", _REDUCED, ids=lambda i: f"{i[0].value}-{i[1]}")
def test_reduced_lp_optimum_equals_full_lp(instance):
    inst, tables, cost = setup_scheme(*instance)
    size = inst.alphabet.size
    fr = frontier(tables, cost)
    for d in default_grid(cost, size, 9):
        full = solve_lp(reformulate(tables, cost, d))
        reduced = solve_lp(fr.problem(d))
        assert full.is_optimal and reduced.is_optimal
        assert reduced.objective == pytest.approx(full.objective, abs=1e-9)
    d = cost.min_on_simplex(size) - 1
    assert not solve_lp(reformulate(tables, cost, d)).is_optimal
    assert not solve_lp(fr.problem(d)).is_optimal


# targets of the cost form on zyqt (3,3,2) that splits strategy classes
_OFF_CLASS_TARGETS = (F(1), F(5, 4), F(3, 2), F(4))


def _constant_on(form, strategy_class):
    """Whether the form's coefficients agree within every strategy class."""
    seen, every = {}, coeffs(form)
    return all(seen.setdefault(c, every.get(s, F(0))) == every.get(s, F(0))
               for s, c in enumerate(strategy_class.tolist()))


def _reference_with_leakage_cap(p, cap):
    """Reference stage-2 LP, restacked from the stage-1 LP p: the download
    cost, p's last a_ub row, as the objective, and p's objective, the
    total leakage, as one more row capped at cap."""
    return LpProblem(
        n_z=p.n_z,
        c=p.a_ub[-1].toarray().ravel(),
        a_ub=sparse.vstack([p.a_ub, sparse.csr_matrix(p.c)], format="csr"),
        b_ub=np.concatenate([p.b_ub, [cap]]),
        a_eq=p.a_eq,
        b_eq=p.b_eq,
    )


def test_cost_form_off_the_classes_refines_them():
    """A cost form that splits a strategy class of the download form gets
    classes of its own, and the reduced optimum still equals the full LP's
    at both stages."""
    inst, tables, download = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    strategy_class = frontier(tables, download).strategy_class
    assert np.bincount(strategy_class).max() > 1
    assert _constant_on(download, strategy_class)
    cost = _OFF_CLASS
    assert not _constant_on(cost, strategy_class)
    fr = frontier(tables, cost)
    assert _constant_on(cost, fr.strategy_class)
    for d in _OFF_CLASS_TARGETS:
        full = reformulate(tables, cost, d)
        reduced = fr.problem(d)
        for _ in range(2):
            a, b = solve_lp(full), solve_lp(reduced)
            assert a.objective == pytest.approx(b.objective, abs=1e-9)
            full = _reference_with_leakage_cap(full, a.objective + LEAKAGE_CAP_SLACK)
            reduced = _reference_with_leakage_cap(reduced, b.objective + LEAKAGE_CAP_SLACK)
        pt = solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
        assert cost.evaluate(pt.z) == pt.d_achieved <= d
        assert maxl(tables[0], pt.z).raw_sum == pt.leakage_sum


@pytest.mark.parametrize("instance", [(SchemeKind.ZYQT, 3, 3, 2), (SchemeKind.OLR, 4, 3, 2)],
                         ids=["zyqt-3", "olr-4"])
def test_equitable_check_rejects_corrupted_partition(instance):
    inst, tables, cost = setup_scheme(*instance)
    table = tables[0]
    matrix = epigraph_matrix(table)
    rows, cols = optimizer._partition(table, cost)
    check_equitable(matrix, rows, cols)
    merged = np.where(cols == 1, 0, cols)
    with pytest.raises(RuntimeError, match="not equitable"):
        check_equitable(matrix, rows, merged)
    moved = rows.copy()
    moved[np.flatnonzero(rows == 1)[0]] = 0
    with pytest.raises(RuntimeError, match="not equitable"):
        check_equitable(matrix, moved, cols)


def _reference_split(colors, lines, value_ids, other, rng):
    """leakage._split numbering the (color, hash sum) pairs with one
    np.unique over the pairs as rows."""
    n_values = int(value_ids.max()) + 1
    weights = rng.integers(0, 2**64, size=(int(other.max()) + 1) * n_values, dtype=np.uint64)
    hashed = weights[other[lines.indices] * n_values + value_ids]
    running = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(hashed, dtype=np.uint64)])
    sums = running[lines.indptr[1:]] - running[lines.indptr[:-1]]
    keys = np.column_stack([colors.astype(np.uint64), sums])
    return np.unique(keys, axis=0, return_inverse=True)[1].ravel()


@pytest.mark.parametrize("instance, form",
                         [((SchemeKind.ZYQT, 4, 3, 2), None), ((SchemeKind.ZYQT, 2, 5, 3), None),
                          ((SchemeKind.OLR, 3, 5, 3), None),
                          ((SchemeKind.ZYQT, 3, 3, 2), _OFF_CLASS)],
                         ids=["zyqt-4-3-2", "zyqt-2-5-3", "olr-3-5-3", "zyqt-3-3-2-off-class"])
def test_partition_equals_unique_rows_reference(instance, form, monkeypatch):
    """Color refinement labels each split by the rank of its (color, sum)
    pair exactly as np.unique over the pairs does: the same labels at
    every split and at the end."""
    inst, tables, cost = setup_scheme(*instance)
    cost = form or cost
    rows, cols = optimizer._partition(tables[0], cost)
    real_split, splits = leakage._split, []

    def checked(colors, lines, value_ids, other, rng):
        want = _reference_split(colors, lines, value_ids, other, copy.deepcopy(rng))
        got = real_split(colors, lines, value_ids, other, rng)
        splits.append(got.dtype == want.dtype and np.array_equal(got, want))
        return got

    monkeypatch.setattr(leakage, "_split", checked)
    assert [a.tobytes() for a in optimizer._partition(tables[0], cost)] \
        == [rows.tobytes(), cols.tobytes()]
    assert len(splits) >= 4 and all(splits)
    monkeypatch.setattr(leakage, "_split", _reference_split)
    want = optimizer._partition(tables[0], cost)
    assert (want[0].dtype, want[1].dtype) == (rows.dtype, cols.dtype)
    assert [a.tobytes() for a in want] == [rows.tobytes(), cols.tobytes()]


def test_partition_computed_once_per_sweep(monkeypatch):
    """One color refinement per table and cost form, however the targets
    of two forms interleave."""
    calls = []
    real = optimizer.equitable_partition
    monkeypatch.setattr("wpir.optimizer.equitable_partition",
                        lambda *args: calls.append(args) or real(*args))
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    fr = frontier(tables, cost)
    for d in default_grid(cost, inst.alphabet.size, 9):
        solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
    assert len(calls) == 1
    download = default_grid(cost, inst.alphabet.size, len(_OFF_CLASS_TARGETS))
    off = frontier(tables, _OFF_CLASS)
    for d, e in zip(download, _OFF_CLASS_TARGETS):
        for each, target in ((fr, d), (off, e)):
            solve_tradeoff_point(each, target, inst.params.lam, inst.dim)
    assert len(calls) == 2


def test_explicit_zero_coefficient_seeds_as_absent():
    """A cost coefficient of 0 colors its strategy as an absent one does:
    the same partition, reduced LP and points."""
    inst, tables, _ = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    assert 7 < inst.alphabet.size and 7 not in coeffs(_OFF_CLASS)
    zeroed = linear_form({**coeffs(_OFF_CLASS), 7: F(0)}, constant=_OFF_CLASS.constant)
    assert zeroed.indices.tolist() == [0, 5, 7] and zeroed.numerators[-1] == 0
    a, b = frontier(tables, _OFF_CLASS), frontier(tables, zeroed)
    assert a is not b
    assert _lp_bytes(a.stage2) + [a.stage2.b_ub.tobytes(), a.strategy_class.tobytes()] \
        == _lp_bytes(b.stage2) + [b.stage2.b_ub.tobytes(), b.strategy_class.tobytes()]
    for d in _OFF_CLASS_TARGETS:
        pa, pb = a.problem(d), b.problem(d)
        assert _lp_bytes(pa) + [pa.b_ub.tobytes()] == _lp_bytes(pb) + [pb.b_ub.tobytes()]
        assert solve_tradeoff_point(a, d, inst.params.lam, inst.dim) \
            == solve_tradeoff_point(b, d, inst.params.lam, inst.dim)


def test_reduction_built_once_per_sweep(monkeypatch):
    calls = []
    for name in ("_partition", "_assemble"):
        real = getattr(optimizer, name)
        monkeypatch.setattr(f"wpir.optimizer.{name}",
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    fr = frontier(tables, cost)
    for d in default_grid(cost, inst.alphabet.size, 9):
        solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
    assert calls == ["_partition", "_assemble"]


def _lp_bytes(p):
    return [p.c.tobytes(), p.b_eq.tobytes()] + [
        getattr(a, part).tobytes() for a in (p.a_ub, p.a_eq)
        for part in ("data", "indices", "indptr")]


def test_targets_differ_only_in_the_cap():
    """Two targets share every LP array but b_ub, whose last entry alone
    differs; solving a whole sweep leaves the shared arrays and both
    stages' prebuilt LPs as they were."""
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    grid = default_grid(cost, inst.alphabet.size, 9)
    fr = frontier(tables, cost)
    a, b = (fr.problem(d) for d in (grid[2], grid[6]))
    before = _lp_bytes(a)
    prebuilt = [_lp_bytes(s) + [s.b_ub.tobytes()] for s in (fr.stage1, fr.stage2)]
    assert _lp_bytes(b) == before
    assert a.b_ub is not b.b_ub
    assert a.b_ub[:-1].tobytes() == b.b_ub[:-1].tobytes()
    assert (a.b_ub[-1], b.b_ub[-1]) == tuple(float(d - cost.constant) for d in (grid[2], grid[6]))
    for d in grid:
        solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
    assert _lp_bytes(fr.problem(grid[2])) == before
    assert fr.problem(grid[2]).b_ub.tobytes() == a.b_ub.tobytes()
    assert [_lp_bytes(s) + [s.b_ub.tobytes()] for s in (fr.stage1, fr.stage2)] == prebuilt


_STAGE2_CASES = [((SchemeKind.ZYQT, 4, 3, 2), None), ((SchemeKind.ZYQT, 2, 5, 3), None),
                 ((SchemeKind.ZYQT, 3, 3, 2), None), ((SchemeKind.ZYQT, 3, 3, 2), _OFF_CLASS),
                 ((SchemeKind.OLR, 3, 5, 3), None), ((SchemeKind.ZTSL, 3, 4, 2), None)]


@pytest.mark.parametrize("instance, form", _STAGE2_CASES,
                         ids=[f"{i[0].value}-{i[1]}-{i[2]}-{i[3]}" + ("-off-class" if f else "")
                              for i, f in _STAGE2_CASES])
def test_stage2_lp_equals_reference_at_every_target(instance, form, monkeypatch):
    """At every target, the second LP handed to the solver is byte for byte
    the reference restacked from the first; one sweep stacks it once."""
    inst, tables, cost = setup_scheme(*instance)
    cost = form or cost
    targets = _OFF_CLASS_TARGETS if form else default_grid(cost, inst.alphabet.size, 9)
    fr = frontier(tables, cost)
    solved, stacks = [], []
    real_solve, real_vstack = optimizer.solve_lp, sparse.vstack
    monkeypatch.setattr(optimizer, "solve_lp",
                        lambda p: solved.append((p, real_solve(p))) or solved[-1][1])
    monkeypatch.setattr(sparse, "vstack",
                        lambda *args, **kw: stacks.append(args) or real_vstack(*args, **kw))
    points = [solve_tradeoff_point(fr, d, inst.params.lam, inst.dim) for d in targets]
    monkeypatch.undo()
    assert None not in points and len(stacks) == 1
    assert len(solved) == 2 * len(targets)
    for (first, sol), (second, _) in zip(solved[::2], solved[1::2]):
        want = _reference_with_leakage_cap(first, sol.objective + LEAKAGE_CAP_SLACK)
        assert second.a_ub.shape == want.a_ub.shape
        got, ref = (_lp_bytes(q) + [q.b_ub.tobytes()] for q in (second, want))
        assert got == ref


def test_reverse_sweep_equals_fresh_forward_sweep():
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
    grid = default_grid(cost, inst.alphabet.size, 9)
    fr = frontier(tables, cost)
    backward = [solve_tradeoff_point(fr, d, inst.params.lam, inst.dim) for d in reversed(grid)]
    assert backward[::-1] == _sweep_on((SchemeKind.ZYQT, 3, 3, 2), grid)


def _sweep_on(instance, grid, form=None):
    """One point per target on freshly built tables, with the download
    cost form unless another is given."""
    inst, tables, cost = setup_scheme(*instance)
    fr = frontier(tables, form or cost)
    return [solve_tradeoff_point(fr, d, inst.params.lam, inst.dim) for d in grid]


def test_alternating_cost_forms_match_fresh_tables():
    """One table serves two cost forms, each through its own Frontier."""
    instance = (SchemeKind.ZYQT, 3, 3, 2)
    inst, tables, cost = setup_scheme(*instance)
    download = default_grid(cost, inst.alphabet.size, len(_OFF_CLASS_TARGETS))
    frontiers = frontier(tables, cost), frontier(tables, _OFF_CLASS)
    got = ([], [])
    for targets in zip(download, _OFF_CLASS_TARGETS):
        for points, fr, target in zip(got, frontiers, targets):
            points.append(solve_tradeoff_point(fr, target, inst.params.lam, inst.dim))
    assert got[0] == _sweep_on(instance, download)
    assert got[1] == _sweep_on(instance, _OFF_CLASS_TARGETS, _OFF_CLASS)


@pytest.mark.parametrize("instance, form", [(i, None) for i in _REDUCED]
                         + [((SchemeKind.ZYQT, 3, 3, 2), _OFF_CLASS)],
                         ids=[f"{i[0].value}-{i[1]}" for i in _REDUCED] + ["zyqt-3-off-class"])
def test_representative_recheck_equals_full_rows(instance, form):
    """leakage_at on one scaled query per class equals leakage_at on every
    count row, at the class weights each target solves to."""
    inst, tables, cost = setup_scheme(*instance)
    cost = form or cost
    table = tables[0]
    targets = _OFF_CLASS_TARGETS if form else default_grid(cost, inst.alphabet.size, 7)
    red = frontier(tables, cost)
    for d in targets:
        sol = solve_lp(red.problem(d))
        w = optimizer._class_pmf(sol.x, red.sizes)
        common = math.lcm(*(v.denominator for v in w))
        numerators = [v.numerator * (common // v.denominator) for v in w]
        every_row = (table.counts @ class_indicator(red.strategy_class)).tocsr()
        assert red.by_class.shape[0] < every_row.shape[0]
        assert leakage_at(table, red.by_class, numerators, common) == leakage_at(
            table, every_row, numerators, common)


def _per_strategy_point(table, cost, d, x, lam, dim):
    """The exact re-check on the lifted vector, one Fraction per strategy."""
    z = normalize_pmf(x)
    val, d_achieved = maxl(table, z), cost.evaluate(z)
    snapped = tuple(v.limit_denominator(optimizer._SNAP_DENOMINATOR) for v in z)
    total = sum(snapped)
    if total > 0:
        snapped = tuple(v / total for v in snapped)
        if snapped != z:
            d_snapped = cost.evaluate(snapped)
            if d_snapped <= F(d):
                val_snapped = maxl(table, snapped)
                if val_snapped.raw_sum <= val.raw_sum:
                    z, val, d_achieved = snapped, val_snapped, d_snapped
    return (F(d), d_achieved, val.raw_sum, val.bits, val.normalized,
            F(lam * dim) / d_achieved, z)


@pytest.mark.parametrize("instance", _REDUCED, ids=lambda i: f"{i[0].value}-{i[1]}")
def test_class_recheck_matches_per_strategy(instance):
    inst, tables, cost = setup_scheme(*instance)
    lam, dim = inst.params.lam, inst.dim
    red = frontier(tables, cost)
    for d in default_grid(cost, inst.alphabet.size, 7):
        p = red.problem(d)
        sol = solve_lp(p)
        capped = solve_lp(_reference_with_leakage_cap(p, sol.objective + LEAKAGE_CAP_SLACK))
        w = (capped if capped.is_optimal else sol).x
        x = w[red.strategy_class]
        lifted = optimizer._class_pmf(w, red.sizes)
        assert tuple(lifted[c] for c in red.strategy_class) == normalize_pmf(x)
        pt = solve_tradeoff_point(red, d, lam, dim)
        assert (pt.d_target, pt.d_achieved, pt.leakage_sum, pt.leakage_bits,
                pt.leakage_normalized, pt.rate, pt.z) == _per_strategy_point(
                    tables[0], cost, d, x, lam, dim)


# SHA-256 over repr((d_target, d_achieved, leakage_sum, leakage_bits, rate))
# of every frontier point below: a change to any point's exact values or
# float digits changes it
FRONTIER_SHA256 = "97e1cfb76283576ffc5204f3841f66b3d7bad4306e9d00aaa4f476c3c25d6f9a"
# SHA-256 over repr(z) of the same points: an LP with several optimal
# vertices may return any of them, so this pins which one is returned
# (the reduced LP's, constant on every strategy class)
FRONTIER_Z_SHA256 = "a5e934b660a52c34575766a065df159d30af6cb1f827bdf30a10caafb9dca654"


@functools.lru_cache(maxsize=1)
def _frontier_points():
    cases = [(SchemeKind.OLR, 2, 3, 2, 9), (SchemeKind.ZTSL, 2, 3, 2, 9),
             (SchemeKind.ZYQT, 2, 3, 2, 9), (SchemeKind.ZYQT, 3, 3, 2, 9),
             (SchemeKind.ZTSL, 3, 4, 2, 7), (SchemeKind.ZYQT, 1, 3, 2, 5)]
    points = []
    for kind, m_files, n_servers, dim, grid in cases:
        inst = make_scheme(kind, m_files, n_servers, dim)
        tables = (build_query_table(inst, 1),)
        cost = download_cost_form(tables)
        size = inst.alphabet.size
        # the last target lies below every achievable cost
        targets = default_grid(cost, size, grid) + [cost.min_on_simplex(size) - 1]
        fr = frontier(tables, cost)
        points += [solve_tradeoff_point(fr, d, inst.params.lam, inst.dim) for d in targets]
    return points


def test_frontier_points_pinned():
    digest = hashlib.sha256()
    for pt in _frontier_points():
        digest.update(repr(None if pt is None else (
            pt.d_target, pt.d_achieved, pt.leakage_sum, pt.leakage_bits,
            pt.rate)).encode())
    assert digest.hexdigest() == FRONTIER_SHA256


def test_frontier_z_pinned():
    digest = hashlib.sha256()
    for pt in _frontier_points():
        digest.update(repr(None if pt is None else pt.z).encode())
    assert digest.hexdigest() == FRONTIER_Z_SHA256


# SHA-256 over repr((kind.value, step, d, (bits, argmin z))) of every oracle
# answer below: a change to any argmin, its tie-breaking or its bits
# changes it.  olr at step 1/30 spans two chunks, ztsl at 1/300 has
# total > 255, and zyqt has |S| = 36 with several nonzeros per row.
ORACLE_SHA256 = "fe2e9efe452f7d694b3f19b5315855379f52d1e378a36a2028ae271a02b8c363"


def _oracle_digest():
    targets = (F(2), F(5, 2), F(3), F(7, 2), F(4))
    cases = [(SchemeKind.OLR, F(1, 30), targets),
             (SchemeKind.ZTSL, F(1, 50), (F(3), F(13, 4), F(7, 2), F(15, 4), F(4))),
             (SchemeKind.ZTSL, F(1, 300), (F(7, 2), F(4))),
             (SchemeKind.ZYQT, F(1, 4), targets)]
    digest = hashlib.sha256()
    for kind, step, ds in cases:
        inst, tables, cost = setup_scheme(kind)
        for d in ds:
            result = brute_force_min_leakage(tables[0], cost, d, step=step)
            digest.update(repr((kind.value, step, d, result)).encode())
    return digest.hexdigest()


def test_oracle_outputs_pinned():
    assert _oracle_digest() == ORACLE_SHA256


@pytest.mark.parametrize("block", [64, optimizer._CHUNK])
def test_oracle_block_size_changes_nothing(monkeypatch, block):
    """Scoring in blocks of 64 points, or each chunk in one piece, gives
    the pinned answers."""
    monkeypatch.setattr("wpir.optimizer._BLOCK", block)
    assert _oracle_digest() == ORACLE_SHA256


@pytest.mark.parametrize("kind,step,block,ds", [
    pytest.param(SchemeKind.OLR, F(1, 30), 7, (F(5, 2), F(7, 2)), id="olr-step0-7"),
    pytest.param(SchemeKind.ZYQT, F(1, 4), 2, (F(5, 2), F(7, 2)), id="zyqt-step1-2"),
    pytest.param(SchemeKind.OLR, F(1, 30), 2, (F(2),), id="olr-step2-2"),
])
def test_oracle_blocks_cut_the_feasible_region(monkeypatch, kind, step, block, ds):
    """Block boundaries between two feasible points, and blocks that keep
    one point (a one-column product, which numpy sends to gemv), change
    no answer from scoring each chunk in one piece.  Chunks hold only
    feasible points, so a one-point block ends a chunk: olr at step 1/30
    and D = 2 has 31 feasible points, and blocks of 2 end on one."""
    inst, tables, cost = setup_scheme(kind)
    total, size = int(1 / step), inst.alphabet.size
    one = False
    for d in ds:
        cap = math.floor((d - cost.constant) * cost.denominator * total)
        lengths = [len(arr) for arr in
                   optimizer._composition_chunks(total, size, cost.dense(size), cap)]
        assert max(lengths) > block
        one |= any(n % block == 1 for n in lengths)
        monkeypatch.setattr("wpir.optimizer._BLOCK", optimizer._CHUNK)
        whole = brute_force_min_leakage(tables[0], cost, d, step=step)
        monkeypatch.setattr("wpir.optimizer._BLOCK", block)
        assert brute_force_min_leakage(tables[0], cost, d, step=step) == whole
    assert one


def test_composition_grid_count():
    assert grid_point_count(50, 3) == math.comb(52, 2)
    assert grid_point_count(4, 1) == 1


def _reference_compositions(total, size):
    """Every composition of total into size parts, one row each, in the
    itertools.combinations order of the dividers."""
    if size == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for dividers in combinations(range(total + size - 1), size - 1):
        prev = -1
        row = []
        for d in dividers:
            row.append(d - prev - 1)
            prev = d
        row.append(total + size - 2 - prev)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("total,size", [(5, 3), (4, 1), (6, 4), (3, 5), (10, 2),
                                        (1, 3), (7, 6), (300, 2), (2, 9)])
def test_composition_chunks_order_and_boundaries(monkeypatch, chunk, total, size):
    if chunk is not None:
        monkeypatch.setattr("wpir.optimizer._CHUNK", chunk)
    chunks = list(optimizer._composition_chunks(total, size))
    assert all(len(c) == optimizer._CHUNK for c in chunks[:-1])
    assert 1 <= len(chunks[-1]) <= optimizer._CHUNK
    got = np.concatenate(chunks)
    want = _reference_compositions(total, size)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert len(got) == grid_point_count(total, size)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("total,weights", [(6, (0, 0, 0, 0)), (5, (3, 3, 3)),
                                           (7, (2, 0, 5, 1, 3)), (4, (1, 2, 3, 0, 2, 1, 3)),
                                           (10, (4, 1)), (4, (2,)), (300, (1, 3))])
def test_capped_composition_chunks_equal_the_filtered_reference(monkeypatch, chunk, total,
                                                                weights):
    """Under a cap, the chunks hold exactly the reference rows whose cost
    is within it, in the same order; a cap below the cheapest row yields
    nothing, and one at or above the dearest gives the uncapped chunks."""
    if chunk is not None:
        monkeypatch.setattr("wpir.optimizer._CHUNK", chunk)
    cost = np.array(weights, dtype=np.int64)
    size = len(weights)
    want = _reference_compositions(total, size)
    costs = want @ cost
    levels = np.unique(costs).tolist()
    caps = {levels[0] - 1, levels[-1], levels[-1] + 3, *levels[:: max(1, len(levels) // 6)]}
    uncapped = list(optimizer._composition_chunks(total, size))
    for cap in sorted(caps):
        chunks = list(optimizer._composition_chunks(total, size, cost, cap))
        assert all(1 <= len(c) <= optimizer._CHUNK for c in chunks)
        assert all(c.dtype == np.int64 for c in chunks)
        got = np.concatenate(chunks) if chunks else np.zeros((0, size), dtype=np.int64)
        assert np.array_equal(got, want[costs <= cap])
        if cap >= levels[-1]:
            assert len(chunks) == len(uncapped)
            assert all(np.array_equal(a, b) for a, b in zip(chunks, uncapped))
    assert not list(optimizer._composition_chunks(total, size, cost, levels[0] - 1))


def test_oracle_refuses_an_infeasible_target_before_the_grid(monkeypatch):
    """A target below the cost form's minimum fails before any grid point
    is built."""
    inst, tables, cost = setup_scheme(SchemeKind.OLR)

    def unbuilt(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr("wpir.optimizer._composition_chunks", unbuilt)
    low = cost.min_on_simplex(inst.alphabet.size)
    for d in (low - F(1, 10**9), F(1)):
        with pytest.raises(ValueError, match="no grid point"):
            brute_force_min_leakage(tables[0], cost, d, step=F(1, 50))


def test_point_on_a_sloped_piece_lands_on_its_target():
    """Stage 2 spends its leakage slack walking down a sloped piece, below
    the target, to a point that does not snap; stage 1's answer, snapped,
    meets the target exactly and leaks less."""
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 4, 3, 2)
    d = F(242, 59)
    pt = solve_tradeoff_point(frontier(tables, cost), d, inst.params.lam, inst.dim)
    assert pt.d_achieved == d
    assert f"{pt.leakage_bits:.12g}" == "0.449711271718"
    assert f"{float(pt.rate):.12g}" == "0.487603305785"


def test_brute_force_matches_lp_ztsl():
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    fr = frontier(tables, cost)
    for d in (3, F(13, 4), F(7, 2), F(15, 4), 4):
        pt = solve_tradeoff_point(fr, d, 1, 2)
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


def test_brute_force_guards(monkeypatch):
    inst, tables, cost = setup_scheme(SchemeKind.OLR)
    with monkeypatch.context() as patched, pytest.raises(ResourceLimitError):
        patched.setattr("wpir.optimizer.DEFAULT_GRID_GUARD", 10)
        brute_force_min_leakage(tables[0], cost, 4, step=F(1, 50))
    with pytest.raises(ValueError):
        brute_force_min_leakage(tables[0], cost, 4, step=F(3, 100))
    for step in (F(0), F(2), F(-1, 5)):
        with pytest.raises(ValueError, match="step must lie in"):
            brute_force_min_leakage(tables[0], cost, 4, step=step)
    with pytest.raises(ValueError):
        brute_force_min_leakage(tables[0], cost, 1, step=F(1, 10))
    # a wide, shallow grid: few points, but points x |S| entries per chunk,
    # refused before any chunk is built
    with monkeypatch.context() as patched:
        patched.setattr("wpir.optimizer._composition_chunks", None)
        inst, tables, cost = setup_scheme(SchemeKind.ZYQT, 3, 3, 2)
        assert grid_point_count(2, inst.alphabet.size) <= optimizer.DEFAULT_GRID_GUARD
        with pytest.raises(ResourceLimitError, match="entries"):
            brute_force_min_leakage(tables[0], cost, 4, step=F(1, 2))
        inst, tables, cost = setup_scheme(SchemeKind.ZYQT)
        patched.setattr("wpir.optimizer.DEFAULT_GRID_GUARD", 36 * 36 - 1)
        with pytest.raises(ResourceLimitError, match="entries"):
            brute_force_min_leakage(tables[0], cost, 4, step=F(1))


_BODIES = [
    pytest.param("binding", marks=pytest.mark.skipif(
        optimizer._Highs is None, reason="this scipy has no HiGHS binding module")),
    "linprog",
]


def _on_body(monkeypatch, body):
    """Make the raw solve take `body`: the binding, or linprog forced."""
    if body == "linprog":
        monkeypatch.setattr(optimizer, "_Highs", None)


@pytest.mark.parametrize("body", _BODIES)
def test_solve_lp_rejects_duality_gap(monkeypatch, body):
    """A solver answer whose primal and dual objectives disagree is refused."""
    inst, tables, cost = setup_scheme(SchemeKind.ZTSL)
    p = reformulate(tables, cost, 4)
    _on_body(monkeypatch, body)
    real = optimizer._solve_raw

    def skewed(q):
        status, objective, *rest = real(q)
        return (status, objective + 1e-6, *rest)

    monkeypatch.setattr(optimizer, "_solve_raw", skewed)
    with pytest.raises(RuntimeError, match="duality gap"):
        solve_lp(p)


@pytest.mark.skipif(optimizer._Highs is None, reason="this scipy has no HiGHS binding module")
def test_solve_lp_raises_on_a_model_highs_rejects():
    """A matrix with a column index past c's length is refused at load."""
    p = LpProblem(
        n_z=1, c=np.array([-1.0, 0.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0, 1.0]])), b_ub=np.array([5.0]),
        a_eq=sparse.csr_matrix(np.array([[0.0, 2.0, 0.0]])), b_eq=np.array([1.0]))
    with pytest.raises(RuntimeError, match="rejected the model"):
        solve_lp(p)


def _sweep_lps(monkeypatch, instance, grid):
    """Every LP one sweep hands solve_lp, in order."""
    inst, tables, cost = setup_scheme(*instance)
    fr = frontier(tables, cost)
    lps, real = [], optimizer.solve_lp
    with monkeypatch.context() as patched:
        patched.setattr(optimizer, "solve_lp", lambda p: lps.append(p) or real(p))
        for d in default_grid(cost, inst.alphabet.size, grid):
            solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
    return lps


@pytest.mark.skipif(optimizer._Highs is None, reason="this scipy has no HiGHS binding module")
def test_binding_solves_bitwise_equal_to_linprog(monkeypatch):
    """The binding returns linprog's vertex, objective and duality gap bit
    for bit on every LP of three sweeps (the frontier benchmark's among
    them), on one interior-point full LP and on one LP with a variable at
    its upper bound, and says infeasible with linprog below the cost
    form's minimum."""
    lps = (_sweep_lps(monkeypatch, (SchemeKind.ZYQT, 4, 3, 2), 10)
           + _sweep_lps(monkeypatch, (SchemeKind.ZYQT, 2, 5, 3), 2)
           + _sweep_lps(monkeypatch, (SchemeKind.OLR, 2, 3, 2), 40))
    assert len(lps) == 2 * (10 + 2 + 40)
    inst, tables, cost = setup_scheme(SchemeKind.ZYQT)
    # min -z with t = 1/2: z sits at its upper bound, whose marginal is
    # the whole dual objective
    at_upper = LpProblem(
        n_z=1, c=np.array([-1.0, 0.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])), b_ub=np.array([5.0]),
        a_eq=sparse.csr_matrix(np.array([[0.0, 2.0]])), b_eq=np.array([1.0]))
    low = cost.min_on_simplex(inst.alphabet.size) - F(1, 10)
    lps += [at_upper, reformulate(tables, cost, F(7, 2)), frontier(tables, cost).problem(low)]

    def bits(sol):
        if not sol.is_optimal:
            return sol.status
        return sol.x.tobytes(), float(sol.objective).hex(), float(sol.duality_gap).hex()

    got = [bits(solve_lp(p)) for p in lps]
    _on_body(monkeypatch, "linprog")
    want = [bits(solve_lp(p)) for p in lps]
    assert got == want
    assert got[-1] == "infeasible" and got[-2] != "infeasible"


_CAPACITY = ([(kind, *p) for kind in SchemeKind for p in ((2, 3, 2), (2, 5, 3), (3, 3, 2))]
             + [(SchemeKind.ZYQT, 4, 3, 2), (SchemeKind.OLR, 3, 5, 3)])


@pytest.mark.parametrize("instance", _CAPACITY,
                         ids=lambda i: f"{i[0].value}-{i[1]}-{i[2]}-{i[3]}")
def test_zero_leakage_starts_at_mds_pir_capacity(instance):
    """Zero leakage (V = 1) is first reached at the capacity of PIR from
    MDS-coded storage, C = (1 - K/N) / (1 - (K/N)^M) (Banawan & Ulukus):
    exactly at D = lam K / C, and not 1/100 below it."""
    inst, tables, cost = setup_scheme(*instance)
    kind, m_files, n_servers, dim = instance
    ratio = F(dim, n_servers)
    capacity = (1 - ratio) / (1 - ratio ** m_files)
    d = inst.params.lam * dim / capacity
    fr = frontier(tables, cost)
    pt = solve_tradeoff_point(fr, d, inst.params.lam, dim)
    assert (pt.leakage_sum, pt.rate) == (1, capacity)
    below = solve_tradeoff_point(fr, d - F(1, 100), inst.params.lam, dim)
    assert below.leakage_sum > 1


@pytest.mark.parametrize("n_servers, dim", [(3, 2), (5, 3), (4, 2), (4, 3)])
def test_olr_and_zyqt_frontiers_equal_exactly_at_two_files(n_servers, dim):
    sweeps = []
    for kind in (SchemeKind.OLR, SchemeKind.ZYQT):
        inst, tables, cost = setup_scheme(kind, 2, n_servers, dim)
        grid = default_grid(cost, inst.alphabet.size, 9)
        fr = frontier(tables, cost)
        sums = [solve_tradeoff_point(fr, d, inst.params.lam, dim).leakage_sum for d in grid]
        sweeps.append((grid, sums))
    assert sweeps[0] == sweeps[1]

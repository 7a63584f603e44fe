"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`;
the verbose test status lines carry the same information).  Expected values
are frozen from independent derivations; tolerances are stated inline.
"""
import math
import time
from fractions import Fraction as F
from functools import lru_cache

from forms import coeffs, views
from wpir.fields import PrimeField, smallest_prime_at_least
from wpir.leakage import (
    build_all_tables,
    download_cost_form,
    maxl,
    uniform_pmf,
)
from wpir.mds import make_rs_code
from wpir.optimizer import (
    brute_force_min_leakage,
    default_grid,
    frontier,
    reformulate,
    solve_lp,
    solve_tradeoff_point,
)
from wpir.protocol import simulate_downloads, verify_retrievability
from wpir.schemes import QueryMatrix, SchemeKind, make_scheme
from wpir.storage import FileSet, encode_storage

THIRD = F(1, 3)

# Frozen (2,3,2) tables: (query rows, 1-based strategy label per m, length).
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


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def bundle(kind: SchemeKind, m_files: int, n_servers: int, dim: int):
    inst = make_scheme(kind, m_files, n_servers, dim)
    tables = build_all_tables(inst)
    cost = download_cost_form(tables)
    return inst, tables, cost


def stage1_bits(tables, cost, d_target) -> float:
    sol = solve_lp(reformulate(tables, cost, d_target))
    assert sol.is_optimal
    return math.log2(max(sol.objective, 1.0))


def test_criterion_01_strategy_cardinalities():
    ztsl = make_scheme(SchemeKind.ZTSL, 2, 3, 2).alphabet
    olr2 = make_scheme(SchemeKind.OLR, 2, 3, 2).alphabet
    big_zyqt = make_scheme(SchemeKind.ZYQT, 3, 5, 3).alphabet
    big_olr = make_scheme(SchemeKind.OLR, 3, 5, 3).alphabet
    selectors = {((0, 1),), ((0, 2),), ((1, 0),), ((1, 2),), ((2, 0),), ((2, 1),)}
    olr2_entries = {tuple(sel.entries for sel in mem) for mem in olr2.members}
    ok = (
        set(ztsl.members) == {(0, 0), (1, 2), (2, 1)}
        and ztsl.size == 3
        and olr2_entries == selectors
        and olr2.size == 6
        and big_zyqt.size == 216000
        and big_olr.size == 1500
    )
    report(1, ok, f"|ztsl(3,M=2)|={ztsl.size}, |olr(3,2,M=2)|={olr2.size}, "
                  f"|zyqt(5,3,M=3)|={big_zyqt.size}, |olr(5,3,M=3)|={big_olr.size}")


def _marginal_coeffs(forms, q):
    merged = {}
    for form in forms[q]:
        for idx, c in coeffs(form).items():
            merged[idx] = merged.get(idx, F(0)) + c / len(forms[q])
    return merged


def _table_matches(table, frozen) -> bool:
    if len(table.queries) != len(frozen):
        return False
    forms, lengths = views(table)
    for rows, labels, ell in frozen:
        q = QueryMatrix(tuple(tuple(r) for r in rows))
        if q not in forms or lengths[q] != ell:
            return False
        for m, z in enumerate(labels, start=1):
            form = forms[q][m - 1]
            if form.constant != 0 or coeffs(form) != {z - 1: THIRD}:
                return False
        expect = (
            {labels[0] - 1: THIRD}
            if labels[0] == labels[1]
            else {labels[0] - 1: F(1, 6), labels[1] - 1: F(1, 6)}
        )
        if _marginal_coeffs(forms, q) != expect:
            return False
    return True


def test_criterion_02_table_reproduction():
    _, tz, _ = bundle(SchemeKind.ZTSL, 2, 3, 2)
    _, to, _ = bundle(SchemeKind.OLR, 2, 3, 2)
    ok_z = _table_matches(tz[0], ZTSL_232_TABLE)
    shown = {QueryMatrix(tuple(tuple(r) for r in rows)) for rows, _, _ in OLR_232_SUBSET}
    ok_o = (
        all(q in views(to[0])[0] for q in shown)
        and _table_matches_subset(to[0], OLR_232_SUBSET)
        and [e for _, _, e in OLR_232_SUBSET] == [1, 1, 1, 0, 1, 0, 2, 1, 2]
    )
    report(2, ok_z and ok_o,
           "ztsl 9/9 queries and olr 9/9 frozen columns match exactly "
           "(conditionals, marginals, lengths)")


def _table_matches_subset(table, frozen) -> bool:
    forms, lengths = views(table)
    for rows, labels, ell in frozen:
        q = QueryMatrix(tuple(tuple(r) for r in rows))
        if q not in forms or lengths[q] != ell:
            return False
        for m, z in enumerate(labels, start=1):
            form = forms[q][m - 1]
            if form.constant != 0 or coeffs(form) != {z - 1: THIRD}:
                return False
    return True


def test_criterion_03_cost_forms():
    _, _, cz = bundle(SchemeKind.ZTSL, 2, 3, 2)
    _, _, co = bundle(SchemeKind.OLR, 2, 3, 2)
    ok = (
        cz.constant == 3
        and coeffs(cz) == {0: F(1)}
        and co.constant == 2
        and coeffs(co) == {0: F(2), 1: F(2), 2: F(2), 4: F(2)}
    )
    report(3, ok, "D_ztsl(z) = 3 + z1 and D_olr(z) = 2 + 2(z1+z2+z3+z5), "
                  "by coefficient comparison")


def test_criterion_04_perfect_retrievability():
    seed = 2024
    cases = (
        [(k, 2, 3, 2) for k in SchemeKind]
        + [(k, 3, 3, 2) for k in SchemeKind]
        + [(SchemeKind.OLR, 2, 5, 3)]
    )
    total = 0
    failures = []
    for kind, m_files, n_servers, dim in cases:
        inst = make_scheme(kind, m_files, n_servers, dim)
        code = make_rs_code(n_servers, dim, PrimeField(smallest_prime_at_least(n_servers)))
        files = FileSet.random(m_files, inst.params.lam, dim, code.field, seed=seed)
        storage = encode_storage(files, code)
        rep = verify_retrievability(inst, storage, mode="exhaustive")
        total += rep.total
        failures.extend(rep.failures)
    report(4, not failures,
           f"{total} exhaustive retrievals across 7 instances, "
           f"{len(failures)} decode failures (files seed={seed})")


def test_criterion_05_tradeoff_endpoints():
    tol = 1e-6
    ok = True
    rates_low, rates_high = {}, {}
    for kind in SchemeKind:
        inst, tables, cost = bundle(kind, 2, 3, 2)
        d_uniform = cost.evaluate(uniform_pmf(inst.alphabet.size))
        d_min = cost.min_on_simplex(inst.alphabet.size)
        fr = frontier(tables, cost)
        lo = solve_tradeoff_point(fr, d_uniform, inst.params.lam, inst.dim)
        hi = solve_tradeoff_point(fr, d_min, inst.params.lam, inst.dim)
        rates_low[kind] = float(lo.rate)
        rates_high[kind] = float(hi.rate)
        ok = ok and abs(lo.leakage_bits) <= 1e-9 and abs(float(lo.rate) - 0.6) <= tol
    ok = (
        ok
        and abs(rates_high[SchemeKind.ZYQT] - 1.0) <= tol
        and abs(rates_high[SchemeKind.OLR] - 1.0) <= tol
        and abs(rates_high[SchemeKind.ZTSL] - 2 / 3) <= tol
    )
    report(5, ok,
           f"zero-leakage rate 0.6 for all three at (2,3,2); max rates "
           f"zyqt={rates_high[SchemeKind.ZYQT]:.6f}, olr={rates_high[SchemeKind.OLR]:.6f}, "
           f"ztsl={rates_high[SchemeKind.ZTSL]:.6f}")


def test_criterion_06_curve_ordering():
    tol_dom, tol_eq = 1e-6, 1e-4
    worst_dom = -math.inf
    for m_files in (2, 3, 4):
        inst_z, tz, cz = bundle(SchemeKind.ZTSL, m_files, 3, 2)
        _, ty, cy = bundle(SchemeKind.ZYQT, m_files, 3, 2)
        lo = cz.min_on_simplex(inst_z.alphabet.size)
        hi = cz.evaluate(uniform_pmf(inst_z.alphabet.size))
        for i in range(9):
            d = lo + (hi - lo) * F(i, 8)
            gap = stage1_bits(ty, cy, d) - stage1_bits(tz, cz, d)
            worst_dom = max(worst_dom, gap)
    worst_eq = 0.0
    for n_servers, dim in ((3, 2), (5, 3)):
        inst_o, to, co = bundle(SchemeKind.OLR, 2, n_servers, dim)
        _, ty, cy = bundle(SchemeKind.ZYQT, 2, n_servers, dim)
        lo = co.min_on_simplex(inst_o.alphabet.size)
        hi = co.evaluate(uniform_pmf(inst_o.alphabet.size))
        for i in range(9):
            d = lo + (hi - lo) * F(i, 8)
            worst_eq = max(worst_eq, abs(stage1_bits(to, co, d) - stage1_bits(ty, cy, d)))
    ok = worst_dom <= tol_dom and worst_eq <= tol_eq
    report(6, ok,
           f"zyqt-minus-ztsl leakage gap <= {worst_dom:.2e} at (3,2) M in 2..4; "
           f"olr/zyqt curves differ by <= {worst_eq:.2e} at M=2 for (3,2) and (5,3)")


def test_criterion_07_per_server_leakage_equal():
    worst_points = 0
    checked = 0
    for kind in SchemeKind:
        inst, tables, cost = bundle(kind, 2, 3, 2)
        fr = frontier(tables, cost)
        for d in default_grid(cost, inst.alphabet.size, 7):
            pt = solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
            if pt is None:
                continue
            sums = {maxl(tb, pt.z).raw_sum for tb in tables}
            checked += 1
            if len(sums) != 1:
                worst_points += 1
    report(7, checked > 0 and worst_points == 0,
           f"per-server leakage exactly equal (rational) at all {checked} sweep points")


def test_criterion_08_lp_vs_grid_oracle():
    step, slack = F(1, 50), 0.05
    ok = True
    gaps = []
    targets = {
        SchemeKind.ZTSL: [F(3), F(13, 4), F(7, 2), F(15, 4), F(4)],
        SchemeKind.OLR: [F(2), F(5, 2), F(3), F(7, 2), F(4)],
    }
    ztsl_midpoint_gap = None
    for kind, ds in targets.items():
        inst, tables, cost = bundle(kind, 2, 3, 2)
        fr = frontier(tables, cost)
        for d in ds:
            pt = solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
            grid_bits, _ = brute_force_min_leakage(tables[0], cost, d, step=step)
            gap = grid_bits - pt.leakage_bits
            gaps.append(gap)
            ok = ok and gap >= -1e-9 and gap <= slack
            if kind is SchemeKind.ZTSL and d == F(7, 2):
                ztsl_midpoint_gap = gap
    ok = ok and ztsl_midpoint_gap is not None and ztsl_midpoint_gap <= 0.02
    report(8, ok,
           f"0.02-step grid never beats the LP (min gap {min(gaps):+.2e}) and "
           f"stays within {slack} bits (max gap {max(gaps):.3f}) over 10 targets")


def test_criterion_09_value_function_shape():
    # The optimal leakage sum (the 2**bits form the LP minimizes) is convex
    # in the download budget; its log is flat-or-concave on linear segments,
    # so monotonicity is checked in bits and convexity on the sum itself.
    tol = 1e-6
    ok = True
    for kind in SchemeKind:
        inst, tables, cost = bundle(kind, 2, 3, 2)
        fr = frontier(tables, cost)
        pts = []
        for d in default_grid(cost, inst.alphabet.size, 9):
            pt = solve_tradeoff_point(fr, d, inst.params.lam, inst.dim)
            if pt is not None:
                pts.append((float(pt.d_target), float(pt.leakage_sum), pt.leakage_bits))
        ok = ok and len(pts) >= 3
        for (_, _, b0), (_, _, b1) in zip(pts, pts[1:]):
            ok = ok and b1 <= b0 + 1e-9
        for (x0, v0, _), (x1, v1, _), (x2, v2, _) in zip(pts, pts[1:], pts[2:]):
            chord = v0 + (v2 - v0) * (x1 - x0) / (x2 - x0)
            ok = ok and v1 <= chord + tol
    report(9, ok, "optimal leakage nonincreasing in the budget and convex "
                  "(chord test on the sum form, tol 1e-6) on all three sweeps")


def test_criterion_10_simulation_consistency():
    seed, count = 12345, 100_000
    inst, tables, cost = bundle(SchemeKind.ZTSL, 2, 3, 2)
    z = (F(1, 2), F(1, 4), F(1, 4))
    analytic = float(cost.evaluate(z))
    stats = simulate_downloads(inst, z, count=count, seed=seed)
    rel_err = abs(stats.mean_downloaded - analytic) / analytic
    worst_dev = 0.0
    prior = F(1, inst.m_files)
    for j in range(1, inst.n_servers + 1):
        forms, _ = views(tables[j - 1])
        for q, per_m in forms.items():
            p = float(sum((form.evaluate(z) * prior for form in per_m), F(0)))
            se = math.sqrt(p * (1 - p) / count)
            emp = stats.query_counts[j].get(q, 0) / count
            if se > 0:
                worst_dev = max(worst_dev, abs(emp - p) / se)
    ok = rel_err <= 0.01 and worst_dev <= 3.0
    report(10, ok,
           f"{count} simulated retrievals (seed={seed}): mean download "
           f"rel. err {rel_err:.2e} (< 1%), worst query-frequency deviation "
           f"{worst_dev:.2f} standard errors (< 3)")

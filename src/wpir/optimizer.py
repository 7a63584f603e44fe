"""Rate-leakage trade-off engine.

Minimizing maximal leakage under a download-cost cap is convex; because
log2 is monotone it reduces to a linear program over the strategy PMF z
with one epigraph variable per reachable query.  A second LP pass then
pushes the download cost down to the lower envelope at the optimal
leakage.  A brute-force simplex-grid search validates the LP from below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .leakage import (
    ConditionalQueryTable,
    LinearForm,
    ResourceLimitError,
    maxl,
    normalize_pmf,
    shared_table,
)

# epigraph slack when capping stage-2 leakage at the stage-1 optimum
LEAKAGE_CAP_SLACK = 1e-9
# largest |primal - dual| objective gap accepted from the solver
MAX_DUALITY_GAP = 1e-9
# largest barycentric grid enumerated by the brute-force oracle
DEFAULT_GRID_GUARD = 5_000_000
_CHUNK = 250_000
# solver outputs sit within float tolerance of a rational face; snapping
# is accepted only when it does not worsen the exact cost or leakage
_SNAP_DENOMINATOR = 1_000_000


@dataclass(frozen=True)
class LpProblem:
    """min c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, 0 <= x <= 1.

    Variables are the n_z strategy probabilities followed by one
    epigraph variable per query.
    """

    n_z: int
    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    x: np.ndarray | None  # the solver's float strategy weights
    duality_gap: float | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _cost_vector(cost_form: LinearForm, size: int) -> np.ndarray:
    """The cost form's coefficients as a dense float vector."""
    c = np.zeros(size)
    for i, v in cost_form.coeffs.items():
        c[i] = float(v)
    return c


def reformulate(tables, cost_form: LinearForm, d_target) -> LpProblem:
    """Epigraph LP for one download-cost target.

    Stacks t_q >= P(q|m)(z) for every query and file, the cost cap, and
    the PMF normalization; log2 of the optimal objective is the leakage.
    Row qi*M + m-1 is the table's count row over N followed by -1 on t_q.
    """
    table = shared_table(tables)
    counts = table.counts
    n_z = table.alphabet_size
    n_t = len(table.queries)
    n_rows = counts.shape[0]
    ends = counts.indptr[1:]
    epigraph_cols = n_z + np.arange(n_rows) // table.m_files
    cost = _cost_vector(cost_form, n_z)
    cost_cols = np.flatnonzero(cost)
    data = np.concatenate(
        [np.insert(counts.data / table.n_servers, ends, -1.0), cost[cost_cols]]
    )
    indices = np.concatenate(
        [np.insert(counts.indices, ends, epigraph_cols), cost_cols]
    )
    indptr = np.concatenate([counts.indptr + np.arange(n_rows + 1), [data.size]])
    a_ub = sparse.csr_matrix(
        (data, indices, indptr), shape=(n_rows + 1, n_z + n_t)
    )
    b_ub = np.full(n_rows + 1, -0.0)
    b_ub[-1] = float(Fraction(d_target) - cost_form.constant)
    a_eq = sparse.csr_matrix(
        (np.ones(n_z), (np.zeros(n_z, dtype=int), np.arange(n_z))),
        shape=(1, n_z + n_t),
        dtype=float,
    )
    c = np.concatenate([np.zeros(n_z), np.ones(n_t)])
    return LpProblem(
        n_z=n_z,
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=np.array([1.0]),
    )


def _with_leakage_cap(p: LpProblem, cap: float) -> LpProblem:
    """Swap the objective to the download cost (the last row of a_ub),
    capping total leakage."""
    n_t = p.c.size - p.n_z
    cap_row = sparse.csr_matrix(
        (np.ones(n_t), (np.zeros(n_t, dtype=int), p.n_z + np.arange(n_t))),
        shape=(1, p.c.size),
        dtype=float,
    )
    return LpProblem(
        n_z=p.n_z,
        c=p.a_ub[-1].toarray().ravel(),
        a_ub=sparse.vstack([p.a_ub, cap_row], format="csr"),
        b_ub=np.concatenate([p.b_ub, [cap]]),
        a_eq=p.a_eq,
        b_eq=p.b_eq,
    )


def solve_lp(p: LpProblem) -> LpSolution:
    res = linprog(
        p.c,
        A_ub=p.a_ub,
        b_ub=p.b_ub,
        A_eq=p.a_eq,
        b_eq=p.b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(
            status="infeasible", objective=None, x=None, duality_gap=None
        )
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    # strong duality: c.x equals the rhs-weighted sum of the marginals
    dual = (
        p.b_ub @ res.ineqlin.marginals
        + p.b_eq @ res.eqlin.marginals
        + np.sum(res.upper.marginals * 1.0)
    )
    gap = abs(float(res.fun) - float(dual))
    if gap > MAX_DUALITY_GAP:
        raise RuntimeError(
            f"LP solver certificate fails: duality gap {gap:.3e} exceeds "
            f"{MAX_DUALITY_GAP:g}"
        )
    # a copy: a view would keep the solver's whole result alive
    return LpSolution(
        status="optimal", objective=float(res.fun), x=res.x[: p.n_z].copy(),
        duality_gap=gap,
    )


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the optimal leakage/download frontier."""

    d_target: Fraction
    d_achieved: Fraction
    leakage_sum: Fraction
    leakage_bits: float
    leakage_normalized: float
    rate: Fraction
    z: tuple[Fraction, ...]


def solve_tradeoff_point(tables, cost_form: LinearForm, d_target, lam: int, dim: int):
    """Optimal leakage at one cost target, then the cheapest cost achieving
    it, made exact.  Returns None when the target is infeasible."""
    table = shared_table(tables)
    p = reformulate(tables, cost_form, d_target)
    sol = solve_lp(p)
    if not sol.is_optimal:
        return None
    capped = solve_lp(_with_leakage_cap(p, sol.objective + LEAKAGE_CAP_SLACK))
    z = normalize_pmf((capped if capped.is_optimal else sol).x)
    val, d_achieved = maxl(table, z), cost_form.evaluate(z)
    snapped = tuple(v.limit_denominator(_SNAP_DENOMINATOR) for v in z)
    total = sum(snapped)
    if total > 0:
        snapped = tuple(v / total for v in snapped)
        if snapped != z:
            d_snapped = cost_form.evaluate(snapped)
            if d_snapped <= Fraction(d_target):
                val_snapped = maxl(table, snapped)
                if val_snapped.raw_sum <= val.raw_sum:
                    z, val, d_achieved = snapped, val_snapped, d_snapped
    return TradeoffPoint(
        d_target=Fraction(d_target),
        d_achieved=d_achieved,
        leakage_sum=val.raw_sum,
        leakage_bits=val.bits,
        leakage_normalized=val.normalized,
        rate=Fraction(lam * dim) / d_achieved,
        z=z,
    )


def default_grid(cost_form: LinearForm, size: int, grid_size: int = 60):
    """Evenly spaced cost targets spanning the simplex extremes of D."""
    lo = cost_form.min_on_simplex(size)
    hi = cost_form.max_on_simplex(size)
    if grid_size < 2 or lo == hi:
        return [hi]
    return [lo + (hi - lo) * Fraction(i, grid_size - 1) for i in range(grid_size)]


def _composition_chunks(total: int, size: int, chunk: int = _CHUNK):
    """Integer vectors of the given size summing to total, chunked."""
    if size == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    buf = []
    for dividers in combinations(range(total + size - 1), size - 1):
        prev = -1
        row = []
        for d in dividers:
            row.append(d - prev - 1)
            prev = d
        row.append(total + size - 2 - prev)
        buf.append(row)
        if len(buf) == chunk:
            yield np.array(buf, dtype=np.int64)
            buf = []
    if buf:
        yield np.array(buf, dtype=np.int64)


def grid_point_count(total: int, size: int) -> int:
    return math.comb(total + size - 1, size - 1)


def brute_force_min_leakage(
    table: ConditionalQueryTable,
    cost_form: LinearForm,
    d_target,
    step: Fraction = Fraction(1, 50),
    guard: int = DEFAULT_GRID_GUARD,
):
    """Minimum leakage over a barycentric PMF grid under the cost cap.

    Returns (bits, argmin PMF); independent of the LP by construction.
    """
    step = Fraction(step)
    total = int(1 / step)
    if Fraction(1, total) != step:
        raise ValueError(f"step must divide 1 exactly, got {step}")
    size = table.alphabet_size
    count = grid_point_count(total, size)
    if count > guard:
        raise ResourceLimitError(
            f"grid has {count} points for |S|={size} at step {step}, budget {guard}"
        )
    cost_vec = _cost_vector(cost_form, size)
    cost_cap = float(Fraction(d_target) - cost_form.constant) + 1e-9
    # per-m coefficient matrices, queries x strategies
    probs = table.counts.toarray() / table.n_servers
    per_m = [
        np.ascontiguousarray(probs[m :: table.m_files]) for m in range(table.m_files)
    ]
    best_sum = None
    best_row = None
    for arr in _composition_chunks(total, size):
        z = arr / float(total)
        feasible = z @ cost_vec <= cost_cap
        if not feasible.any():
            continue
        zf = z[feasible]
        acc = per_m[0] @ zf.T
        for mat in per_m[1:]:
            np.maximum(acc, mat @ zf.T, out=acc)
        sums = acc.sum(axis=0)
        idx = int(np.argmin(sums))
        if best_sum is None or sums[idx] < best_sum:
            best_sum = float(sums[idx])
            best_row = arr[feasible][idx]
    if best_sum is None:
        raise ValueError(f"no grid point satisfies download cost <= {d_target}")
    z_best = tuple(Fraction(int(v), total) for v in best_row)
    # floats only picked the argmin; report its exact leakage
    exact = maxl(table, z_best).raw_sum
    return math.log2(exact), z_best

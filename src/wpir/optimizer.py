"""Rate-leakage trade-off engine.

Minimizing maximal leakage under a download-cost cap is convex; because
log2 is monotone it reduces to a linear program over the strategy PMF z
with one epigraph variable per reachable query.  One assembly builds that
LP on any partition of the table's integer epigraph matrix: the matrix
summed over each column class, one representative row per row class.
The full LP is its discrete case.  Each point is solved on the coarsest
equitable partition: one weight per class of strategies the LP cannot
tell apart, one epigraph variable per class of queries, and one row per
class of rows; that LP has the full LP's optimum, and its answer lifts to
a z constant on each class.  A sweep builds one Frontier per table and
cost form.  It holds that LP and, stacked from it on first read, the
second pass's LP, which pushes the download cost down to the lower
envelope at the optimal leakage; each cost target only sets their caps.
Each LP goes straight to HiGHS through the binding that scipy's linprog
calls, with linprog's options, so it returns linprog's vertex without
linprog's per-call input checks; linprog itself solves only where scipy
has no such binding, and every answer's duality gap is checked.
The exact re-check sums one representative query per query class,
weighted by the class size.  A brute-force search validates the LP from
below: it builds and scores only the simplex grid points whose exact cost
is within the cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

try:
    # the HiGHS binding linprog itself calls; scipy.optimize has loaded it
    from scipy.optimize._highspy._core import (
        HighsBasisStatus,
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
    )
except ImportError:  # scipy releases before the binding: linprog solves
    _Highs = None

from .leakage import (
    ConditionalQueryTable,
    LinearForm,
    ResourceLimitError,
    class_indicator,
    epigraph_matrix,
    equitable_partition,
    leakage_at,
    maxl,
    over_common_denominator,
    shared_table,
)

# epigraph slack when capping stage-2 leakage at the stage-1 optimum
LEAKAGE_CAP_SLACK = 1e-9
# largest |primal - dual| objective gap accepted from the solver
MAX_DUALITY_GAP = 1e-9
# the options linprog sets on HiGHS: quiet, presolve on, dual simplex
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", 0),
    ("presolve", "on"),
    ("simplex_strategy", 1),
)
# largest barycentric grid enumerated by the brute-force oracle
DEFAULT_GRID_GUARD = 5_000_000
_CHUNK = 250_000
# grid points the oracle scores at once: a queries x _BLOCK accumulator
# stays in cache, where a whole chunk's would stream through memory
_BLOCK = 4096
# solver outputs sit within float tolerance of a rational face; snapping
# is accepted only when it does not worsen the exact cost or leakage
_SNAP_DENOMINATOR = 1_000_000


@dataclass(frozen=True)
class LpProblem:
    """min c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, 0 <= x <= 1.

    Variables are the n_z strategy probabilities followed by one
    epigraph variable per query; in a reduced LP, one per class of
    strategies and one per class of queries, each weighted by its class
    size in c and a_eq.  The last row of a_ub is the cost cap.  `method`
    selects HiGHS's solver: the full LP solves faster by interior point
    ("highs-ipm"), and the Frontier LPs keep "highs", dual simplex, whose
    optimal vertex the pinned frontier points record.
    """

    n_z: int
    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    method: str = "highs"


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    x: np.ndarray | None  # the solver's float strategy weights
    duality_gap: float | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def reformulate(tables, cost_form: LinearForm, d_target) -> LpProblem:
    """Epigraph LP for one download-cost target.

    Stacks t_q >= P(q|m)(z) for every query and file, the cost cap, and
    the PMF normalization; log2 of the optimal objective is the leakage.
    Row qi*M + m-1 is the table's count row over N followed by -1 on t_q.
    It is _assemble on the discrete partition, solved by interior point:
    nothing reads which of several optimal vertices it returns.
    """
    table = shared_table(tables)
    n_rows, n_z = table.counts.shape
    cols = np.arange(n_z + len(table.keys))
    p = _assemble(table, np.arange(n_rows), cols, cost_form).problem(d_target)
    return replace(p, method="highs-ipm")


def _solve_raw(p: LpProblem):
    """(status, objective, x, row duals, upper-bound marginals) from HiGHS.

    status is "optimal", "infeasible" or the solver's message; the rest
    are None unless it is "optimal".  The row duals are a_ub's rows, then
    a_eq's.  Through the binding, HiGHS gets the LP and the options that
    linprog gives it, row-wise instead of stacked column-wise, which HiGHS
    converts to the same matrix, so it returns the same vertex; a fresh
    solver per call keeps the pivot path.  Without the binding, linprog
    solves.
    """
    if _Highs is None:
        res = linprog(
            p.c,
            A_ub=p.a_ub,
            b_ub=p.b_ub,
            A_eq=p.a_eq,
            b_eq=p.b_eq,
            bounds=(0.0, 1.0),
            method=p.method,
        )
        if res.status != 0:
            return "infeasible" if res.status == 2 else res.message, None, None, None, None
        row_dual = np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
        return "optimal", res.fun, res.x, row_dual, res.upper.marginals
    n, n_ub = p.c.size, p.a_ub.shape[0]
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = n_ub + p.a_eq.shape[0]
    lp.a_matrix_.format_ = MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.concatenate([p.a_ub.indptr, p.a_eq.indptr[1:] + p.a_ub.nnz])
    lp.a_matrix_.index_ = np.concatenate([p.a_ub.indices, p.a_eq.indices])
    lp.a_matrix_.value_ = np.concatenate([p.a_ub.data, p.a_eq.data])
    lp.col_cost_ = p.c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.ones(n)
    lp.row_lower_ = np.concatenate([np.full(n_ub, -kHighsInf), p.b_eq])
    lp.row_upper_ = np.concatenate([p.b_ub, p.b_eq])
    highs = _Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    if p.method == "highs-ipm":
        highs.setOptionValue("solver", "ipm")
    if highs.passModel(lp) == HighsStatus.kError:
        return "HiGHS rejected the model", None, None, None, None
    highs.run()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        return "infeasible", None, None, None, None
    if status != HighsModelStatus.kOptimal:
        return highs.modelStatusToString(status), None, None, None, None
    solution = highs.getSolution()
    at_upper = np.array(highs.getBasis().col_status, dtype=np.int8) == int(HighsBasisStatus.kUpper)
    upper = np.where(at_upper, solution.col_dual, 0.0)
    return (
        "optimal", highs.getInfo().objective_function_value,
        np.array(solution.col_value), np.array(solution.row_dual), upper,
    )


def solve_lp(p: LpProblem) -> LpSolution:
    status, objective, x, row_dual, upper = _solve_raw(p)
    if status == "infeasible":
        return LpSolution(
            status="infeasible", objective=None, x=None, duality_gap=None
        )
    if status != "optimal":
        raise RuntimeError(f"LP solver failed: {status}")
    # strong duality: c.x equals the rhs-weighted sum of the marginals
    n_ub = p.a_ub.shape[0]
    dual = (
        p.b_ub @ row_dual[:n_ub]
        + p.b_eq @ row_dual[n_ub:]
        + np.sum(upper * 1.0)
    )
    gap = abs(float(objective) - float(dual))
    if gap > MAX_DUALITY_GAP:
        raise RuntimeError(
            f"LP solver certificate fails: duality gap {gap:.3e} exceeds "
            f"{MAX_DUALITY_GAP:g}"
        )
    # a copy: a view would keep the solver's whole result alive
    return LpSolution(
        status="optimal", objective=float(objective), x=x[: p.n_z].copy(),
        duality_gap=gap,
    )


@dataclass(frozen=True, eq=False)
class Frontier:
    """The trade-off LP of one table and cost form on the classes of a
    partition, built once per sweep: each cost target sets only caps.

    x = P w: every strategy of class C has probability w[C], and every
    query of a class shares one epigraph variable.  `stage1` minimizes
    the leakage; the last entry of its b_ub, the cost cap, is left at 0.
    `stage2`, built from stage1 on first read, minimizes the download
    cost, stage1's last a_ub row, under stage1's rows and then its
    objective as a leakage cap; its last two caps are left at 0.
    `strategy_class[s]` is s's class, `sizes[C]` its number of members,
    and `cost[C]` the cost form's numerators summed over C, over the
    form's denominator.  `by_class` holds, for each query
    class, the M count rows of its first query summed over each strategy
    class and times the query class's size: every query of a class meets
    the same number of rows of each row class, so it has the same largest
    P(q|m), and the per-query maxima sum as over all rows.  Of the table
    it keeps only M and N, which the exact re-check reads.
    """

    m_files: int
    n_servers: int
    cost_form: LinearForm
    stage1: LpProblem
    strategy_class: np.ndarray
    sizes: list[int]
    cost: np.ndarray  # int64
    by_class: sparse.csr_matrix

    @cached_property
    def stage2(self) -> LpProblem:
        s1 = self.stage1
        return LpProblem(n_z=s1.n_z, c=s1.a_ub[-1].toarray().ravel(),
                         a_ub=sparse.vstack([s1.a_ub, sparse.csr_matrix(s1.c)], format="csr"),
                         b_ub=np.full(s1.a_ub.shape[0] + 1, -0.0), a_eq=s1.a_eq, b_eq=s1.b_eq)

    def problem(self, d_target) -> LpProblem:
        """stage1 with the cost cap at d_target, on a b_ub of its own."""
        b_ub = self.stage1.b_ub.copy()
        b_ub[-1] = float(Fraction(d_target) - self.cost_form.constant)
        return replace(self.stage1, b_ub=b_ub)

    def _exact(self, w):
        """Exact leakage and cost at the class probabilities w."""
        numerators, common = over_common_denominator(w)
        cost = sum(c * v for c, v in zip(self.cost.tolist(), numerators))
        d = self.cost_form.constant + Fraction(cost, self.cost_form.denominator * common)
        return leakage_at(self, self.by_class, numerators, common), d


def _partition(table: ConditionalQueryTable, cost_form: LinearForm):
    """Coarsest equitable partition of epigraph_matrix(table) on which the
    cost form is constant (equitable_partition).

    Strategies start colored by their cost numerator, an absent one as 0,
    and the queries share one color of their own.  The LP's all-ones
    normalization row and its [0, 1] bounds are the same on every
    strategy, so they split no class and are left out.
    """
    colors = cost_form.dense(table.alphabet_size)
    cols = np.append(colors, np.full(len(table.keys), colors.max() + 1))
    return equitable_partition(epigraph_matrix(table),
                               np.zeros(table.counts.shape[0], dtype=np.int64), cols)


def _assemble(table: ConditionalQueryTable, rows, cols, cost_form: LinearForm) -> Frontier:
    """The Frontier on a partition of epigraph_matrix(table): `rows`
    labels its rows and `cols` its columns, strategy classes first.

    The matrix is summed over each column class; one representative row
    per row class, in row order, over N, then the cost row, make stage1's
    a_ub.
    """
    n_z, m = table.alphabet_size, table.m_files
    strategy_class = cols[:n_z]
    sizes = np.bincount(cols)
    first = np.unique(strategy_class, return_index=True)[1]
    n_w = first.size
    cost = sizes[:n_w] * cost_form.dense(n_z)[first]
    summed = (epigraph_matrix(table) @ class_indicator(cols)).tocsr()
    summed.sort_indices()
    sub = summed[np.unique(rows, return_index=True)[1]]
    cost_cols = np.flatnonzero(cost)
    a_ub = sparse.csr_matrix(
        (np.concatenate([sub.data / table.n_servers, cost[cost_cols] / cost_form.denominator]),
         np.concatenate([sub.indices, cost_cols]),
         np.append(sub.indptr, sub.nnz + cost_cols.size)),
        shape=(sub.shape[0] + 1, sizes.size),
    )
    weights = sizes.astype(float)
    c = np.concatenate([np.zeros(n_w), weights[n_w:]])
    a_eq = sparse.csr_matrix(np.concatenate([weights[:n_w], np.zeros(sizes.size - n_w)]))
    stage1 = LpProblem(n_z=n_w, c=c, a_ub=a_ub, b_ub=np.full(a_ub.shape[0], -0.0),
                       a_eq=a_eq, b_eq=np.array([1.0]))
    queries = np.unique(cols[n_z:], return_index=True)[1]
    by_class = summed[(queries[:, None] * m + np.arange(m)).ravel(), :n_w]
    by_class.data *= np.repeat(np.repeat(sizes[n_w:], m), np.diff(by_class.indptr))
    return Frontier(m_files=m, n_servers=table.n_servers, cost_form=cost_form,
                    stage1=stage1, strategy_class=strategy_class,
                    sizes=sizes[:n_w].tolist(), cost=cost, by_class=by_class)


def frontier(tables, cost_form: LinearForm) -> Frontier:
    """The Frontier of the shared table and the cost form on their
    coarsest equitable partition (_partition): build it once per sweep."""
    table = shared_table(tables)
    return _assemble(table, *_partition(table, cost_form), cost_form)


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the optimal leakage/download frontier.

    `weights[C]` is the probability of each strategy of class C and
    `strategy_class[s]` is s's class; the PMF z, one probability per
    strategy, is built from them on first read.  Points compare equal
    when their values and their z are equal.
    """

    d_target: Fraction
    d_achieved: Fraction
    leakage_sum: Fraction
    leakage_bits: float
    leakage_normalized: float
    rate: Fraction
    weights: tuple[Fraction, ...] = field(repr=False, compare=False)
    strategy_class: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def z(self) -> tuple[Fraction, ...]:
        return tuple(self.weights[c] for c in self.strategy_class.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _values(self) -> tuple:
        return (self.d_target, self.d_achieved, self.leakage_sum, self.leakage_bits,
                self.leakage_normalized, self.rate, self.z)


def _class_pmf(weights, sizes) -> list[Fraction]:
    """One exact probability per class such that the classes' members sum
    to 1: negatives clamped to 0, then every weight divided by the lifted
    total, each class's weight times its size summed."""
    w = [max(Fraction(v), Fraction(0)) for v in weights]
    total = sum((n * v for n, v in zip(sizes, w)), Fraction(0))
    if total <= 0:
        raise ValueError("cannot normalize an all-zero vector")
    return [v / total for v in w]


def _snap(w, sizes) -> list[Fraction] | None:
    """w with every entry snapped to a denominator of at most
    _SNAP_DENOMINATOR and renormalized; None when they snap to 0."""
    snapped = [v.limit_denominator(_SNAP_DENOMINATOR) for v in w]
    total = sum((n * v for n, v in zip(sizes, snapped)), Fraction(0))
    return [v / total for v in snapped] if total > 0 else None


def solve_tradeoff_point(fr: Frontier, d_target, lam: int, dim: int) -> TradeoffPoint | None:
    """Optimal leakage at one cost target on the Frontier, then the
    cheapest cost achieving it, made exact.  Returns None when the target
    is infeasible.

    Normalizing, snapping and the exact re-check run on one probability
    per strategy class, which gives z exactly as on the lifted vector.
    Stage 2 may spend its leakage slack walking down a sloped piece of
    the curve, below the target to an unsnappable point: when it ends
    below the target, stage 1's answer, snapped, is taken instead if it
    fits the target and leaks strictly less.
    """
    d_target = Fraction(d_target)
    p = fr.problem(d_target)
    sol = solve_lp(p)
    if not sol.is_optimal:
        return None
    b_ub = fr.stage2.b_ub.copy()
    b_ub[-2:] = p.b_ub[-1], sol.objective + LEAKAGE_CAP_SLACK
    capped = solve_lp(replace(fr.stage2, b_ub=b_ub))
    w = _class_pmf((capped if capped.is_optimal else sol).x, fr.sizes)
    val, d_achieved = fr._exact(w)
    snapped = _snap(w, fr.sizes)
    if snapped is not None and snapped != w:
        val_snapped, d_snapped = fr._exact(snapped)
        if d_snapped <= d_target and val_snapped.raw_sum <= val.raw_sum:
            w, val, d_achieved = snapped, val_snapped, d_snapped
    if d_achieved < d_target:
        snapped = _snap(_class_pmf(sol.x, fr.sizes), fr.sizes)
        if snapped is not None:
            val_snapped, d_snapped = fr._exact(snapped)
            if d_snapped <= d_target and val_snapped.raw_sum < val.raw_sum:
                w, val, d_achieved = snapped, val_snapped, d_snapped
    return TradeoffPoint(
        d_target=d_target,
        d_achieved=d_achieved,
        leakage_sum=val.raw_sum,
        leakage_bits=val.bits,
        leakage_normalized=val.normalized,
        rate=Fraction(lam * dim) / d_achieved,
        weights=tuple(w),
        strategy_class=fr.strategy_class,
    )


def default_grid(cost_form: LinearForm, size: int, grid_size: int = 60):
    """Evenly spaced cost targets spanning the simplex extremes of D."""
    lo = cost_form.min_on_simplex(size)
    hi = cost_form.max_on_simplex(size)
    if grid_size < 2 or lo == hi:
        return [hi]
    return [lo + (hi - lo) * Fraction(i, grid_size - 1) for i in range(grid_size)]


def _split(rem: np.ndarray, parts: int) -> np.ndarray:
    """Rows of every composition of each rem[i] into `parts` parts, in rem's
    dtype: rem[0]'s block first, each block in lex order."""
    rows = np.zeros((len(rem), 0), rem.dtype)
    for _ in range(parts - 1):
        reps = rem.astype(np.int64) + 1
        src = np.repeat(np.arange(len(rem)), reps)
        part = (np.arange(len(src)) - np.repeat(np.cumsum(reps) - reps, reps)).astype(rem.dtype)
        rows = np.column_stack([rows[src], part])
        rem = rem[src] - part
    return np.column_stack([rows, rem])


def _composition_chunks(total: int, size: int, cost=None, cap=None):
    """Integer vectors of the given size summing to total, at most _CHUNK
    at a time; with an int64 `cost` vector, only those with row @ cost <=
    cap.

    Rows come in lex order, the first part varying slowest.  A row is a
    head, its leading parts, and a tail, its last `tail` parts.  The heads
    and the tails of every remainder are tabulated once as zero-padded
    rows; each chunk repeats its heads and adds the gathered tails.  Under
    a cap, a head whose cheapest tail exceeds it is dropped before any of
    its rows is built, a head whose dearest tail fits keeps every row, and
    only the rows of the heads in between are tested, one tail cost each.
    """
    # the heads table has grid_point_count(total, lead + 1) rows and the
    # tails table grid_point_count(total, tail + 1): balance them
    tail = 1
    while tail < size - 1 and grid_point_count(total, size - tail + 1) > grid_point_count(
        total, tail + 1
    ):
        tail += 1
    lead = size - tail
    dtype = np.min_scalar_type(total)
    # tails grouped by their sum r = 0..total; r's block starts at starts[r]
    tails = np.pad(_split(np.arange(total + 1, dtype=dtype), tail), ((0, 0), (lead, 0)))
    counts = np.array([grid_point_count(r, tail) for r in range(total + 1)])
    starts = np.concatenate([[0], np.cumsum(counts)])
    # heads summing to at most total: compositions into one more part
    heads = _split(np.array([total], dtype=dtype), lead + 1)
    rem = heads[:, -1].astype(np.int64)
    heads = np.pad(heads[:, :-1], ((0, 0), (0, tail)))
    partial = np.zeros(len(rem), dtype=bool)
    if cost is not None:
        # a tail of sum r costs between r * min and r * max of its weights
        cheap, dear = int(cost[lead:].min()), int(cost[lead:].max())
        head_cost = heads @ cost
        kept = head_cost + rem * cheap <= cap
        if not kept.any():
            return
        heads, rem, head_cost = heads[kept], rem[kept], head_cost[kept]
        # every tail cost and limit lies within total * max|cost|
        small = np.int32 if total * int(np.abs(cost).max()) < 2**31 else np.int64
        tail_cost = (tails @ cost).astype(small)
        limit = np.minimum(cap - head_cost, rem * dear).astype(small)
        partial = limit < rem * dear
    # head h owns rows begins[h] <= row < ends[h]
    ends = np.cumsum(counts[rem])
    begins = ends - counts[rem]
    shift = starts[rem] - begins
    n_rows = int(ends[-1])
    for first in range(0, n_rows, _CHUNK):
        last = min(first + _CHUNK, n_rows)
        lo, hi = np.searchsorted(ends, [first, last - 1], side="right")
        span = slice(lo, hi + 1)
        reps = np.minimum(ends[span], last) - np.maximum(begins[span], first)
        out = np.repeat(heads[span], reps, axis=0)
        index = np.repeat(shift[span], reps) + np.arange(first, last)
        out += tails.take(index, axis=0)
        if partial[span].any():
            out = out[tail_cost[index] <= np.repeat(limit[span], reps)]
        # free the gather index before the int64 copy, the oracle's peak
        del index
        if len(out):
            yield out.astype(np.int64)


def grid_point_count(total: int, size: int) -> int:
    return math.comb(total + size - 1, size - 1)


def brute_force_min_leakage(
    table: ConditionalQueryTable,
    cost_form: LinearForm,
    d_target,
    step: Fraction = Fraction(1, 50),
):
    """Minimum leakage over a barycentric PMF grid under the cost cap.

    Returns (bits, argmin PMF); independent of the LP by construction.
    Grids of more than DEFAULT_GRID_GUARD points, or whose chunks hold more
    than DEFAULT_GRID_GUARD entries (read at call time), are refused, as is
    a target below the cost form's minimum, before any point is built.
    Only the points whose exact cost is within the cap are built and
    scored: row / total is feasible when row @ numerators <= floor((D -
    constant) * denominator * total).
    """
    step = Fraction(step)
    if not 0 < step <= 1:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    total = int(1 / step)
    if Fraction(1, total) != step:
        raise ValueError(f"step must divide 1 exactly, got {step}")
    size = table.alphabet_size
    count = grid_point_count(total, size)
    if count > DEFAULT_GRID_GUARD:
        raise ResourceLimitError(
            f"grid has {count} points for |S|={size} at step {step}, "
            f"budget {DEFAULT_GRID_GUARD}"
        )
    entries = min(count, _CHUNK) * size
    if entries > DEFAULT_GRID_GUARD:
        raise ResourceLimitError(
            f"grid chunks hold {entries} entries ({min(count, _CHUNK)} points x "
            f"|S|={size}) at step {step}, budget {DEFAULT_GRID_GUARD}"
        )
    if Fraction(d_target) < cost_form.min_on_simplex(size):
        raise ValueError(f"no grid point satisfies download cost <= {d_target}")
    cap = math.floor((Fraction(d_target) - cost_form.constant) * cost_form.denominator * total)
    # per-m coefficient matrices, queries x strategies
    probs = table.counts.toarray() / table.n_servers
    per_m = [
        np.ascontiguousarray(probs[m :: table.m_files]) for m in range(table.m_files)
    ]
    best_sum = None
    best_row = None
    for arr in _composition_chunks(total, size, cost_form.dense(size), cap):
        for first in range(0, len(arr), _BLOCK):
            block = arr[first : first + _BLOCK]
            z = block / float(total)
            if len(z) == 1:
                # a one-column product goes to gemv, whose last bits differ
                # from gemm's: score the point as two equal columns
                z = np.repeat(z, 2, axis=0)
            acc = per_m[0] @ z.T
            for mat in per_m[1:]:
                np.maximum(acc, mat @ z.T, out=acc)
            sums = acc.sum(axis=0)
            idx = int(np.argmin(sums))
            if best_sum is None or sums[idx] < best_sum:
                best_sum = float(sums[idx])
                # a copy: a view would keep its whole chunk alive
                best_row = block[idx].copy()
    z_best = tuple(Fraction(int(v), total) for v in best_row)
    # floats only picked the argmin; report its exact leakage
    exact = maxl(table, z_best).raw_sum
    return math.log2(exact), z_best

"""Exact conditional query distributions, maximal leakage, and cost.

Under time sharing every conditional query probability is an integer
count over N: P(q|m) at strategy s is the number of shifts t that send
(m, s) to q, divided by N.  A server's table holds only arrays: those
counts as one sparse integer matrix, its queries as one uint8 array of
key rows, and their answer lengths.  Every server's table is the same,
so the analysis builds server 1's alone, in one pass: number_keys
numbers every (m, s, t) query in the order of its entries, as
`simulate_downloads` numbers sampled ones.  A
linear form holds integer numerators over one denominator: a count row
over N for P(q|m), integers over M for the download cost.  The cost
form, the LP rows and the exact leakage are all assembled from the
counts, and the optimizer partitions those rows per cost form
(equitable_partition); `Fraction` appears only in the exact re-check, in
a form's value at an exact PMF and in the coefficients that the table
CSV prints.  Floats appear only when taking the final log.
Leakage is log2 of the sum, over reachable queries, of the largest
per-file conditional probability: 0 bits means the query says nothing
about which file is wanted, log2 M means it says everything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import sparse

from .schemes import (
    QueryMatrix,
    ResourceLimitError,
    SchemeInstance,
    cyclic_shift,
    query_rows,
    strategy_array,
)

# largest |S| * N * M enumerated when tabulating a scheme
DEFAULT_TABLE_GUARD = 1_500_000
# seeds the random hash weights of color refinement; the partition it
# returns does not depend on them
_REFINE_SEED = 20140908


@dataclass(frozen=True, eq=False)
class LinearForm:
    """constant + sum of numerators[j] / denominator * z_{indices[j]}, with
    increasing int64 strategy indices, int64 numerators and one positive
    denominator; an absent index has coefficient 0."""

    indices: np.ndarray
    numerators: np.ndarray
    denominator: int
    constant: Fraction = Fraction(0)

    def dense(self, size: int) -> np.ndarray:
        """The int64 numerators of z_0 .. z_{size-1}, the absent ones 0."""
        out = np.zeros(size, dtype=np.int64)
        out[self.indices] = self.numerators
        return out

    def evaluate(self, z) -> Fraction:
        """The form at exact probabilities z (Fractions or ints)."""
        numerators, common = over_common_denominator([z[i] for i in self.indices.tolist()])
        total = sum(c * v for c, v in zip(self.numerators.tolist(), numerators))
        return self.constant + Fraction(total, self.denominator * common)

    def min_on_simplex(self, size: int) -> Fraction:
        return self.constant + Fraction(int(self.dense(size).min()), self.denominator)

    def max_on_simplex(self, size: int) -> Fraction:
        return self.constant + Fraction(int(self.dense(size).max()), self.denominator)


def over_common_denominator(values) -> tuple[list[int], int]:
    """Exact rationals (Fractions or ints) as integer numerators over the
    lcm of their denominators: (numerators, lcm)."""
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def as_pmf(values, size: int) -> tuple[Fraction, ...]:
    """Validate and exactify a PMF over [0:size-1]."""
    z = tuple(Fraction(v) for v in values)
    if len(z) != size:
        raise ValueError(f"PMF has {len(z)} entries, expected {size}")
    if any(v < 0 for v in z):
        raise ValueError("PMF entries must be nonnegative")
    total = sum(z)
    if total != 1:
        raise ValueError(f"PMF sums to {total}, expected 1")
    return z


def uniform_pmf(size: int) -> tuple[Fraction, ...]:
    return (Fraction(1, size),) * size


@dataclass(frozen=True, eq=False)
class ConditionalQueryTable:
    """Reachable queries at one server, with P(q|m) as integer counts over N.

    Row qi of `keys` holds query qi's k*M entries, row-major (key_rows).
    Row qi*M + m-1 of `counts` holds, for each strategy s, the number of
    shifts t that send (m, s) to query qi, so P(q|m) = count / N.
    `answer_lengths[qi]` is the number of sub-responses query qi returns.
    """

    server: int
    m_files: int
    n_servers: int
    keys: np.ndarray  # read-only uint8, Q x (k*M)
    counts: sparse.csr_matrix  # int64, (Q*M) x |S|
    answer_lengths: np.ndarray  # int64, one per query

    @property
    def alphabet_size(self) -> int:
        return self.counts.shape[1]

    @cached_property
    def queries(self) -> tuple[QueryMatrix, ...]:
        """The keys as QueryMatrix objects, in key order; built on first use."""
        return tuple(QueryMatrix.from_bytes(key.tobytes(), self.m_files) for key in self.keys)


def epigraph_matrix(table: ConditionalQueryTable) -> sparse.csr_matrix:
    """The trade-off LP's count rows in integers: row qi*M + m-1 is the
    table's count row over the strategies, beside -N on query qi's column."""
    n_rows, n_z = table.counts.shape
    rows = np.arange(n_rows)
    epigraph = sparse.csr_matrix((np.full(n_rows, -table.n_servers, dtype=np.int64),
                                  (rows, rows // table.m_files)),
                                 shape=(n_rows, len(table.keys)))
    return sparse.hstack([table.counts, epigraph], format="csr")


def _first_seen(labels: np.ndarray) -> np.ndarray:
    """Relabel classes 0, 1, ... in the order of their first member."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()]


def class_indicator(labels: np.ndarray) -> sparse.csr_matrix:
    """Member x class 0/1 integer matrix of a labelling."""
    n = labels.size
    return sparse.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), labels)),
                             shape=(n, int(labels.max()) + 1))


def _split(colors, lines, value_ids, other, rng) -> np.ndarray:
    """Split each color class of the rows of `lines` by the multiset of
    (other color, value) pairs over a row's nonzeros, hashed as a sum of
    random 64-bit weights, one per pair."""
    n_values = int(value_ids.max()) + 1
    weights = rng.integers(0, 2**64, size=(int(other.max()) + 1) * n_values, dtype=np.uint64)
    hashed = weights[other[lines.indices] * n_values + value_ids]
    # sums wrap modulo 2**64; empty rows sum to 0
    running = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(hashed, dtype=np.uint64)])
    sums = running[lines.indptr[1:]] - running[lines.indptr[:-1]]
    # exact on the pair: no hash of the pair itself
    return _group((sums, colors))[0]


def _group(keys) -> tuple[np.ndarray, np.ndarray]:
    """Number members by their key: integer columns compared last column
    first, as np.lexsort orders them.  Returns the rank of each member's
    key among the distinct keys, and one member of each key, in key
    order."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels, order[new]


def check_equitable(matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> None:
    """Raise RuntimeError unless every row of a class has the same sum over
    each column class and every column of a class the same sum over each
    row class.  Integer sparse products: the check is exact."""
    for lines, labels, other in ((matrix, rows, cols), (matrix.T.tocsr(), cols, rows)):
        sums = (lines @ class_indicator(other)).tocsr()
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        if (sums - sums[first[inverse.ravel()]]).count_nonzero():
            raise RuntimeError("partition is not equitable: its classes cannot "
                               "reduce the LP")


def equitable_partition(matrix: sparse.csr_matrix, row_colors, col_colors):
    """Coarsest equitable partition of an integer matrix that refines the
    given row and column colorings, as (row labels, column labels).

    Color refinement: a column's new color is its old color plus the
    multiset of (row color, value) over its nonzeros, and a row's likewise,
    until neither count grows.  An LP whose matrix, costs and bounds are
    constant on such classes has the optimum of its reduction to one
    variable per column class and one row per row class (Grohe, Kersting,
    Mladenov and Selman, ESA 2014).  Classes are numbered in the order of
    their first member.  The result is checked exactly (check_equitable),
    so a hash collision raises instead of returning a wrong partition.
    """
    lines = sparse.csr_matrix(matrix)
    lines_t = lines.T.tocsr()
    row_values = np.unique(lines.data, return_inverse=True)[1].ravel()
    col_values = np.unique(lines_t.data, return_inverse=True)[1].ravel()
    rng = np.random.default_rng(_REFINE_SEED)
    rows, cols = _first_seen(np.asarray(row_colors)), _first_seen(np.asarray(col_colors))
    while True:
        sizes = rows.max(), cols.max()
        cols = _split(cols, lines_t, col_values, rows, rng)
        rows = _split(rows, lines, row_values, cols, rng)
        if (rows.max(), cols.max()) == sizes:
            break
    rows, cols = _first_seen(rows), _first_seen(cols)
    check_equitable(lines, rows, cols)
    return rows, cols


def check_table_budget(inst: SchemeInstance, n_tables: int) -> None:
    """Refuse n_tables enumerations of |S|*N*M steps beyond
    DEFAULT_TABLE_GUARD (read at call time)."""
    size, n, m = inst.alphabet.size, inst.n_servers, inst.m_files
    work = n_tables * size * n * m
    if work > DEFAULT_TABLE_GUARD:
        tables = "" if n_tables == 1 else f"{n_tables}*"
        raise ResourceLimitError(f"table enumeration needs {work} = {tables}|S|*N*M "
                                 f"steps ({size}*{n}*{m}), budget {DEFAULT_TABLE_GUARD}")


def key_rows(inst: SchemeInstance, m: int, strategies: np.ndarray, j: int) -> np.ndarray:
    """Server j's base queries for file m (query_rows) as key rows of k*M
    uint8 entries, row-major; ValueError when n > 256 overflows a byte."""
    if inst.params.n > 256:
        raise ValueError(f"query entries below n={inst.params.n} do not fit one byte")
    rows = query_rows(inst, m, strategies, j)
    return rows.astype(np.uint8).reshape(-1, inst.params.k * inst.m_files)


def number_keys(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Number key rows in the lexicographic order of their entries, read as
    base-`base` words of at most 63 bits, first entry most significant, by
    one np.lexsort (_group): each row's key number, and one row per key."""
    per_word = 1
    while base ** (per_word + 1) <= 2**63:
        per_word += 1
    words = [chunk @ base ** np.arange(chunk.shape[1] - 1, -1, -1, dtype=np.uint64)
             for chunk in np.split(rows, range(per_word, rows.shape[1], per_word), axis=1)]
    return _group(words[::-1])


def key_answer_lengths(keys: np.ndarray, params) -> np.ndarray:
    """Each key's number of transmitted sub-responses, int64: a row is sent
    iff its smallest entry is below lambda."""
    lowest = keys.reshape(-1, params.k, keys.shape[1] // params.k).min(axis=2)
    return (lowest < params.lam).sum(axis=1, dtype=np.int64)


def build_query_table(inst: SchemeInstance, j: int) -> ConditionalQueryTable:
    """Tabulate P(q|m) at server j from every (m, s, t) query at once.

    Each strategy s and uniform shift t add one to the count of the
    realized time-shared query.  Every query is a key row (key_rows), and
    number_keys numbers them in the lexicographic order of their entries;
    the table keeps one row per key and builds no QueryMatrix.  See
    check_table_budget for the budget.
    """
    check_table_budget(inst, 1)
    strategies, m_files, n = strategy_array(inst), inst.m_files, inst.n_servers
    size = len(strategies)
    hits = np.concatenate([
        key_rows(inst, m, strategies, cyclic_shift(j, t - 1, n))
        for m in range(1, m_files + 1) for t in range(1, n + 1)
    ])  # (m, t, s) x (k*M)
    inverse, first = number_keys(hits, inst.params.n)
    keys = hits[first]
    keys.setflags(write=False)
    del hits
    rows = inverse * m_files + np.repeat(np.arange(m_files), n * size)
    cols = np.tile(np.arange(size), m_files * n)
    counts = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)),
                               shape=(len(keys) * m_files, size))
    return ConditionalQueryTable(server=j, m_files=m_files, n_servers=n, keys=keys,
                                 counts=counts,
                                 answer_lengths=key_answer_lengths(keys, inst.params))


def build_all_tables(inst: SchemeInstance) -> tuple[ConditionalQueryTable, ...]:
    """Every server's table, each enumerated on its own, under one budget."""
    check_table_budget(inst, inst.n_servers)
    return tuple(build_query_table(inst, j) for j in range(1, inst.n_servers + 1))


def shared_table(tables) -> ConditionalQueryTable:
    """The table every server shares under time sharing.

    Raises ValueError when two of the given tables differ: their keys,
    answer lengths and count arrays are compared entry by entry.
    """
    tables = tuple(tables)
    first = tables[0]
    for tb in tables[1:]:
        a, b = tb.counts, first.counts
        same = (
            tb.n_servers == first.n_servers
            and np.array_equal(tb.keys, first.keys)
            and np.array_equal(tb.answer_lengths, first.answer_lengths)
            and a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
        if not same:
            raise ValueError(
                "per-server tables differ; the LP assumes a time-shared scheme"
            )
    return first


@dataclass(frozen=True)
class LeakageValue:
    """Maximal leakage at one PMF: exact sum, bits, and bits / log2(M)."""

    raw_sum: Fraction
    bits: float
    normalized: float


def maxl(table: ConditionalQueryTable, z) -> LeakageValue:
    """log2 of the summed per-query maxima of P(q|m) at the PMF z."""
    return leakage_at(table, table.counts,
                      *over_common_denominator(as_pmf(z, table.alphabet_size)))


def leakage_at(table, counts, numerators, common: int) -> LeakageValue:
    """maxl at the PMF numerators / common, one integer numerator per column
    of counts: the table's count matrix, or its columns summed over
    classes of strategies that share one probability.  Of `table` (a
    ConditionalQueryTable, or an optimizer Frontier) only m_files and
    n_servers are read.

    P(q|m) = (count row . numerators) / (N common); Python ints keep every
    numerator exact.
    """
    a = np.array(numerators, dtype=object)
    c = counts
    running = np.concatenate(([0], np.cumsum(c.data.astype(object) * a[c.indices])))
    per_row = running[c.indptr[1:]] - running[c.indptr[:-1]]
    per_query = per_row.reshape(-1, table.m_files).max(axis=1)
    total = Fraction(int(per_query.sum()), table.n_servers * common)
    if table.m_files == 1 or total == 1:
        return LeakageValue(raw_sum=total, bits=0.0, normalized=0.0)
    bits = math.log2(total)
    return LeakageValue(raw_sum=total, bits=bits, normalized=bits / math.log2(table.m_files))


def download_cost_form(tables) -> LinearForm:
    """D(z) = sum over the N servers and their queries of length * marginal
    probability, folded to canonical affine form on the simplex.

    All servers share one table, so D is N times server 1's sum of
    len(q) * count / (N M): integer numerators over M, unreduced, with the
    smallest folded into the constant.
    """
    table = shared_table(tables)
    numerators = table.counts.T @ np.repeat(table.answer_lengths, table.m_files)
    lo, m = int(numerators.min()), table.m_files
    indices = np.flatnonzero(numerators != lo)
    return LinearForm(indices, numerators[indices] - lo, m, Fraction(lo, m))


def serialize_query(q: QueryMatrix) -> str:
    return "|".join(" ".join(str(e) for e in row) for row in q.rows)


def table_to_csv(table: ConditionalQueryTable) -> str:
    """One row per (query, m): server, query, m, P(q|m) as one
    'z<i>:<count/N>' pair per nonzero count, with 1-based strategy
    indices, and the query's answer length."""
    c, n = table.counts, table.n_servers
    bounds, lengths = c.indptr.tolist(), table.answer_lengths.tolist()
    lines = ["server,query,m,coefficients,length"]
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        qi, m = divmod(row, table.m_files)
        coeffs = " ".join(f"z{i + 1}:{Fraction(v, n)}" for i, v in
                          zip(c.indices[lo:hi].tolist(), c.data[lo:hi].tolist()))
        lines.append(f"{table.server},{serialize_query(table.queries[qi])},{m + 1},"
                     f"{coeffs},{lengths[qi]}")
    return "\n".join(lines) + "\n"

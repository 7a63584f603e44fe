"""Exact conditional query distributions, maximal leakage, and cost.

Under time sharing every conditional query probability is an integer
count over N: P(q|m) at strategy s is the number of shifts t that send
(m, s) to q, divided by N.  A server's table stores those counts as one
sparse integer matrix, and every server's table is the same, so the
analysis builds server 1's alone.  The cost form, the LP rows and the
exact leakage are all assembled from the counts; `Fraction` appears only
in the exact re-check and in the linear-form views that the table CSV
prints.  Floats appear only when taking the final log.  Leakage is log2
of the sum, over reachable queries, of the largest per-file conditional
probability: 0 bits means the query says nothing about which file is
wanted, log2 M means it says everything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .schemes import (
    QueryMatrix,
    SchemeInstance,
    answer_length,
    time_shared_query,
)

# largest |S| * N * M enumerated when tabulating a scheme
DEFAULT_TABLE_GUARD = 1_500_000


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured desk-scale budget."""


@dataclass(frozen=True)
class LinearForm:
    """constant + sum of coeffs[i] * z_i with exact rational entries."""

    coeffs: dict[int, Fraction]
    constant: Fraction = Fraction(0)

    def evaluate(self, z) -> Fraction:
        return self.constant + sum(
            (c * z[i] for i, c in self.coeffs.items()), Fraction(0)
        )

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs.get(i, Fraction(0))

    def affine_on_simplex(self, size: int) -> "LinearForm":
        """Equivalent form on the simplex with the smallest coefficient
        folded into the constant (z sums to 1, so c*z == c_min + (c-c_min)*z)."""
        lo = min(self.coefficient(i) for i in range(size))
        coeffs = {
            i: c - lo for i, c in sorted(self.coeffs.items()) if c != lo
        }
        return LinearForm(coeffs=coeffs, constant=self.constant + lo)

    def min_on_simplex(self, size: int) -> Fraction:
        return self.constant + min(self.coefficient(i) for i in range(size))

    def max_on_simplex(self, size: int) -> Fraction:
        return self.constant + max(self.coefficient(i) for i in range(size))


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


def normalize_pmf(values) -> tuple[Fraction, ...]:
    """Clamp tiny negatives and rescale to an exact PMF."""
    z = [max(Fraction(v), Fraction(0)) for v in values]
    total = sum(z)
    if total <= 0:
        raise ValueError("cannot normalize an all-zero vector")
    return tuple(v / total for v in z)


def uniform_pmf(size: int) -> tuple[Fraction, ...]:
    return (Fraction(1, size),) * size


@dataclass(frozen=True, eq=False)
class ConditionalQueryTable:
    """Reachable queries at one server, with P(q|m) as integer counts over N.

    Row qi*M + m-1 of `counts` holds, for each strategy s, the number of
    shifts t that send (m, s) to queries[qi], so P(q|m) = count / N.
    `answer_lengths[qi]` is the number of sub-responses queries[qi] returns.
    """

    server: int
    m_files: int
    n_servers: int
    queries: tuple[QueryMatrix, ...]
    counts: sparse.csr_matrix  # int64, (Q*M) x |S|
    answer_lengths: np.ndarray  # int64, one per query

    @property
    def alphabet_size(self) -> int:
        return self.counts.shape[1]

    @cached_property
    def forms(self) -> MappingProxyType:
        """Read-only view: query -> P(q|m) as one LinearForm per file."""
        c, n = self.counts, self.n_servers
        indptr, indices, data = c.indptr.tolist(), c.indices.tolist(), c.data.tolist()
        rows = [
            LinearForm(coeffs={i: Fraction(v, n) for i, v in
                               zip(indices[lo:hi], data[lo:hi])})
            for lo, hi in zip(indptr, indptr[1:])
        ]
        m = self.m_files
        return MappingProxyType(
            {q: tuple(rows[qi * m:(qi + 1) * m]) for qi, q in enumerate(self.queries)}
        )

    @cached_property
    def lengths(self) -> MappingProxyType:
        """Read-only view: query -> answer length."""
        return MappingProxyType(dict(zip(self.queries, self.answer_lengths.tolist())))

    def prob_form(self, q: QueryMatrix, m: int) -> LinearForm:
        """P(q | m) as a linear form; m is 1-based."""
        return self.forms[q][m - 1]

    def length(self, q: QueryMatrix) -> int:
        return self.lengths[q]


def check_table_budget(inst: SchemeInstance, n_tables: int, guard: int | None = None) -> None:
    """Refuse n_tables enumerations of |S|*N*M steps beyond guard
    (default DEFAULT_TABLE_GUARD, read at call time)."""
    guard = DEFAULT_TABLE_GUARD if guard is None else guard
    size, n, m = inst.alphabet.size, inst.n_servers, inst.m_files
    work = n_tables * size * n * m
    if work > guard:
        tables = "" if n_tables == 1 else f"{n_tables}*"
        raise ResourceLimitError(f"table enumeration needs {work} = {tables}|S|*N*M "
                                 f"steps ({size}*{n}*{m}), budget {guard}")


def build_query_table(
    inst: SchemeInstance, j: int, guard: int | None = None
) -> ConditionalQueryTable:
    """Tabulate P(q|m) at server j by enumerating (m, s, t) triples.

    Each strategy s and uniform shift t add one to the count of the
    realized time-shared query.  See check_table_budget for guard.
    """
    check_table_budget(inst, 1, guard)
    size = inst.alphabet.size
    first_seen: dict[QueryMatrix, int] = {}
    hit_query, hit_file, hit_strategy = [], [], []
    for m in range(inst.m_files):
        for sidx, s in enumerate(inst.alphabet.members):
            for t in range(1, inst.n_servers + 1):
                q = time_shared_query(inst, m + 1, s, t, j)
                hit_query.append(first_seen.setdefault(q, len(first_seen)))
                hit_file.append(m)
                hit_strategy.append(sidx)
    queries = tuple(sorted(first_seen, key=lambda q: q.rows))
    # renumber queries from first-seen order to sorted order
    rank = np.empty(len(queries), dtype=np.int64)
    rank[[first_seen[q] for q in queries]] = np.arange(len(queries))
    rows = rank[hit_query] * inst.m_files + np.asarray(hit_file, dtype=np.int64)
    counts = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.int64), (rows, hit_strategy)),
        shape=(len(queries) * inst.m_files, size),
    )
    return ConditionalQueryTable(
        server=j,
        m_files=inst.m_files,
        n_servers=inst.n_servers,
        queries=queries,
        counts=counts,
        answer_lengths=np.array(
            [answer_length(q, inst.params) for q in queries], dtype=np.int64
        ),
    )


def build_all_tables(
    inst: SchemeInstance, guard: int | None = None
) -> tuple[ConditionalQueryTable, ...]:
    """Every server's table, each enumerated on its own, under one budget."""
    check_table_budget(inst, inst.n_servers, guard)
    return tuple(
        build_query_table(inst, j, guard) for j in range(1, inst.n_servers + 1)
    )


def shared_table(tables) -> ConditionalQueryTable:
    """The table every server shares under time sharing.

    Raises ValueError when two of the given tables differ.  Count arrays
    are compared entry by entry unless the tables share one.
    """
    tables = tuple(tables)
    first = tables[0]
    for tb in tables[1:]:
        a, b = tb.counts, first.counts
        same = (
            tb.n_servers == first.n_servers
            and tb.queries == first.queries
            and np.array_equal(tb.answer_lengths, first.answer_lengths)
            and (
                a is b
                or a.shape == b.shape
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data)
            )
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
    zf = as_pmf(z, table.alphabet_size)
    # z = a / common with integer a, so P(q|m) = (count row . a) / (N common);
    # Python ints keep every numerator exact
    common = math.lcm(*(v.denominator for v in zf))
    a = np.array([v.numerator * (common // v.denominator) for v in zf], dtype=object)
    c = table.counts
    running = np.concatenate(([0], np.cumsum(c.data.astype(object) * a[c.indices])))
    numerators = running[c.indptr[1:]] - running[c.indptr[:-1]]
    per_query = numerators.reshape(-1, table.m_files).max(axis=1)
    total = Fraction(int(per_query.sum()), table.n_servers * common)
    bits = math.log2(total) if total != 1 else 0.0
    if table.m_files == 1:
        return LeakageValue(raw_sum=total, bits=0.0, normalized=0.0)
    return LeakageValue(
        raw_sum=total, bits=bits, normalized=bits / math.log2(table.m_files)
    )


def download_cost_form(tables) -> LinearForm:
    """D(z) = sum over the N servers and their queries of length * marginal
    probability, folded to canonical affine form on the simplex.

    All servers share one table, so D is N times server 1's sum of
    len(q) * count / (N M): integer numerators over M.
    """
    table = shared_table(tables)
    numerators = table.counts.T @ np.repeat(table.answer_lengths, table.m_files)
    coeffs = {
        i: Fraction(v, table.m_files)
        for i, v in enumerate(numerators.tolist()) if v
    }
    return LinearForm(coeffs=coeffs).affine_on_simplex(table.alphabet_size)


def serialize_query(q: QueryMatrix) -> str:
    return "|".join(" ".join(str(e) for e in row) for row in q.rows)


def serialize_form(f: LinearForm) -> str:
    """Sparse 'z<i>:<frac>' pairs with 1-based strategy indices."""
    parts = [f"z{i + 1}:{c}" for i, c in sorted(f.coeffs.items())]
    if f.constant != 0 or not parts:
        parts.insert(0, str(f.constant))
    return " ".join(parts)


def table_to_csv(table: ConditionalQueryTable) -> str:
    """One row per (query, m): server, query, m, coefficients, length."""
    lines = ["server,query,m,coefficients,length"]
    for q in table.queries:
        for m in range(1, table.m_files + 1):
            lines.append(
                f"{table.server},{serialize_query(q)},{m},"
                f"{serialize_form(table.prob_form(q, m))},"
                f"{table.lengths[q]}"
            )
    return "\n".join(lines) + "\n"

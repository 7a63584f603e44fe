"""Exact conditional query distributions, maximal leakage, cost, and rate.

All probabilities are linear functions of the strategy PMF z with exact
rational coefficients; floats appear only when taking the final log.
Leakage is log2 of the sum, over reachable queries, of the largest
per-file conditional probability: 0 bits means the query says nothing
about which file is wanted, log2 M means it says everything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class ConditionalQueryTable:
    """Reachable queries at one server with P(q|m) as linear forms in z."""

    server: int
    m_files: int
    alphabet_size: int
    queries: tuple[QueryMatrix, ...]
    forms: dict[QueryMatrix, tuple[LinearForm, ...]]
    lengths: dict[QueryMatrix, int]

    def prob_form(self, q: QueryMatrix, m: int) -> LinearForm:
        """P(q | m) as a linear form; m is 1-based."""
        return self.forms[q][m - 1]

    def length(self, q: QueryMatrix) -> int:
        return self.lengths[q]


def build_query_table(
    inst: SchemeInstance, j: int, guard: int | None = None
) -> ConditionalQueryTable:
    """Tabulate P(q|m) at server j by enumerating (m, s, t) triples.

    Each strategy s and uniform shift t contribute weight z_s / N to the
    realized time-shared query.  guard defaults to DEFAULT_TABLE_GUARD,
    read at call time.
    """
    if guard is None:
        guard = DEFAULT_TABLE_GUARD
    size = inst.alphabet.size
    work = size * inst.n_servers * inst.m_files
    if work > guard:
        raise ResourceLimitError(
            f"table enumeration needs {work} = |S|*N*M steps "
            f"({size}*{inst.n_servers}*{inst.m_files}), budget {guard}"
        )
    w = Fraction(1, inst.n_servers)
    acc: dict[QueryMatrix, list[dict[int, Fraction]]] = {}
    for m in range(1, inst.m_files + 1):
        for sidx, s in enumerate(inst.alphabet.members):
            for t in range(1, inst.n_servers + 1):
                q = time_shared_query(inst, m, s, t, j)
                per_m = acc.setdefault(q, [{} for _ in range(inst.m_files)])
                bucket = per_m[m - 1]
                bucket[sidx] = bucket.get(sidx, Fraction(0)) + w
    queries = tuple(sorted(acc, key=lambda q: q.rows))
    forms = {
        q: tuple(LinearForm(coeffs=dict(sorted(b.items()))) for b in acc[q])
        for q in queries
    }
    lengths = {q: answer_length(q, inst.params) for q in queries}
    return ConditionalQueryTable(
        server=j,
        m_files=inst.m_files,
        alphabet_size=size,
        queries=queries,
        forms=forms,
        lengths=lengths,
    )


def build_all_tables(
    inst: SchemeInstance, guard: int | None = None
) -> tuple[ConditionalQueryTable, ...]:
    return tuple(
        build_query_table(inst, j, guard) for j in range(1, inst.n_servers + 1)
    )


@dataclass(frozen=True)
class LeakageValue:
    """Maximal leakage at one PMF: exact sum, bits, and bits / log2(M)."""

    raw_sum: Fraction
    bits: float
    normalized: float


def maxl(table: ConditionalQueryTable, z) -> LeakageValue:
    """log2 of the summed per-query maxima of P(q|m) at the PMF z."""
    zf = as_pmf(z, table.alphabet_size)
    total = sum(
        (max(f.evaluate(zf) for f in table.forms[q]) for q in table.queries),
        Fraction(0),
    )
    bits = math.log2(total) if total != 1 else 0.0
    if table.m_files == 1:
        return LeakageValue(raw_sum=total, bits=0.0, normalized=0.0)
    return LeakageValue(
        raw_sum=total, bits=bits, normalized=bits / math.log2(table.m_files)
    )


@dataclass(frozen=True)
class OverallLeakage:
    per_server: tuple[LeakageValue, ...]
    bits: float
    normalized: float


def overall_maxl(tables, z) -> OverallLeakage:
    """Worst-case leakage over servers; identical per server under time sharing."""
    per_server = tuple(maxl(tb, z) for tb in tables)
    worst = max(per_server, key=lambda v: v.raw_sum)
    return OverallLeakage(
        per_server=per_server, bits=worst.bits, normalized=worst.normalized
    )


def download_cost_form(tables) -> LinearForm:
    """D(z) = sum over servers and queries of length * marginal probability,
    folded to canonical affine form on the simplex."""
    tables = tuple(tables)
    size = tables[0].alphabet_size
    coeffs: dict[int, Fraction] = {}
    for tb in tables:
        prior = Fraction(1, tb.m_files)
        for q in tb.queries:
            ell = tb.lengths[q]
            if ell == 0:
                continue
            for f in tb.forms[q]:
                for i, c in f.coeffs.items():
                    coeffs[i] = coeffs.get(i, Fraction(0)) + ell * prior * c
    return LinearForm(coeffs=coeffs).affine_on_simplex(size)


def wpir_rate(lam: int, dim: int, d_cost) -> Fraction:
    """Retrieval rate lambda * K / D."""
    d = Fraction(d_cost)
    if d <= 0:
        raise ValueError(f"download cost must be positive, got {d}")
    return Fraction(lam * dim) / d


def capacity_rate(m_files: int, n_servers: int, dim: int) -> Fraction:
    """Perfect-privacy rate (1 - K/N) / (1 - (K/N)^M) of coded PIR."""
    ratio = Fraction(dim, n_servers)
    return (1 - ratio) / (1 - ratio**m_files)


def serialize_query(q: QueryMatrix) -> str:
    return "|".join(" ".join(str(e) for e in row) for row in q.rows)


def serialize_form(f: LinearForm, size: int) -> str:
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
                f"{serialize_form(table.prob_form(q, m), table.alphabet_size)},"
                f"{table.lengths[q]}"
            )
    return "\n".join(lines) + "\n"

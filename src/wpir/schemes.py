"""Strategy alphabets, query encoders, answers, and time sharing.

A strategy drawn from the scheme's alphabet is expanded into one k x M
query matrix per server.  `query_rows` is the one definition of those
matrices: an integer array over many strategies at once, which the
table builder applies to the whole alphabet and `base_query` to one
strategy.  Each server returns one sub-response per query row,
suppressing rows that touch only dummy storage.  `answer_positions`
is the one definition of which stored symbols a query reads: the server
sums them and the decoder writes its equations from them.  Time sharing
rotates the per-server encoders by a uniform cyclic shift, which makes
leakage identical at every server.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product

import numpy as np

from .storage import EffectiveParams, effective_params


class SchemeKind(str, Enum):
    ZYQT = "zyqt"
    ZTSL = "ztsl"
    OLR = "olr"


@dataclass(frozen=True)
class PermSelector:
    """A column of k pairwise-distinct row indices in [0:n-1]."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.entries)) != len(self.entries):
            raise ValueError(f"entries must be distinct, got {self.entries}")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


def enumerate_pnk(n: int, k: int) -> tuple[PermSelector, ...]:
    """All n!/(n-k)! ordered k-selections from [0:n-1], lexicographic."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return tuple(PermSelector(p) for p in permutations(range(n), k))


@dataclass(frozen=True)
class StrategyAlphabet:
    """The ordered strategy set S for one scheme and one (n, k, M)."""

    kind: SchemeKind
    n: int
    k: int
    m_files: int
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def enumerate_strategies(kind: SchemeKind, n: int, k: int, m_files: int) -> StrategyAlphabet:
    """Build the full alphabet in canonical (lexicographic) member order."""
    kind = SchemeKind(kind)
    if m_files < 1:
        raise ValueError("need at least one file")
    if kind is SchemeKind.ZTSL:
        members = tuple(
            v for v in product(range(n), repeat=m_files) if sum(v) % n == 0
        )
    elif kind is SchemeKind.ZYQT:
        selectors = enumerate_pnk(n, k)
        members = tuple(product(selectors, repeat=m_files))
    elif kind is SchemeKind.OLR:
        selectors = enumerate_pnk(n, k)
        members = tuple(
            tup
            for tup in product(selectors, repeat=m_files - 1)
            if _olr_implied_column(tup, n, k) is not None
        )
    else:  # pragma: no cover - SchemeKind() above rejects unknown kinds
        raise ValueError(f"unknown scheme kind {kind!r}")
    return StrategyAlphabet(kind=kind, n=n, k=k, m_files=m_files, members=members)


def _olr_implied_column(selectors, n: int, k: int):
    """(-sum of selectors) mod n, or None if entries collide."""
    entries = tuple(-sum(sel[i] for sel in selectors) % n for i in range(k))
    if len(set(entries)) != len(entries):
        return None
    return entries


def zyqt_size(n: int, k: int, m_files: int) -> int:
    return math.perm(n, k) ** m_files


def ztsl_size(n: int, m_files: int) -> int:
    return n ** (m_files - 1)


@dataclass(frozen=True)
class QueryMatrix:
    """A k x M matrix of row indices in [0:n-1], row-major."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def m_cols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, m: int) -> int:
        """Row i (0-based), file column m (1-based)."""
        return self.rows[i][m - 1]

    def column(self, m: int) -> tuple[int, ...]:
        return tuple(r[m - 1] for r in self.rows)

    @classmethod
    def from_bytes(cls, data: bytes, m_files: int) -> "QueryMatrix":
        """Parse k*M one-byte entries, row-major: the wire and table-key layout."""
        return cls(tuple(zip(*[iter(data)] * m_files)))


@dataclass(frozen=True)
class SchemeInstance:
    """One (M, N, K) scheme: parameters plus its strategy alphabet."""

    kind: SchemeKind
    m_files: int
    n_servers: int
    dim: int
    params: EffectiveParams
    alphabet: StrategyAlphabet


def make_scheme(kind: SchemeKind, m_files: int, n_servers: int, dim: int) -> SchemeInstance:
    kind = SchemeKind(kind)
    params = effective_params(n_servers, dim)
    alphabet = enumerate_strategies(kind, params.n, params.k, m_files)
    return SchemeInstance(
        kind=kind,
        m_files=m_files,
        n_servers=n_servers,
        dim=dim,
        params=params,
        alphabet=alphabet,
    )


def _check_indices(inst: SchemeInstance, m: int, j: int):
    if not 1 <= m <= inst.m_files:
        raise ValueError(f"file index {m} outside [1:{inst.m_files}]")
    if not 1 <= j <= inst.n_servers:
        raise ValueError(f"server index {j} outside [1:{inst.n_servers}]")


def strategy_array(inst: SchemeInstance, members=None) -> np.ndarray:
    """Members (default: the alphabet) as int rows: (|S|, M) for ztsl,
    (|S|, M, k) for zyqt and (|S|, M-1, k) for olr, whose M = 1 has none."""
    members = inst.alphabet.members if members is None else members
    if inst.kind is SchemeKind.ZTSL:
        return np.array(members, dtype=np.int64).reshape(len(members), inst.m_files)
    n_sel = inst.m_files - (inst.kind is SchemeKind.OLR)
    rows = [[tuple(sel) for sel in s] for s in members]
    return np.array(rows, dtype=np.int64).reshape(len(members), n_sel, inst.params.k)


def query_rows(inst: SchemeInstance, m: int, strategies: np.ndarray, j: int) -> np.ndarray:
    """Server j's base queries for file m: |S| x k x M, one per strategy row.

    zyqt adds j-1 (mod n) to the desired selector; ztsl is a k-step
    staircase on the base row s + (j-1) e_m; olr inserts the implied
    column ((j-1)*1 - sum of the selectors) mod n at position m.
    """
    n, k = inst.params.n, inst.params.k
    if inst.kind is SchemeKind.OLR:
        implied = j - 1 - strategies.sum(axis=1)
        return np.insert(strategies, m - 1, implied, axis=1).transpose(0, 2, 1) % n
    cols = strategies.copy()
    cols[:, m - 1] += j - 1
    if inst.kind is SchemeKind.ZTSL:
        return (cols[:, None, :] + np.arange(k)[:, None]) % n
    return cols.transpose(0, 2, 1) % n


def base_query(inst: SchemeInstance, m: int, s, j: int) -> QueryMatrix:
    _check_indices(inst, m, j)
    rows = query_rows(inst, m, strategy_array(inst, [s]), j)[0]
    return QueryMatrix(tuple(map(tuple, rows.tolist())))


def cyclic_shift(j: int, l: int, n_servers: int) -> int:
    """sigma^l(j) = ((j-1+l) mod N) + 1."""
    return ((j - 1 + l) % n_servers) + 1


def time_shared_query(inst: SchemeInstance, m: int, s, t: int, j: int) -> QueryMatrix:
    """Server j receives the base query of server sigma^(t-1)(j)."""
    if not 1 <= t <= inst.n_servers:
        raise ValueError(f"shift {t} outside [1:{inst.n_servers}]")
    return base_query(inst, m, s, cyclic_shift(j, t - 1, inst.n_servers))


def transmitted_rows(q: QueryMatrix, params: EffectiveParams) -> tuple[int, ...]:
    """Sub-response indices that touch at least one data row (index < lam)."""
    lam = params.lam
    return tuple(i for i, row in enumerate(q.rows) if min(row) < lam)


def answer_length(q: QueryMatrix, params: EffectiveParams) -> int:
    """Number of transmitted sub-responses for query q."""
    return len(transmitted_rows(q, params))


def answer_positions(q: QueryMatrix, params: EffectiveParams) -> np.ndarray:
    """Stacked-column positions read by each transmitted sub-response.

    A rows x M int array: row r holds, for each file m, the position
    (m-1)*n + entry of its queried row; entries >= lam are dummy zeros.
    """
    rows = np.array(q.rows, dtype=np.int64)
    kept = list(transmitted_rows(q, params))
    return rows[kept] + params.n * np.arange(q.m_cols)


def answer(q: QueryMatrix, column, params: EffectiveParams) -> tuple[int, ...]:
    """Transmitted sub-responses as residues, in row order.

    column is a server's 1 x (M*n) FieldMatrix.  Sub-response i sums,
    over files, the stored symbol at the queried row; rows whose every
    index lands in dummy storage are suppressed.
    """
    if (column.rows, column.cols) != (1, q.m_cols * params.n):
        raise ValueError(f"column is {column.rows}x{column.cols}, expected 1x(M*n)")
    # residues are below 2^16, so int64 sums over fewer than 2^47 files are exact
    sums = column.residues[0, answer_positions(q, params)].sum(axis=1)
    return tuple((sums % column.field.q).tolist())

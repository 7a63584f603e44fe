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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import permutations

import numpy as np

from .storage import EffectiveParams, effective_params


# largest alphabet array row count enumerated before olr's filter
DEFAULT_ALPHABET_GUARD = 1_000_000


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured desk-scale budget."""


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
    """The ordered strategy set S for one scheme and one (n, k, M).

    `array` holds S as one read-only integer array, member i in row i, in
    the layout `strategy_array` documents.  (kind, n, k, M) determine it,
    so it takes no part in equality or hashing.
    """

    kind: SchemeKind
    n: int
    k: int
    m_files: int
    array: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.array)

    @cached_property
    def members(self) -> tuple:
        """Each member as a tuple, of ints for ztsl and of PermSelectors for
        zyqt and olr; built on first use only."""
        rows = self.array.tolist()
        if self.kind is SchemeKind.ZTSL:
            return tuple(map(tuple, rows))
        selectors = {p.entries: p for p in enumerate_pnk(self.n, self.k)}
        return tuple(tuple(selectors[tuple(sel)] for sel in row) for row in rows)


def _digit_rows(radix: int, width: int) -> np.ndarray:
    """All radix**width rows of width digits in [0, radix), in the order of
    itertools.product (lexicographic, the first digit most significant)."""
    digits = np.arange(radix, dtype=np.min_scalar_type(radix - 1))
    rows = np.empty((radix ** width, width), dtype=digits.dtype)
    for p in range(width):  # digit p is constant over runs of radix**(width-1-p) rows
        rows.reshape(radix ** p, radix, -1, width)[..., p] = digits[:, None]
    return rows


def enumerate_strategies(kind: SchemeKind, n: int, k: int, m_files: int) -> StrategyAlphabet:
    """Build the full alphabet in canonical (lexicographic) member order.

    ztsl: M-1 free digits in [0:n-1], then the one last digit that makes
    the sum 0 mod n.  zyqt: M digits over P(n,k).  olr: M-1 digits over
    P(n,k) whose implied column (-sum of the selectors) mod n has distinct
    entries.  Entries take the smallest unsigned dtype that holds n-1.
    """
    kind = SchemeKind(kind)
    if m_files < 1:
        raise ValueError("need at least one file")
    _check_alphabet_budget(kind, n, k, m_files)
    if kind is SchemeKind.ZTSL:
        free = _digit_rows(n, m_files - 1)
        sums = np.zeros(1, dtype=np.int64)  # the rows' digit sums, in the same order
        for _ in range(m_files - 1):
            sums = (sums[:, None] + np.arange(n)).ravel()
        last = (-sums % n).astype(free.dtype)
        array = np.concatenate([free, last[:, None]], axis=1)
    else:
        selectors = np.array([p.entries for p in enumerate_pnk(n, k)],
                             dtype=np.min_scalar_type(n - 1))
        n_sel = m_files - (kind is SchemeKind.OLR)
        array = selectors[_digit_rows(len(selectors), n_sel)]
        if kind is SchemeKind.OLR:
            implied = np.sort(-array.sum(axis=1, dtype=np.int64) % n, axis=1)
            array = array[(implied[:, 1:] != implied[:, :-1]).all(axis=1)]
    array.setflags(write=False)
    return StrategyAlphabet(kind=kind, n=n, k=k, m_files=m_files, array=array)


def _check_alphabet_budget(kind: SchemeKind, n: int, k: int, m_files: int) -> None:
    """Refuse an alphabet whose array build would enumerate more than
    DEFAULT_ALPHABET_GUARD rows (read at call time): P(n,k)^M for zyqt,
    n^(M-1) for ztsl and P(n,k)^(M-1) for olr before its filter.  The power
    is multiplied up only until it passes the budget: a huge M costs a few
    products and is reported as "more than" the budget."""
    budget = DEFAULT_ALPHABET_GUARD
    base, left = ((n, m_files - 1) if kind is SchemeKind.ZTSL
                  else (math.perm(n, k), m_files - (kind is SchemeKind.OLR)))
    rows, left = (base ** left, 0) if base < 2 else (1, left)
    while left and rows <= budget:
        rows, left = rows * base, left - 1
    if rows > budget:
        count = f"more than {budget}" if left else rows
        raise ResourceLimitError(f"{kind.value} alphabet enumeration needs {count} rows "
                                 f"(n={n}, k={k}, M={m_files}), budget {budget}")


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


def strategy_array(inst: SchemeInstance) -> np.ndarray:
    """The alphabet as int64 rows: (|S|, M) for ztsl, (|S|, M, k) for zyqt
    and (|S|, M-1, k) for olr, whose M = 1 has none.  Widened from the
    alphabet's unsigned entries, so that `query_rows` may subtract."""
    return inst.alphabet.array.astype(np.int64)


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
    """Server j's base query for file m; s is a member or a row of the
    alphabet's array."""
    _check_indices(inst, m, j)
    strategy = np.asarray(s, dtype=np.int64).reshape((1,) + inst.alphabet.array.shape[1:])
    rows = query_rows(inst, m, strategy, j)[0]
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

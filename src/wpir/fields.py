"""Exact arithmetic over prime fields GF(q) and dense linear algebra.

Everything here is exact: no floating point, no tolerances.  A field
element is a plain int residue in [0:q-1], and `FieldMatrix` stores its
entries as a read-only 2-D int64 numpy array of residues.  This module
owns the field-size limit: q may not exceed MAX_FIELD_SIZE = 2^16, since
answer symbols travel as 2-byte residues, and every product of two
residues then fits in 32 bits.  Matrices are immutable and safe to share
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# answer symbols travel as 2-byte residues, so q may not exceed 2^16
MAX_FIELD_SIZE = 1 << 16

# Miller-Rabin with these bases decides primality exactly below the bound
# (Sorenson and Webster, 2015); trial division covers the rest.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        d = 41
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_at_least(n: int) -> int:
    """Smallest prime >= n (used to pick a default modulus per instance)."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class PrimeField:
    """The field of integers modulo a prime q, with q at most MAX_FIELD_SIZE."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        # the size first: is_prime trial-divides large moduli
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"modulus {q} exceeds {MAX_FIELD_SIZE}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


class FieldMatrix:
    """A rectangular matrix over one field, stored as residues mod q.

    `residues` is the read-only int64 numpy array of entries.  Build one
    with `from_ints`, `identity` or `zeros`.
    """

    __slots__ = ("rows", "cols", "field", "residues")

    @classmethod
    def _wrap(cls, residues: np.ndarray, fld: PrimeField) -> "FieldMatrix":
        """Adopt a 2-D int64 array already reduced mod q."""
        residues.setflags(write=False)
        mat = cls.__new__(cls)
        mat.residues = residues
        mat.rows, mat.cols = residues.shape
        mat.field = fld
        return mat

    @classmethod
    def from_ints(cls, data, fld: PrimeField) -> "FieldMatrix":
        """Rows of ints (or a 2-D integer array), reduced mod q into a
        fresh array."""
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be a rectangular list of rows")
        if arr.size == 0:
            raise ValueError("matrix must be nonempty")
        arr %= fld.q
        return cls._wrap(arr, fld)

    @classmethod
    def identity(cls, n: int, fld: PrimeField) -> "FieldMatrix":
        return cls.from_ints(np.eye(n, dtype=np.int64), fld)

    @classmethod
    def zeros(cls, rows: int, cols: int, fld: PrimeField) -> "FieldMatrix":
        return cls.from_ints(np.zeros((rows, cols), dtype=np.int64), fld)

    def to_ints(self) -> list[list[int]]:
        return self.residues.tolist()

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if other.field != self.field:
            raise ValueError(f"cannot combine matrices over {self.field} and {other.field}")
        # (q-1)^2 < 2^32, so int64 dot products are exact below 2^31 columns
        return FieldMatrix._wrap((self.residues @ other.residues) % self.field.q, self.field)

    def submatrix(self, row_idx, col_idx) -> "FieldMatrix":
        sub = self.residues[np.ix_(list(row_idx), list(col_idx))]
        return FieldMatrix._wrap(sub, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and np.array_equal(self.residues, other.residues)
        )

    def __hash__(self):
        return hash((self.field.q, self.residues.shape, tuple(self.residues.flat)))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.to_ints())
        return f"FieldMatrix[{body}]"


@dataclass(frozen=True)
class LinearSolution:
    """Reduced-echelon description of the solution set of A x = b.

    status is "unique", "underdetermined" or "infeasible".  For feasible
    systems, `solution` is the particular solution as residues (ints in
    [0, q)) with free variables set to zero, and `determined[v]` says
    whether unknown v takes the same value in every solution.
    `reduced_rows` holds the nonzero rows of the reduced echelon form of
    A; it is None for an infeasible system or a zero A.
    """

    status: str
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    solution: tuple[int, ...] | None
    determined: tuple[bool, ...]
    reduced_rows: FieldMatrix | None = field(repr=False, default=None)

    @property
    def is_feasible(self) -> bool:
        return self.status != "infeasible"


def solve_linear(a: FieldMatrix, b) -> LinearSolution:
    """Gaussian elimination of [A | b] over GF(q) to reduced echelon form.

    Pivots on the first nonzero entry at or below the current row in each
    column, and clears that column from every other row in one array
    update.  b holds ints, which are reduced mod q.  Inconsistency
    is reported through the status, never raised.
    """
    if a.rows != len(b):
        raise ValueError(f"A has {a.rows} rows but b has {len(b)} entries")
    fld = a.field
    q = fld.q
    n = a.cols
    m = np.empty((a.rows, n + 1), dtype=np.int64)
    m[:, :n] = a.residues
    m[:, n] = np.array(b, dtype=np.int64) % q

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        if r == a.rows:
            break
        below = m[r:, c].nonzero()[0]
        if not below.size:
            continue
        pr = r + int(below[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        # entries left of c in the pivot row are already zero
        pivot = m[r, c:] * pow(int(m[r, c]), q - 2, q) % q
        m[r, c:] = pivot
        factors = m[:, c].copy()
        factors[r] = 0
        hit = factors.nonzero()[0]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - factors[hit, None] * pivot) % q
        pivot_cols.append(c)
        r += 1

    pivot_set = set(pivot_cols)
    free_cols = tuple(c for c in range(n) if c not in pivot_set)
    # a zero row with nonzero rhs means the system is inconsistent
    if np.any(m[r:, n]):
        return LinearSolution(
            status="infeasible",
            pivot_cols=tuple(pivot_cols),
            free_cols=free_cols,
            solution=None,
            determined=(False,) * n,
        )

    sol = [0] * n
    determined = [False] * n
    # a pivot is unique iff its row involves no free variable
    pinned = (~m[:r][:, list(free_cols)].any(axis=1)).tolist()
    for c, value, unique in zip(pivot_cols, m[:r, n].tolist(), pinned):
        sol[c] = value
        determined[c] = unique
    return LinearSolution(
        status="unique" if not free_cols else "underdetermined",
        pivot_cols=tuple(pivot_cols),
        free_cols=free_cols,
        solution=tuple(sol),
        determined=tuple(determined),
        reduced_rows=FieldMatrix._wrap(m[:r, :n].copy(), fld) if r else None,
    )

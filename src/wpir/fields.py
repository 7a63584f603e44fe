"""Exact arithmetic over prime fields GF(q) and dense linear algebra.

Everything here is exact: no floating point, no tolerances.
`FieldElement` is the scalar API: an immutable residue tagged with its
field.  `FieldMatrix` stores its entries as a read-only 2-D numpy array
of residues in [0:q-1] and boxes an entry into a `FieldElement` only when
it is read.  The array is int64 when (q-1)^2 fits a signed 64-bit word,
so every product of two residues is exact, and holds Python ints
(dtype object) otherwise; one code path serves both.  Elements and
matrices are immutable and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    """The field of integers modulo a prime q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def __call__(self, value: int) -> FieldElement:
        return FieldElement(value % self.q, self)

    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def elements(self):
        """All q elements, in residue order."""
        for v in range(self.q):
            yield FieldElement(v, self)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


class FieldElement:
    """A residue in [0:q-1] tagged with its field.

    Elements of different fields never combine; mixing raises ValueError.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, fld: PrimeField):
        self.value = value % fld.q
        self.field = fld

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"cannot combine elements of {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(o.value - self.value, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.field}")
        # Fermat: a^(q-2) = a^-1 for prime q
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field == other.field
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field.q))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value}"


def _residues(data, q: int) -> np.ndarray:
    """A fresh read-only 2-D array of data reduced mod q.

    int64 when every product of two residues fits, else Python ints.
    """
    dtype = np.int64 if (q - 1) ** 2 < 2**63 else object
    try:
        arr = np.array(data, dtype=dtype)
    except OverflowError:
        arr = np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError("matrix data must be a rectangular list of rows")
    if arr.size == 0:
        raise ValueError("matrix must be nonempty")
    arr = (arr % q).astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


class FieldMatrix:
    """A rectangular matrix over one field, stored as residues mod q.

    `residues` is the read-only numpy array of entries; indexing, `row`
    and `column` box the entries they return as FieldElements.
    """

    __slots__ = ("rows", "cols", "field", "residues")

    def __init__(self, data):
        rows = [tuple(r) for r in data]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        ncols = len(rows[0])
        fld = rows[0][0].field
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, FieldElement) or e.field != fld:
                    raise ValueError("all entries must share one field")
        self._set(_residues([[e.value for e in r] for r in rows], fld.q), fld)

    def _set(self, residues: np.ndarray, fld: PrimeField) -> None:
        self.residues = residues
        self.rows, self.cols = residues.shape
        self.field = fld

    @classmethod
    def _wrap(cls, residues: np.ndarray, fld: PrimeField) -> "FieldMatrix":
        """Adopt an array already reduced mod q, of the field's dtype."""
        residues.setflags(write=False)
        mat = cls.__new__(cls)
        mat._set(residues, fld)
        return mat

    @classmethod
    def from_ints(cls, data, fld: PrimeField) -> "FieldMatrix":
        """Rows of ints (or a 2-D integer array), reduced mod q."""
        return cls._wrap(_residues(data, fld.q), fld)

    @classmethod
    def identity(cls, n: int, fld: PrimeField) -> "FieldMatrix":
        return cls.from_ints(np.eye(n, dtype=np.int64), fld)

    @classmethod
    def zeros(cls, rows: int, cols: int, fld: PrimeField) -> "FieldMatrix":
        return cls.from_ints(np.zeros((rows, cols), dtype=np.int64), fld)

    def _box(self, v) -> FieldElement:
        return FieldElement(int(v), self.field)

    def __getitem__(self, idx) -> FieldElement:
        i, j = idx
        return self._box(self.residues[i, j])

    def row(self, i: int):
        return tuple(self._box(v) for v in self.residues[i])

    def column(self, j: int):
        return tuple(self._box(v) for v in self.residues[:, j])

    def to_ints(self) -> list[list[int]]:
        return self.residues.tolist()

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if other.field != self.field:
            raise ValueError(f"cannot combine matrices over {self.field} and {other.field}")
        q = self.field.q
        a, b = self.residues, other.residues
        if a.dtype != object and self.cols * (q - 1) ** 2 >= 2**63:
            # the dot products could overflow int64; sum Python ints instead
            a, b = a.astype(object), b.astype(object)
        prod = (a @ b) % q
        return FieldMatrix._wrap(prod.astype(self.residues.dtype, copy=False), self.field)

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
    systems, `solution` is the particular solution with free variables set
    to zero, and `determined[v]` says whether unknown v takes the same
    value in every solution.  `reduced_rows` holds the nonzero rows of the
    reduced echelon form of A; it is None for an infeasible system or a
    zero A.
    """

    status: str
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    solution: tuple | None
    determined: tuple[bool, ...]
    reduced_rows: FieldMatrix | None = field(repr=False, default=None)

    @property
    def is_feasible(self) -> bool:
        return self.status != "infeasible"


def _rhs_residues(fld: PrimeField, b, dtype) -> np.ndarray:
    """The right-hand side as residues; entries are ints or FieldElements."""
    out = []
    for v in b:
        if isinstance(v, FieldElement):
            if v.field != fld:
                raise ValueError(f"cannot combine elements of {fld} and {v.field}")
            out.append(v.value)
        else:
            out.append(int(v) % fld.q)
    return np.array(out, dtype=dtype)


def solve_linear(a: FieldMatrix, b) -> LinearSolution:
    """Gaussian elimination of [A | b] over GF(q) to reduced echelon form.

    Pivots on the first nonzero entry at or below the current row in each
    column, and clears that column from every other row in one array
    update.  b holds ints or FieldElements of A's field.  Inconsistency
    is reported through the status, never raised.
    """
    if a.rows != len(b):
        raise ValueError(f"A has {a.rows} rows but b has {len(b)} entries")
    fld = a.field
    q = fld.q
    n = a.cols
    m = np.empty((a.rows, n + 1), dtype=a.residues.dtype)
    m[:, :n] = a.residues
    m[:, n] = _rhs_residues(fld, b, m.dtype)

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
        solution=tuple(FieldElement(v, fld) for v in sol),
        determined=tuple(determined),
        reduced_rows=FieldMatrix._wrap(m[:r, :n].copy(), fld) if r else None,
    )

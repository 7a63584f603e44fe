"""Tests for exact prime-field arithmetic and linear solving."""
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpir.fields import (
    MAX_FIELD_SIZE,
    FieldMatrix,
    PrimeField,
    is_prime,
    smallest_prime_at_least,
    solve_linear,
)

GF5 = PrimeField(5)


def mat_vec(a: FieldMatrix, v) -> tuple:
    """a @ v for a plain sequence v of residues."""
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    col = FieldMatrix.from_ints([[e] for e in v], a.field)
    return tuple(r[0] for r in (a @ col).to_ints())


PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_constructor_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


@st.composite
def field_and_elems(draw, count):
    p = draw(st.sampled_from(PRIMES_TO_101))
    vals = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(count)]
    return PrimeField(p), vals


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(1) == 2


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        FieldMatrix.from_ints([[1, 2], [3]], GF5)
    a = FieldMatrix.from_ints([[1, 2], [3, 4]], GF5)
    b = FieldMatrix.from_ints([[1, 2, 3]], GF5)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError, match="cannot combine"):
        a @ FieldMatrix.from_ints([[1, 0], [0, 1]], PrimeField(7))


def test_matrix_identity_product():
    a = FieldMatrix.from_ints([[1, 2], [3, 4]], GF5)
    eye = FieldMatrix.identity(2, GF5)
    assert a @ eye == a
    assert eye @ a == a


def test_matrix_known_product():
    a = FieldMatrix.from_ints([[1, 2], [3, 4]], GF5)
    b = FieldMatrix.from_ints([[0, 1], [1, 0]], GF5)
    assert (a @ b).to_ints() == [[2, 1], [4, 3]]


def test_solve_unique_against_random_oracle():
    """Build x first, then A x = b must recover exactly x."""
    rng = random.Random(20240511)
    for p in (2, 3, 5, 11):
        fld = PrimeField(p)
        for _ in range(20):
            n = rng.randrange(1, 6)
            while True:
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                a = FieldMatrix.from_ints(rows, fld)
                probe = solve_linear(a, [0] * n)
                if probe.status == "unique":
                    break
            x = [rng.randrange(p) for _ in range(n)]
            b = mat_vec(a, x)
            res = solve_linear(a, list(b))
            assert res.status == "unique"
            assert list(res.solution) == x
            assert all(res.determined)


def test_solve_underdetermined():
    a = FieldMatrix.from_ints([[1, 1, 0], [0, 0, 1]], GF5)
    res = solve_linear(a, [3, 2])
    assert res.status == "underdetermined"
    assert res.pivot_cols == (0, 2)
    assert res.free_cols == (1,)
    # x2 is pinned by its own row; x0 depends on the free x1
    assert res.determined == (False, False, True)
    assert res.solution[2] == 2
    # the particular solution still satisfies the system
    assert list(mat_vec(a, res.solution)) == [3, 2]


def test_solve_infeasible():
    a = FieldMatrix.from_ints([[1, 1], [2, 2]], GF5)
    res = solve_linear(a, [1, 3])
    assert res.status == "infeasible"
    assert not res.is_feasible
    assert res.solution is None


def test_solve_shape_mismatch():
    a = FieldMatrix.from_ints([[1, 1]], GF5)
    with pytest.raises(ValueError):
        solve_linear(a, [1, 2])


@given(field_and_elems(4))
def test_solve_2x2_random(fe):
    fld, (a, b, c, d) = fe
    m = FieldMatrix.from_ints([[a, b], [c, d]], fld)
    det = (a * d - b * c) % fld.q
    res = solve_linear(m, [1, 0])
    if det != 0:
        assert res.status == "unique"
        assert list(mat_vec(m, res.solution)) == [1, 0]
    else:
        assert res.status in ("underdetermined", "infeasible")


LARGEST_WIRE_PRIME = 65521  # the largest prime whose residues fit 2 bytes


def _reference_solve_linear(a: FieldMatrix, b):
    """Pure-Python elimination, one scalar operation per entry.

    Every step is a Python int reduced mod q, with inverses by Fermat
    (pow(x, q - 2, q)).  Returns the LinearSolution fields it computes,
    with the reduced rows as lists of ints, so the array solver can be
    compared against it.
    """
    q = a.field.q
    n = a.cols
    rows = [row + [b[i] % q] for i, row in enumerate(a.to_ints())]

    pivot_cols: list[int] = []
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [e * inv % q for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(ei - f * ej) % q for ei, ej in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break

    free_cols = tuple(c for c in range(n) if c not in pivot_of_col)
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return {
                "status": "infeasible",
                "pivot_cols": tuple(pivot_cols),
                "free_cols": free_cols,
                "solution": None,
                "determined": tuple(False for _ in range(n)),
                "reduced_rows": [],
            }

    sol = [0] * n
    determined = [False] * n
    for c in pivot_cols:
        row = rows[pivot_of_col[c]]
        sol[c] = row[n]
        determined[c] = all(row[fc] == 0 for fc in free_cols)
    return {
        "status": "unique" if not free_cols else "underdetermined",
        "pivot_cols": tuple(pivot_cols),
        "free_cols": free_cols,
        "solution": tuple(sol),
        "determined": tuple(determined),
        "reduced_rows": [row[:n] for row in rows[:r]],
    }


@st.composite
def linear_systems(draw):
    """A x = b over GF(p), up to 12x12, often rank-deficient or inconsistent.

    A is either drawn entry by entry (mostly zeros) or as a product of
    random factors of a drawn rank; b is either A x for a drawn x or
    drawn freely, which is usually inconsistent when A lacks full row rank.
    """
    p = draw(st.sampled_from(PRIMES_TO_101 + [LARGEST_WIRE_PRIME]))
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entry = st.integers(0, p - 1)

    def ints(count, elems=entry):
        return draw(st.lists(elems, min_size=count, max_size=count))

    if draw(st.booleans()):
        sparse = st.one_of(st.just(0), st.just(0), entry)
        a = [ints(n_cols, sparse) for _ in range(n_rows)]
    else:
        rank = draw(st.integers(0, min(n_rows, n_cols)))
        left = [ints(rank) for _ in range(n_rows)]
        right = [ints(n_cols) for _ in range(rank)]
        a = [
            [sum(lr[t] * right[t][j] for t in range(rank)) % p for j in range(n_cols)]
            for lr in left
        ]
    if draw(st.booleans()):
        x = ints(n_cols)
        b = [sum(v * xv for v, xv in zip(row, x)) % p for row in a]
    else:
        b = ints(n_rows)
    fld = PrimeField(p)
    return FieldMatrix.from_ints(a, fld), b


@given(linear_systems())
def test_solve_linear_matches_reference(system):
    a, b = system
    res = solve_linear(a, b)
    ref = _reference_solve_linear(a, b)
    assert res.status == ref["status"]
    assert res.pivot_cols == ref["pivot_cols"]
    assert res.free_cols == ref["free_cols"]
    assert res.solution == ref["solution"]
    assert res.determined == ref["determined"]
    reduced = [] if res.reduced_rows is None else res.reduced_rows.to_ints()
    assert reduced == ref["reduced_rows"]


def test_residue_dtype_follows_q():
    """Every allowed q gives int64 residues; q above 2^16 is refused."""
    q = LARGEST_WIRE_PRIME
    fld = PrimeField(q)
    a = FieldMatrix.from_ints([[q - 1, 2], [3, -1]], fld)
    assert a.residues.dtype == np.int64
    assert a.to_ints() == [[q - 1, 2], [3, q - 1]]
    # (q-1)^2 is just below 2^32: the product must still be exact
    expect = [
        [((q - 1) ** 2 + 6) % q, (2 * (q - 1) + 2 * (q - 1)) % q],
        [(3 * (q - 1) + 3 * (q - 1)) % q, (6 + (q - 1) ** 2) % q],
    ]
    assert (a @ a).to_ints() == expect
    assert MAX_FIELD_SIZE == 1 << 16
    with pytest.raises(ValueError, match="exceeds 65536"):
        PrimeField(65537)
    # refused by size before any primality test, which would trial-divide
    with pytest.raises(ValueError, match="exceeds"):
        PrimeField(2**89 - 1)


def test_matrix_is_read_only():
    a = FieldMatrix.from_ints([[1, 2], [3, 4]], GF5)
    with pytest.raises(ValueError):
        a.residues[0, 0] = 0
    assert a.to_ints() == [[1, 2], [3, 4]]


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert is_prime(2**61 - 1) and is_prime(65537) and is_prime(4294967311)
    # strong pseudoprimes to bases 2, 3, 5, 7 and a Carmichael number
    assert not is_prime(3215031751) and not is_prime(561)
    assert not is_prime((2**61 - 1) * 65537)

"""Tests for exact prime-field arithmetic and linear solving."""
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpir.fields import (
    FieldElement,
    FieldMatrix,
    PrimeField,
    is_prime,
    smallest_prime_at_least,
    solve_linear,
)

GF5 = PrimeField(5)
GF7 = PrimeField(7)


def mat_vec(a: FieldMatrix, v) -> tuple:
    """a @ v for a plain sequence v of FieldElements."""
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    col = FieldMatrix.from_ints([[int(e)] for e in v], a.field)
    return (a @ col).column(0)


PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_constructor_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_gf5_examples():
    assert (GF5(3) * GF5(4)).value == 2
    assert GF5(2).inverse().value == 3
    assert (GF5(2) / GF5(2)).value == 1


def test_gf7_additive_identity():
    for a in GF7.elements():
        assert a + GF7.zero() == a
        assert a * GF7.one() == a


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        GF5(0).inverse()
    with pytest.raises(ZeroDivisionError):
        GF5(1) / GF5(0)


def test_field_mismatch_raises():
    with pytest.raises(ValueError):
        GF5(1) + GF7(1)
    with pytest.raises(ValueError):
        GF5(1) * GF7(1)


def test_int_coercion():
    assert GF5(3) + 4 == GF5(2)
    assert 4 + GF5(3) == GF5(2)
    assert 2 - GF5(3) == GF5(4)
    assert 1 / GF5(2) == GF5(3)


def test_exhaustive_inverses_small_primes():
    for p in PRIMES_TO_101:
        fld = PrimeField(p)
        for v in range(1, p):
            a = fld(v)
            assert (a * a.inverse()).value == 1


@st.composite
def field_and_elems(draw, count):
    p = draw(st.sampled_from(PRIMES_TO_101))
    fld = PrimeField(p)
    vals = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(count)]
    return fld, [fld(v) for v in vals]


@given(field_and_elems(3))
def test_field_axioms(fe):
    _, (a, b, c) = fe
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a.value != 0:
        assert a * a.inverse() == 1


@given(field_and_elems(2))
def test_sub_div_consistency(fe):
    _, (a, b) = fe
    assert (a - b) + b == a
    if b.value != 0:
        assert (a / b) * b == a


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
                rows = [[fld(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
                a = FieldMatrix(rows)
                probe = solve_linear(a, [fld(0)] * n)
                if probe.status == "unique":
                    break
            x = [fld(rng.randrange(p)) for _ in range(n)]
            b = mat_vec(a, x)
            res = solve_linear(a, list(b))
            assert res.status == "unique"
            assert list(res.solution) == x
            assert all(res.determined)


def test_solve_underdetermined():
    a = FieldMatrix.from_ints([[1, 1, 0], [0, 0, 1]], GF5)
    res = solve_linear(a, [GF5(3), GF5(2)])
    assert res.status == "underdetermined"
    assert res.pivot_cols == (0, 2)
    assert res.free_cols == (1,)
    # x2 is pinned by its own row; x0 depends on the free x1
    assert res.determined == (False, False, True)
    assert res.solution[2] == GF5(2)
    # the particular solution still satisfies the system
    assert list(mat_vec(a, res.solution)) == [GF5(3), GF5(2)]


def test_solve_infeasible():
    a = FieldMatrix.from_ints([[1, 1], [2, 2]], GF5)
    res = solve_linear(a, [GF5(1), GF5(3)])
    assert res.status == "infeasible"
    assert not res.is_feasible
    assert res.solution is None


def test_solve_shape_mismatch():
    a = FieldMatrix.from_ints([[1, 1]], GF5)
    with pytest.raises(ValueError):
        solve_linear(a, [GF5(1), GF5(2)])


@given(field_and_elems(4))
def test_solve_2x2_random(fe):
    fld, (a, b, c, d) = fe
    m = FieldMatrix([[a, b], [c, d]])
    det = a * d - b * c
    res = solve_linear(m, [fld(1), fld(0)])
    if det.value != 0:
        assert res.status == "unique"
        assert list(mat_vec(m, res.solution)) == [fld(1), fld(0)]
    else:
        assert res.status in ("underdetermined", "infeasible")


MERSENNE_61 = 2**61 - 1  # (q-1)^2 overflows int64: entries are Python ints


def _reference_solve_linear(a: FieldMatrix, b):
    """The original pure-Python elimination, one FieldElement op per entry.

    Returns the LinearSolution fields it computes, with the reduced rows
    as lists of ints, so the array solver can be compared against it.
    """
    fld = a.field
    n = a.cols
    rows = [list(a.row(i)) + [b[i]] for i in range(a.rows)]

    pivot_cols: list[int] = []
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c].value != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c].value != 0:
                f = rows[i][c]
                rows[i] = [ei - f * ej for ei, ej in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break

    free_cols = tuple(c for c in range(n) if c not in pivot_of_col)
    for i in range(r, len(rows)):
        if rows[i][n].value != 0:
            return {
                "status": "infeasible",
                "pivot_cols": tuple(pivot_cols),
                "free_cols": free_cols,
                "solution": None,
                "determined": tuple(False for _ in range(n)),
                "reduced_rows": [],
            }

    sol = [fld.zero()] * n
    determined = [False] * n
    for c in pivot_cols:
        row = rows[pivot_of_col[c]]
        sol[c] = row[n]
        determined[c] = all(row[fc].value == 0 for fc in free_cols)
    return {
        "status": "unique" if not free_cols else "underdetermined",
        "pivot_cols": tuple(pivot_cols),
        "free_cols": free_cols,
        "solution": tuple(sol),
        "determined": tuple(determined),
        "reduced_rows": [[e.value for e in row[:n]] for row in rows[:r]],
    }


@st.composite
def linear_systems(draw):
    """A x = b over GF(p), up to 12x12, often rank-deficient or inconsistent.

    A is either drawn entry by entry (mostly zeros) or as a product of
    random factors of a drawn rank; b is either A x for a drawn x or
    drawn freely, which is usually inconsistent when A lacks full row rank.
    """
    p = draw(st.sampled_from(PRIMES_TO_101 + [MERSENNE_61]))
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
    return FieldMatrix.from_ints(a, fld), [fld(v) for v in b]


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
    small = FieldMatrix.from_ints([[1, 2], [3, 4]], GF7)
    assert small.residues.dtype == np.int64
    big_field = PrimeField(MERSENNE_61)
    big = FieldMatrix.from_ints([[MERSENNE_61 - 1, 2], [3, -1]], big_field)
    assert big.residues.dtype == object
    # (q-1)^2 needs 122 bits: the product must still be exact
    expect = [
        [((MERSENNE_61 - 1) ** 2 + 6) % MERSENNE_61, (2 * (MERSENNE_61 - 1) - 2) % MERSENNE_61],
        [(3 * (MERSENNE_61 - 1) - 3) % MERSENNE_61, (6 + 1) % MERSENNE_61],
    ]
    assert (big @ big).to_ints() == expect


def test_matrix_is_read_only():
    a = FieldMatrix.from_ints([[1, 2], [3, 4]], GF5)
    with pytest.raises(ValueError):
        a.residues[0, 0] = 0
    assert a[1, 0] == GF5(3) and a.row(0) == (GF5(1), GF5(2))


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert is_prime(MERSENNE_61) and is_prime(65537) and is_prime(4294967311)
    # strong pseudoprimes to bases 2, 3, 5, 7 and a Carmichael number
    assert not is_prime(3215031751) and not is_prime(561)
    assert not is_prime(MERSENNE_61 * 65537)

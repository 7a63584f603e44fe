"""Tests for MDS code construction, encoding, and erasure recovery."""
import random
from itertools import combinations

import pytest

from forms import decode_from, encode_row
from wpir.fields import FieldMatrix, PrimeField
from wpir.mds import MdsCode, check_mds, make_rs_code

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_rs_3_2_gf3_systematic_and_mds():
    code = make_rs_code(3, 2, GF3)
    g = code.generator.to_ints()
    assert [row[:2] for row in g] == [[1, 0], [0, 1]]
    assert g[0][2] != 0 and g[1][2] != 0
    assert check_mds(code)


def test_rs_5_3_gf5_all_submatrices():
    code = make_rs_code(5, 3, GF5)
    assert check_mds(code)
    assert len(list(combinations(range(5), 3))) == 10


def test_precondition_errors():
    with pytest.raises(ValueError):
        make_rs_code(2, 2, GF3)
    with pytest.raises(ValueError):
        make_rs_code(5, 2, GF3)  # q < N


def test_repeated_column_is_not_mds():
    g = FieldMatrix.from_ints([[1, 0, 1], [0, 1, 0]], GF3)
    with pytest.raises(ValueError):
        MdsCode(3, 2, g)


def test_encode_zero_and_units():
    code = make_rs_code(4, 2, GF5)
    z = [0, 0]
    assert all(e == 0 for e in encode_row(code, z))
    for i in range(2):
        e_i = [1 if t == i else 0 for t in range(2)]
        assert list(encode_row(code, e_i)) == code.generator.to_ints()[i]


def test_systematic_prefix():
    code = make_rs_code(5, 3, GF5)
    w = [2, 0, 4]
    cw = encode_row(code, w)
    assert list(cw[:3]) == w


def test_erasure_decode_oracle():
    """Construct w first; any K surviving coordinates must recover it."""
    rng = random.Random(77)
    for n_total, dim, q in ((3, 2, 3), (4, 2, 5), (5, 3, 5), (6, 4, 7)):
        fld = PrimeField(q)
        code = make_rs_code(n_total, dim, fld)
        for _ in range(10):
            w = [rng.randrange(q) for _ in range(dim)]
            cw = encode_row(code, w)
            positions = rng.sample(range(n_total), dim)
            got = decode_from(code, positions, [cw[p] for p in positions])
            assert list(got) == w


def test_linearity():
    rng = random.Random(78)
    code = make_rs_code(5, 3, GF5)
    for _ in range(10):
        w1 = [rng.randrange(5) for _ in range(3)]
        w2 = [rng.randrange(5) for _ in range(3)]
        lhs = encode_row(code, [(a + b) % 5 for a, b in zip(w1, w2)])
        rhs = tuple((a + b) % 5 for a, b in zip(encode_row(code, w1), encode_row(code, w2)))
        assert lhs == rhs

"""Tests for effective parameters, file sets, and encoded storage columns."""
import pytest

from forms import decode_from
from wpir.fields import FieldMatrix, PrimeField
from wpir.mds import make_rs_code
from wpir.storage import (
    EffectiveParams,
    FileSet,
    effective_params,
    encode_storage,
    server_column,
)

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_effective_params_examples():
    assert effective_params(3, 2) == EffectiveParams(3, 2, 1)
    assert effective_params(4, 2) == EffectiveParams(2, 1, 1)
    assert effective_params(5, 3) == EffectiveParams(5, 3, 2)


def test_effective_params_rejects_k_ge_n():
    with pytest.raises(ValueError):
        effective_params(3, 3)
    with pytest.raises(ValueError):
        effective_params(2, 3)


def test_fileset_shape_checks():
    a = FieldMatrix.from_ints([[1, 2]], GF3)
    b = FieldMatrix.from_ints([[1, 2], [0, 1]], GF3)
    with pytest.raises(ValueError):
        FileSet([a, b])
    c = FieldMatrix.from_ints([[1, 2]], GF5)
    with pytest.raises(ValueError):
        FileSet([a, c])


def test_fileset_random_reproducible():
    f1 = FileSet.random(2, 1, 2, GF3, seed=9)
    f2 = FileSet.random(2, 1, 2, GF3, seed=9)
    assert f1.files == f2.files
    f3 = FileSet.random(2, 1, 2, GF3, seed=10)
    assert f1.files != f3.files


def test_zero_files_zero_columns():
    code = make_rs_code(3, 2, GF3)
    st = encode_storage(FileSet.zeros(2, 1, 2, GF3), code)
    for j in range(1, 4):
        assert all(e == 0 for e in server_column(st, j).residues.flat)


def test_block_layout_2_3_2():
    """lam=1 data row then k=2 dummy zero rows per block."""
    code = make_rs_code(3, 2, GF3)
    st = encode_storage(FileSet.random(2, 1, 2, GF3, seed=4), code)
    for j in range(1, 4):
        col = server_column(st, j)
        assert col.cols == 2 * 3
        for m in (1, 2):
            assert st.symbol(m, 1, j) == 0
            assert st.symbol(m, 2, j) == 0


def test_codeword_row_invariant_and_decode():
    """Each data row across servers is a codeword; any K servers recover it."""
    code = make_rs_code(5, 3, GF5)
    fs = FileSet.random(2, 2, 3, GF5, seed=11)
    st = encode_storage(fs, code)
    for m in (1, 2):
        for i in range(2):
            row = [st.symbol(m, i, j) for j in range(1, 6)]
            got = decode_from(code, [0, 2, 4], [row[0], row[2], row[4]])
            assert list(got) == fs.file(m).to_ints()[i]


def test_gcd_reduction_case():
    """(4,2): n=2, k=1, files are 1x2, blocks are 2 rows tall."""
    code = make_rs_code(4, 2, GF5)
    fs = FileSet.random(3, 1, 2, GF5, seed=5)
    st = encode_storage(fs, code)
    assert st.params == EffectiveParams(2, 1, 1)
    for j in range(1, 5):
        assert server_column(st, j).cols == 3 * 2
        for m in (1, 2, 3):
            assert st.symbol(m, 1, j) == 0


def test_server_column_range():
    code = make_rs_code(3, 2, GF3)
    st = encode_storage(FileSet.zeros(1, 1, 2, GF3), code)
    with pytest.raises(ValueError):
        server_column(st, 0)
    with pytest.raises(ValueError):
        server_column(st, 4)


def test_dimension_mismatch():
    code = make_rs_code(3, 2, GF3)
    with pytest.raises(ValueError):
        encode_storage(FileSet.random(1, 2, 2, GF3, seed=0), code)
    with pytest.raises(ValueError):
        encode_storage(FileSet.random(1, 1, 2, GF5, seed=0), code)

"""File model and per-server encoded columns with appended dummy rows.

Effective parameters (n, k) are N, K reduced by gcd(N, K); each file is a
lambda x K matrix with lambda = n - k.  Every server stores, per file, the
lambda encoded data rows followed by k all-zero dummy rows, so query row
indices range over [0:n-1].  All servers' columns are one read-only
N x (M*n) residue matrix.  Row indices are 0-based; server and file
indices are 1-based.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .fields import FieldMatrix, PrimeField
from .mds import MdsCode


@dataclass(frozen=True)
class EffectiveParams:
    """Reduced code parameters: n = N/gcd, k = K/gcd, lam = n - k."""

    n: int
    k: int
    lam: int

    def __post_init__(self):
        assert math.gcd(self.n, self.k) == 1
        assert self.lam == self.n - self.k >= 1


def effective_params(n_servers: int, dim: int) -> EffectiveParams:
    if not n_servers > dim >= 1:
        raise ValueError(f"need N > K >= 1, got N={n_servers}, K={dim}")
    g = math.gcd(n_servers, dim)
    n, k = n_servers // g, dim // g
    return EffectiveParams(n=n, k=k, lam=n - k)


class FileSet:
    """M independent files, each a lambda x K matrix over one field."""

    __slots__ = ("m_files", "files", "field")

    def __init__(self, files):
        files = tuple(files)
        if not files:
            raise ValueError("need at least one file")
        shape = (files[0].rows, files[0].cols)
        fld = files[0].field
        for f in files:
            if (f.rows, f.cols) != shape or f.field != fld:
                raise ValueError("files must share dimensions and field")
        self.m_files = len(files)
        self.files = files
        self.field = fld

    def file(self, m: int) -> FieldMatrix:
        if not 1 <= m <= self.m_files:
            raise ValueError(f"file index {m} outside [1:{self.m_files}]")
        return self.files[m - 1]

    @classmethod
    def random(cls, m_files: int, lam: int, dim: int, fld: PrimeField, seed: int) -> "FileSet":
        """Pseudo-random files from a seed, for reproducible retrieval tests."""
        rng = random.Random(seed)
        return cls(
            FieldMatrix.from_ints(
                [[rng.randrange(fld.q) for _ in range(dim)] for _ in range(lam)], fld
            )
            for _ in range(m_files)
        )

    @classmethod
    def zeros(cls, m_files: int, lam: int, dim: int, fld: PrimeField) -> "FileSet":
        return cls(FieldMatrix.zeros(lam, dim, fld) for _ in range(m_files))


@dataclass(frozen=True, eq=False)
class EncodedStorage:
    """All servers' stacked columns as one N x (M*n) residue matrix.

    Row j-1 is server j's column: M blocks of n entries, where entries
    [0:lam-1] of block m are the code symbols of file m's data rows and
    entries [lam:n-1] are the dummy zero rows.
    """

    code: MdsCode
    params: EffectiveParams
    file_set: FileSet
    columns: FieldMatrix

    @property
    def n_servers(self) -> int:
        return self.code.n_total

    @property
    def m_files(self) -> int:
        return self.file_set.m_files

    def symbol(self, m: int, row: int, j: int) -> int:
        """Stored symbol of file m at row index row in [0:n-1], server j."""
        n = self.params.n
        if not 1 <= m <= self.m_files:
            raise ValueError(f"file index {m} outside [1:{self.m_files}]")
        if not 0 <= row < n:
            raise ValueError(f"row {row} outside [0:{n - 1}]")
        blocks = self.columns.residues[j - 1].reshape(self.m_files, n)
        return int(blocks[m - 1, row])


def encode_storage(file_set: FileSet, code: MdsCode) -> EncodedStorage:
    params = effective_params(code.n_total, code.dim)
    lam, k = params.lam, params.k
    f0 = file_set.files[0]
    if (f0.rows, f0.cols) != (lam, code.dim):
        raise ValueError(
            f"files are {f0.rows}x{f0.cols} but code needs {lam}x{code.dim}"
        )
    if file_set.field != code.field:
        raise ValueError("file field differs from code field")
    dummy = FieldMatrix.zeros(k, code.dim, code.field).residues
    stacked = np.concatenate([b for f in file_set.files for b in (f.residues, dummy)])
    # (M*n x K) @ (K x N): column j-1 is server j's stacked column
    encoded = FieldMatrix.from_ints(stacked, code.field) @ code.generator
    columns = FieldMatrix.from_ints(encoded.residues.T, code.field)
    return EncodedStorage(code, params, file_set, columns)


def server_column(storage: EncodedStorage, j: int) -> FieldMatrix:
    """The j-th stacked column (M blocks of n rows each) as a 1 x (M*n) matrix."""
    if not 1 <= j <= storage.n_servers:
        raise ValueError(f"server index {j} outside [1:{storage.n_servers}]")
    return storage.columns.submatrix([j - 1], range(storage.columns.cols))

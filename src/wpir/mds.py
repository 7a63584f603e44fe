"""Construction and verification of [N, K] MDS storage codes.

The storage code is standardized as a systematic Reed-Solomon code with
evaluation points 0..N-1; any K codeword coordinates determine the message.
"""
from __future__ import annotations

from itertools import combinations

from .fields import FieldMatrix, PrimeField, solve_linear


class MdsCode:
    """An [N, K] code given by a systematic K x N generator matrix.

    The K-out-of-N property (every K x K submatrix of the generator is
    invertible) is checked exhaustively at construction.
    """

    __slots__ = ("n_total", "dim", "field", "generator")

    def __init__(self, n_total: int, dim: int, generator: FieldMatrix):
        if not n_total > dim >= 1:
            raise ValueError(f"need N > K >= 1, got N={n_total}, K={dim}")
        if generator.rows != dim or generator.cols != n_total:
            raise ValueError("generator shape does not match (K, N)")
        self.n_total = n_total
        self.dim = dim
        self.field = generator.field
        self.generator = generator
        if not check_mds(self):
            raise ValueError("generator lacks the K-out-of-N property")

    def __repr__(self):
        return f"MdsCode[N={self.n_total}, K={self.dim}, {self.field}]"


def check_mds(code: MdsCode) -> bool:
    """True iff every K x K submatrix of the generator is invertible."""
    k = code.dim
    zero = [0] * k
    for cols in combinations(range(code.n_total), k):
        sub = code.generator.submatrix(range(k), cols)
        if solve_linear(sub, zero).status != "unique":
            return False
    return True


def make_rs_code(n_total: int, dim: int, fld: PrimeField) -> MdsCode:
    """Systematic Reed-Solomon [N, K] code on evaluation points 0..N-1."""
    if not n_total > dim >= 1:
        raise ValueError(f"need N > K >= 1, got N={n_total}, K={dim}")
    if fld.q < n_total:
        raise ValueError(f"field size {fld.q} < N={n_total}: evaluation points collide")
    vand = FieldMatrix.from_ints(
        [[pow(x, i, fld.q) for x in range(n_total)] for i in range(dim)], fld
    )
    # row-reduce [V | 0]; the reduced rows are V in systematic form [I | P]
    gen = solve_linear(vand, [0] * dim).reduced_rows
    if gen.submatrix(range(dim), range(dim)) != FieldMatrix.identity(dim, fld):
        raise ValueError("row reduction did not produce a systematic generator")
    return MdsCode(n_total, dim, gen)


def encode_row(code: MdsCode, w) -> tuple[int, ...]:
    """Codeword w @ G, as residues, for a length-K message row w of ints."""
    if len(w) != code.dim:
        raise ValueError(f"message length {len(w)} != K={code.dim}")
    return tuple((FieldMatrix.from_ints([w], code.field) @ code.generator).to_ints()[0])


def decode_from(code: MdsCode, positions, symbols) -> tuple:
    """Recover the message row, as residues, from any K codeword coordinates."""
    if len(positions) != code.dim or len(symbols) != code.dim:
        raise ValueError(f"need exactly K={code.dim} coordinates")
    sub = code.generator.submatrix(range(code.dim), positions)
    # w @ G[:, pos] = y  <=>  G[:, pos]^T w^T = y^T
    res = solve_linear(FieldMatrix.from_ints(sub.residues.T, code.field), list(symbols))
    if res.status != "unique":
        raise ValueError("coordinates do not determine the message (not MDS?)")
    return res.solution

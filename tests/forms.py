"""Integer `LinearForm`s built from exact `Fraction` coefficients and
read back as them, forms compared by value, a table's per-query views,
the exact PMF rule, and an MDS code's row encoder and erasure decoder,
shared by the tests."""
import math
from fractions import Fraction as F

import numpy as np

from wpir.fields import FieldMatrix, solve_linear
from wpir.leakage import LinearForm
from wpir.schemes import QueryMatrix


def linear_form(coeffs, constant=F(0)) -> LinearForm:
    """constant + sum of coeffs[i] * z_i, over the coefficients' least
    common denominator; a zero coefficient stays an explicit entry."""
    items = sorted((i, F(c)) for i, c in coeffs.items())
    den = math.lcm(*(c.denominator for _, c in items))
    return LinearForm(np.array([i for i, _ in items], dtype=np.int64),
                      np.array([int(c * den) for _, c in items], dtype=np.int64),
                      den, F(constant))


def coeffs(form) -> dict:
    """A LinearForm's coefficients as Fractions: strategy index ->
    coefficient, in index order."""
    den = form.denominator
    return {i: F(v, den) for i, v in zip(form.indices.tolist(), form.numerators.tolist())}


def views(table):
    """A table's per-query views, built from its keys, count rows and
    answer lengths: query -> P(q|m) per file, each a count row over N as
    a LinearForm, and query -> answer length."""
    c, m = table.counts, table.m_files
    indices, bounds = c.indices.astype(np.int64), c.indptr.tolist()
    rows = [LinearForm(indices[lo:hi], c.data[lo:hi], table.n_servers)
            for lo, hi in zip(bounds, bounds[1:])]
    queries = [QueryMatrix.from_bytes(key.tobytes(), m) for key in table.keys]
    forms = {q: tuple(rows[qi * m:(qi + 1) * m]) for qi, q in enumerate(queries)}
    return forms, dict(zip(queries, table.answer_lengths.tolist()))


def normalize_pmf(values) -> tuple[F, ...]:
    """Clamp tiny negatives and rescale to an exact PMF: the reference for
    the optimizer's per-class rule."""
    z = [max(F(v), F(0)) for v in values]
    total = sum(z)
    if total <= 0:
        raise ValueError("cannot normalize an all-zero vector")
    return tuple(v / total for v in z)


def exact(forms):
    """A table's forms as comparable values: query -> one
    (coeffs, constant) pair per file."""
    return {q: tuple((coeffs(f), f.constant) for f in per_m) for q, per_m in forms.items()}


def encode_row(code, w) -> tuple[int, ...]:
    """Codeword w @ G, one multiply-add mod q per entry."""
    q = code.field.q
    g = code.generator.to_ints()
    out = []
    for j in range(code.n_total):
        total = 0
        for i in range(code.dim):
            total = (total + w[i] * g[i][j]) % q
        out.append(total)
    return tuple(out)


def decode_from(code, positions, symbols) -> tuple:
    """The message row, as residues, from the K codeword coordinates at
    `positions`: w @ G[:, pos] = y, solved as G[:, pos]^T w^T = y^T."""
    sub = code.generator.submatrix(range(code.dim), positions)
    res = solve_linear(FieldMatrix.from_ints(sub.residues.T, code.field), list(symbols))
    assert res.status == "unique", "coordinates do not determine the message"
    return res.solution


# a cost form on zyqt (3,3,2) that splits strategy classes of the download form
OFF_CLASS = linear_form({0: F(3), 5: F(1, 2)}, constant=F(1))

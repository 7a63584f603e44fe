"""Integer `LinearForm`s built from exact `Fraction` coefficients and
read back as them, forms compared by value, a table's per-query views and
the exact PMF rule, shared by the tests."""
import math
from fractions import Fraction as F

import numpy as np

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


# a cost form on zyqt (3,3,2) that splits strategy classes of the download form
OFF_CLASS = linear_form({0: F(3), 5: F(1, 2)}, constant=F(1))

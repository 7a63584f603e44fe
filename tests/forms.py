"""Integer `LinearForm`s built from exact `Fraction` coefficients, and
forms compared by value, shared by the tests."""
import math
from fractions import Fraction as F

import numpy as np

from wpir.leakage import LinearForm


def linear_form(coeffs, constant=F(0)) -> LinearForm:
    """constant + sum of coeffs[i] * z_i, over the coefficients' least
    common denominator; a zero coefficient stays an explicit entry."""
    items = sorted((i, F(c)) for i, c in coeffs.items())
    den = math.lcm(*(c.denominator for _, c in items))
    return LinearForm(np.array([i for i, _ in items], dtype=np.int64),
                      np.array([int(c * den) for _, c in items], dtype=np.int64),
                      den, F(constant))


def exact(forms):
    """A table's forms as comparable values: query -> one
    (coeffs, constant) pair per file."""
    return {q: tuple((f.coeffs, f.constant) for f in per_m) for q, per_m in forms.items()}


# a cost form on zyqt (3,3,2) that splits strategy classes of the download form
OFF_CLASS = linear_form({0: F(3), 5: F(1, 2)}, constant=F(1))

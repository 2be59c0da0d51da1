"""Exact complex-rational arithmetic (Gaussian rationals).

Floats are lifted to their exact binary values, so products and quotients of
parameters like alpha = 1.3 stay exact; identities that hold for all real
parameters then produce residuals that are exactly zero instead of
rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Liftable = Union[int, float, Fraction, "QComplex"]


@dataclass(frozen=True)
class QComplex:
    re: Fraction
    im: Fraction

    @staticmethod
    def lift(x: Liftable) -> "QComplex":
        if isinstance(x, QComplex):
            return x
        return QComplex(Fraction(x), Fraction(0))

    def __add__(self, other):
        o = QComplex.lift(other)
        return QComplex(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QComplex.lift(other))

    def __mul__(self, other):
        o = QComplex.lift(other)
        return QComplex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QComplex.lift(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by exact zero")
        return QComplex(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs_float(self) -> float:
        return abs(complex(float(self.re), float(self.im)))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


QC_ZERO = QComplex(Fraction(0), Fraction(0))
QC_ONE = QComplex(Fraction(1), Fraction(0))
QC_I = QComplex(Fraction(0), Fraction(1))

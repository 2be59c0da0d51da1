"""Global parameter context (r, d, alpha, nu) and derived quantities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

Number = Union[int, float, Fraction]

# the largest |alpha|, |nu| and d accepted: far past any family the checks are
# meant for; larger values overflow the float evaluations at small degrees
PARAM_LIMIT = 10**6


@dataclass(frozen=True)
class ParamSet:
    """Rank r, multiplicity d > 0 and the deformation parameters (alpha, nu).

    Derived data: the ambient dimension n = r + (d/2) r (r-1), n/r, d's numerator and
    denominator in lowest terms and (alpha + n/r)/2 of an exact alpha, else None
    (``n_over_r``, ``d_num``, ``d_den``, ``beta_exact``, computed at construction), and
    beta = (alpha + n/r)/2 + i nu in complex doubles (computed once, on first use).
    Exact rational arithmetic is used for everything derived from (r, d).
    """

    r: int
    d: Fraction
    alpha: Number = 0
    nu: Number = 0.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank r must be >= 1")
        object.__setattr__(self, "d", Fraction(self.d))
        if self.d <= 0:
            raise ValueError("multiplicity d must be > 0")
        try:
            float(self.d)
        except OverflowError:
            raise ValueError("multiplicity d must be finite as a float") from None
        for name in ("d", "alpha", "nu"):
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if abs(value) > PARAM_LIMIT:
                raise ValueError(f"|{name}| must be at most {PARAM_LIMIT:,}")
        if isinstance(self.alpha, Fraction) and self.alpha.denominator == 1:
            object.__setattr__(self, "alpha", int(self.alpha))
        # hashed once: the factor tables look a ParamSet up per k, and hashing
        # its key each time costs as much as the lookup; n/r and d's integers,
        # which ``Fraction`` serves through Python-level properties, as often
        object.__setattr__(self, "d_num", self.d.numerator)
        object.__setattr__(self, "d_den", self.d.denominator)
        object.__setattr__(self, "_hash", hash(self._key()))
        object.__setattr__(self, "n_over_r", 1 + (self.d / 2) * (self.r - 1))
        beta = (self.alpha + self.n_over_r) / 2 if self.alpha_is_exact else None
        object.__setattr__(self, "beta_exact", beta)

    @cached_property
    def beta(self) -> complex:
        """(alpha + n/r)/2 + i nu in complex doubles: the one float beta of the
        families, the generating functions' closed forms and the norms."""
        return 0.5 * (float(self.alpha) + float(self.n_over_r)) + 1j * float(self.nu)

    @property
    def n(self) -> Fraction:
        return self.r + (self.d / 2) * self.r * (self.r - 1)

    def _key(self) -> tuple:
        # an exact alpha builds an exact body where an equal float alpha does
        # not, so the two must not share an mcj_build cache entry; d enters as
        # its numerator and denominator, which hash in C where a Fraction
        # hashes in Python
        return (self.r, self.d_num, self.d_den, self.alpha, self.alpha_is_exact, self.nu)

    def __eq__(self, other):
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return self._hash

    @property
    def alpha_is_exact(self) -> bool:
        return isinstance(self.alpha, (int, Fraction))

    @property
    def nu_is_zero(self) -> bool:
        return self.nu == 0

    def orthogonality_ok(self) -> bool:
        """The standing assumption alpha > n/r - 1 = (d/2)(r-1), compared
        exactly when alpha is exact: the bound's double can round below it."""
        bound = (self.d / 2) * (self.r - 1)
        return self.alpha > (bound if self.alpha_is_exact else float(bound))

    def with_(self, **kw) -> "ParamSet":
        data = {"r": self.r, "d": self.d, "alpha": self.alpha, "nu": self.nu}
        data.update(kw)
        return ParamSet(**data)

    def describe(self) -> dict:
        return {
            "r": self.r,
            "d": str(self.d),
            "alpha": float(self.alpha),
            "nu": float(self.nu),
            "n": float(self.n),
        }

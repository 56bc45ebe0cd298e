"""Arithmetic in the quotient rings Z_p[X]/(Phi_m(1+X), p^N).

Reducing a series modulo Phi_m amounts to evaluating it at zeta - 1 for a
primitive p^m-th root of unity zeta; this is how characters of the cyclotomic
tower act on series.  Level 0 is the augmentation X -> 0.
"""

from __future__ import annotations

from ._value import Value
from .errors import InputError
from .padic import PadicInt, _min_valuation, mat_det, padic_matrix
from .series import (IwasawaSeries, _companion_rows, _conv, _poly_divmod_monic,
                     deg_phi, phi_int_coeffs)


def _mod_phi(coeffs, prime: int, level: int, q: int) -> tuple[int, ...]:
    """coeffs reduced mod (Phi_level(1+X), q), deg Phi_level entries;
    Phi_level is built only when coeffs reach its degree."""
    d = deg_phi(prime, level)
    rem = coeffs if len(coeffs) <= d else _poly_divmod_monic(
        coeffs, phi_int_coeffs(prime, level), q)[1]
    return tuple(c % q for c in rem) + (0,) * (d - len(rem))


class CyclotomicElement(Value):
    """Residue in Z_p[X]/(Phi_level(1+X), p^precision), dense power basis.

    ``truncation_warning`` is set when the input's degree cap is below
    deg Phi_level - 1 and its coefficient at the cap is nonzero - the visible
    symptom of a tail cut off that the evaluation cannot account for.
    """

    __slots__ = ("prime", "level", "precision", "coeffs", "truncation_warning")

    def __init__(self, prime: int, level: int, precision: int,
                 coeffs: tuple[int, ...], truncation_warning: bool = False):
        d = deg_phi(prime, level)
        if len(coeffs) != d:
            raise InputError(
                f"level {level} at p={prime} needs {d} coefficients, "
                f"got {len(coeffs)}"
            )
        q = prime**precision
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(c % q for c in coeffs))
        object.__setattr__(self, "truncation_warning", truncation_warning)

    @property
    def q(self) -> int:
        return self.prime**self.precision

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def min_valuation(self) -> int:
        return _min_valuation(self.coeffs, self.prime, self.precision)

    def _check(self, other: "CyclotomicElement") -> tuple[int, int]:
        if not isinstance(other, CyclotomicElement):
            raise InputError(f"expected CyclotomicElement, got {type(other)}")
        if (other.prime, other.level) != (self.prime, self.level):
            raise InputError("mixed primes or levels")
        n = min(self.precision, other.precision)
        return n, self.prime**n

    def __add__(self, other):
        n, q = self._check(other)
        return CyclotomicElement(self.prime, self.level, n,
                                 tuple((a + b) % q for a, b in
                                       zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CyclotomicElement(self.prime, self.level, self.precision,
                                 tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        n, q = self._check(other)
        prod = _conv(self.coeffs, other.coeffs, 2 * len(self.coeffs) - 1, q)
        return CyclotomicElement(self.prime, self.level, n,
                                 _mod_phi(prod, self.prime, self.level, q))

    def norm(self) -> PadicInt:
        """Norm down to Z_p: determinant of multiplication by this element."""
        rows = _companion_rows(self.coeffs,
                               phi_int_coeffs(self.prime, self.level), self.q)
        return mat_det(padic_matrix(self.prime, self.precision, rows))


def cyclo_eval(f: IwasawaSeries, level: int) -> CyclotomicElement:
    """Reduce a series modulo (Phi_level(1+X), p^N): evaluation at zeta - 1."""
    if level < 0:
        raise InputError("level must be >= 0")
    d = deg_phi(f.prime, level)
    # the cap ends strictly below the modulus degree with a live top
    # coefficient: reduction cannot see whatever the cap cut off
    warn = f.degree_cap + 1 < d and f.degree() == f.degree_cap
    return CyclotomicElement(f.prime, level, f.precision,
                             _mod_phi(f.coeffs, f.prime, level, f.q),
                             truncation_warning=warn)

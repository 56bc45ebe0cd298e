"""Arithmetic in the quotient rings Z_p[X]/(Phi_m(1+X), p^N).

Reducing a series modulo Phi_m amounts to evaluating it at zeta - 1 for a
primitive p^m-th root of unity zeta; this is how characters of the cyclotomic
tower act on series.  Level 0 is the augmentation X -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .padic import PadicInt, mat_det, padic_matrix
from .series import (IwasawaSeries, _conv, _poly_divmod_monic, deg_phi,
                     phi_int_coeffs)


@dataclass(frozen=True)
class CyclotomicElement:
    """Residue in Z_p[X]/(Phi_level(1+X), p^precision), dense power basis.

    ``truncation_warning`` is set when the input's stored window ended below
    deg Phi_level with a nonzero top coefficient - the visible symptom of a
    truncated tail the evaluation cannot account for.
    """

    prime: int
    level: int
    precision: int
    coeffs: tuple[int, ...]
    truncation_warning: bool = False

    def __post_init__(self):
        d = deg_phi(self.prime, self.level)
        if len(self.coeffs) != d:
            raise InputError(
                f"level {self.level} at p={self.prime} needs {d} coefficients, "
                f"got {len(self.coeffs)}"
            )
        q = self.prime**self.precision
        object.__setattr__(self, "coeffs", tuple(c % q for c in self.coeffs))

    @property
    def q(self) -> int:
        return self.prime**self.precision

    def coeff(self, i: int) -> PadicInt:
        return PadicInt(self.prime, self.coeffs[i], self.precision)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def min_valuation(self) -> int:
        best = self.precision
        for c in self.coeffs:
            if c == 0:
                continue
            v, x = 0, c
            while x % self.prime == 0 and v < best:
                x //= self.prime
                v += 1
            best = min(best, v)
            if best == 0:
                break
        return best

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
        d = deg_phi(self.prime, self.level)
        prod = _conv(self.coeffs, other.coeffs, 2 * d - 1, q)
        modulus = [c % q for c in phi_int_coeffs(self.prime, self.level)]
        _, rem = _poly_divmod_monic(prod, modulus, q)
        rem = rem[:d] + [0] * (d - len(rem))
        return CyclotomicElement(self.prime, self.level, n, tuple(rem))

    def norm(self) -> PadicInt:
        """Norm down to Z_p: determinant of multiplication by this element."""
        d = deg_phi(self.prime, self.level)
        q = self.q
        modulus = [c % q for c in phi_int_coeffs(self.prime, self.level)]
        cols = [list(self.coeffs)]
        for _ in range(1, d):
            prev = cols[-1]
            top = prev[d - 1]
            new = [0] + prev[:d - 1]
            if top:
                for i in range(d):
                    new[i] = (new[i] - top * modulus[i]) % q
            cols.append(new)
        rows = [[cols[j][i] for j in range(d)] for i in range(d)]
        return mat_det(padic_matrix(self.prime, self.precision, rows))


def cyclo_eval(f: IwasawaSeries, level: int) -> CyclotomicElement:
    """Reduce a series modulo (Phi_level(1+X), p^N): evaluation at zeta - 1."""
    if level < 0:
        raise InputError("level must be >= 0")
    d = deg_phi(f.prime, level)
    q = f.q
    # the window ends strictly below the modulus degree with a live top
    # coefficient: reduction cannot see whatever the cap cut off
    warn = f.degree_cap + 1 < d and f.coeffs[f.degree_cap] != 0
    modulus = [c % q for c in phi_int_coeffs(f.prime, level)]
    _, rem = _poly_divmod_monic(list(f.coeffs), modulus, q)
    rem = rem[:d] + [0] * (d - len(rem))
    return CyclotomicElement(f.prime, level, f.precision, tuple(rem),
                             truncation_warning=warn)

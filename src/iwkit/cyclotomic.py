"""Evaluation of series at the characters of the cyclotomic tower.

Evaluating a series at zeta - 1, for a primitive p^m-th root of unity zeta,
is reducing it modulo Phi_m(1+X): the value lies in
Z_p[X]/(Phi_m(1+X), p^N) and is read off its coefficients in the power
basis.  This is how characters of the cyclotomic tower act on series.
Level 0 is the augmentation X -> 0.
"""

from __future__ import annotations

from ._value import Value
from .errors import InputError
from .padic import (
    _min_valuation,
    mat_det,  # noqa: F401  perfbench/spans.py rebinds it here by name
)
from .series import IwasawaSeries, _poly_divmod_monic, deg_phi, phi_int_coeffs


def _mod_phi(coeffs, prime: int, level: int, q: int):
    """coeffs mod (Phi_level(1+X), q), at most deg Phi_level of them: an
    input below that degree is its own residue, so Phi_level is built only
    when coeffs reach it."""
    if len(coeffs) <= deg_phi(prime, level):
        return coeffs
    return _poly_divmod_monic(coeffs, phi_int_coeffs(prime, level), q)[1]


class CyclotomicElement(Value):
    """The value of a series at zeta - 1, zeta a primitive p^level-th root of
    unity, mod p^precision: at most deg Phi_level coefficients in the power
    basis, as the reduction left them (no zero tail added, none dropped).

    ``truncation_warning`` is set when the input's degree cap is below
    deg Phi_level - 1 and its coefficient at the cap is nonzero - the visible
    symptom of a tail cut off that the evaluation cannot account for.
    """

    __slots__ = ("prime", "level", "precision", "coeffs", "truncation_warning")

    def __init__(self, prime: int, level: int, precision: int,
                 coeffs: tuple[int, ...], truncation_warning: bool = False):
        d = deg_phi(prime, level)
        if len(coeffs) > d:
            raise InputError(
                f"level {level} at p={prime} takes at most {d} coefficients, "
                f"got {len(coeffs)}"
            )
        q = prime**precision
        super().__init__(prime, level, precision, tuple(c % q for c in coeffs),
                         truncation_warning)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def min_valuation(self) -> int:
        return _min_valuation(self.coeffs, self.prime, self.precision)


def cyclo_eval(f: IwasawaSeries, level: int) -> CyclotomicElement:
    """The value of f at zeta - 1, zeta a primitive p^level-th root of unity:
    f reduced modulo (Phi_level(1+X), p^N)."""
    if level < 0:
        raise InputError("level must be >= 0")
    d = deg_phi(f.prime, level)
    # the cap ends strictly below the modulus degree with a live top
    # coefficient: reduction cannot see whatever the cap cut off
    warn = f.degree_cap + 1 < d and f.degree() == f.degree_cap
    return CyclotomicElement(f.prime, level, f.precision,
                             _mod_phi(f.coeffs, f.prime, level, f.q),
                             truncation_warning=warn)

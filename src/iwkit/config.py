"""Run-wide configuration: prime, absolute precision, degree cap, margin."""

from __future__ import annotations

import sys
from functools import cache

from ._value import Value
from .errors import InputError


@cache
def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def level_power(p: int, n: int) -> int:
    """p^n for a level n >= 0, refused with InputError above sys.maxsize,
    where no sequence of p^n coefficients exists.  From n alone once p^n
    must exceed it (n >= 63 on a 64-bit build), so a huge level is refused
    before p^n is computed."""
    if n >= sys.maxsize.bit_length() or (power := p**n) > sys.maxsize:
        raise InputError(f"{p}^{n} exceeds sys.maxsize = {sys.maxsize}")
    return power


class Config(Value):
    """Parameters every computation runs under.

    ``precision`` is the absolute p-adic precision N: every "is zero" answer
    means "zero mod p^N".  ``degree_cap`` bounds the degree of every series a
    run reads or builds from its input (module generators, Phi_c generators,
    column values); its default p^n_max + 8 admits Phi_c and omega_c at
    every level c <= n_max.  Series are stored trimmed, so a cap costs
    nothing until a value reaches it.
    ``margin`` is the ambiguity band below N inside which rank/length
    classification refuses to guess.
    """

    __slots__ = ("prime", "precision", "n_max", "degree_cap", "margin",
                 "output_format")

    def __init__(self, prime: int = 3, precision: int = 24, n_max: int = 4,
                 degree_cap: int | None = None, margin: int = 4,
                 output_format: str = "csv"):
        if not is_odd_prime(prime):
            raise InputError(f"prime must be an odd prime, got {prime}")
        if margin < 0:
            raise InputError(f"margin must be >= 0, got {margin}")
        if precision <= margin:
            raise InputError(
                f"precision {precision} must exceed margin {margin}"
            )
        if n_max < 0:
            raise InputError("n_max must be >= 0")
        top = level_power(prime, n_max)
        if degree_cap is None:
            degree_cap = top + 8
        # above sys.maxsize no sequence of coefficients reaches the cap
        if not top <= degree_cap <= sys.maxsize:
            raise InputError(
                f"degree_cap {degree_cap} is not between p^n_max = "
                f"{top} and sys.maxsize = {sys.maxsize}")
        if output_format not in ("csv", "json"):
            raise InputError(f"unknown output format {output_format!r}")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "output_format", output_format)

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "precision": self.precision,
            "n_max": self.n_max,
            "degree_cap": self.degree_cap,
            "margin": self.margin,
            "output_format": self.output_format,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        known = {k: d[k] for k in
                 ("prime", "precision", "n_max", "degree_cap", "margin", "output_format")
                 if k in d}
        for k, v in known.items():
            if k == "output_format" or (k == "degree_cap" and v is None):
                continue
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"config {k} must be an integer, got {v!r}")
        return cls(**known)

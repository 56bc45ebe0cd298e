"""Run-wide configuration: prime, absolute precision, degree cap, margin."""

from __future__ import annotations

import math
import sys
from functools import cache

from ._value import Value
from .errors import InputError


# Miller-Rabin to these bases decides primality below 3.18 * 10^23
# (Sorenson & Webster, Math. Comp. 86, 2017), so for every n <= sys.maxsize
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@cache
def is_odd_prime(n: int) -> bool:
    """Whether n is an odd prime, decided by Miller-Rabin; an n above
    sys.maxsize is refused with InputError before any test, as every
    oversized level is."""
    if n > sys.maxsize:
        raise InputError(f"prime {n} exceeds sys.maxsize = {sys.maxsize}")
    if n < 3 or n % 2 == 0:
        return False
    if n in _WITNESSES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def level_power(p: int, n: int) -> int:
    """p^n for a level n >= 0, refused with InputError above sys.maxsize,
    where no sequence of p^n coefficients exists.  From n alone once p^n
    must exceed it (n >= 63 on a 64-bit build), so a huge level is refused
    before p^n is computed."""
    if n >= sys.maxsize.bit_length() or (power := p**n) > sys.maxsize:
        raise InputError(f"{p}^{n} exceeds sys.maxsize = {sys.maxsize}")
    return power


# CPython's default limit on the decimal digits of an int printed by str()
# (sys.int_info.default_max_str_digits)
_DEFAULT_MAX_STR_DIGITS = 4300


def residue_digits_limit() -> int:
    """The most decimal digits a printed residue may have: the interpreter's
    limit on int-to-str conversion, sys.get_int_max_str_digits(), or CPython's
    default 4300 where that limit is disabled (0) or absent (before 3.10.7)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return (get() if get else 0) or _DEFAULT_MAX_STR_DIGITS


def require_printable(p: int, n: int) -> None:
    """Raise InputError when residues mod p^n, up to p^n - 1, have more
    decimal digits than ``residue_digits_limit()``.  p^n - 1 has
    floor(n log10 p) + 1 of them (p^n is no power of 10), more than the
    limit L exactly when p^n > 10^L: decided from n log10 p, and only within
    1 of L, where p^n has about L digits, from p^n itself."""
    limit = residue_digits_limit()
    size = n * math.log10(p)
    if size > limit + 1 or (size > limit - 1 and p**n > 10**limit):
        raise InputError(
            f"precision {n}: residues mod {p}^{n} have more than {limit} "
            f"decimal digits (sys.get_int_max_str_digits())")


class Config(Value):
    """Parameters every computation runs under.

    ``precision`` is the absolute p-adic precision N: every "is zero" answer
    means "zero mod p^N".  ``degree_cap`` bounds the degree of every series a
    run reads or builds from its input (module generators, Phi_c generators,
    column values); its default p^n_max + 8 admits Phi_c and omega_c at
    every level c <= n_max.  Series are stored trimmed, so a cap costs
    nothing until a value reaches it.
    ``margin`` is the ambiguity band below N inside which rank/length
    classification refuses to guess.  N is bounded by ``require_printable``:
    every residue mod p^N must print within the interpreter's digit limit.
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
        require_printable(prime, precision)
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
        super().__init__(prime, precision, n_max, degree_cap, margin,
                         output_format)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

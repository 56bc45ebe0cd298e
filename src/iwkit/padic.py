"""Exact arithmetic in Z/p^N and linear algebra over that local ring.

Everything here answers questions "modulo p^N" for an explicit absolute
precision N.  A residue of 0 means *indistinguishable from zero at this
precision*, never a certified zero.  Rank and length classifications that
would depend on elementary divisors inside the ambiguity margin raise
:class:`PrecisionExhaustedError` instead of guessing.

Every nonzero element of Z/p^N is (unit) * p^k, so Gaussian elimination with
a pivot of globally minimal valuation is exact: the quotient ambiguities
introduced by dividing by p^k land in p^N and vanish.  One such elimination
(``_snf_core``) yields the Smith normal form, the determinant (the pivots'
product) and, for an invertible input, whose tracked transforms give
U * A * V = I, the inverse V * U.  Matrices are lists of Python ints
reduced mod p^N: the one elimination serves every modulus and every size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

from ._value import Value
from .config import is_odd_prime
from .errors import InputError, PrecisionExhaustedError


def _min_valuation(values: Iterable[int], p: int, cap: int) -> int:
    """Least p-adic valuation of the nonzero values, capped at cap (cap if none)."""
    for x in values:
        if x:
            v = 0
            while v < cap and x % p == 0:
                x //= p
                v += 1
            cap = v
            if not cap:
                break
    return cap


def _mod_exponent(e: int, mod_exp: int | None) -> int:
    """e, or mod_exp when smaller: a congruence's exponent; mod_exp < 0 refused."""
    if mod_exp is not None and mod_exp < 0:
        raise InputError(f"mod_exp must be >= 0, got {mod_exp}")
    return e if mod_exp is None else min(e, mod_exp)


class PadicInt(Value):
    """An element of Z_p known modulo p^precision."""

    __slots__ = ("prime", "residue", "precision")

    def __init__(self, prime: int, residue: int, precision: int):
        if not is_odd_prime(prime):
            raise InputError(f"prime must be an odd prime, got {prime}")
        if precision < 1:
            raise InputError(f"precision must be >= 1, got {precision}")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "residue", residue % prime**precision)
        object.__setattr__(self, "precision", precision)

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def valuation(self) -> int:
        """p-adic valuation, capped at the precision for residue 0."""
        return _min_valuation((self.residue,), self.prime, self.precision)

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def is_zero(self) -> bool:
        return self.residue == 0

    def _coerce(self, other) -> "PadicInt | None":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise InputError(
                    f"mixed primes {self.prime} and {other.prime}"
                )
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, other, self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return PadicInt(self.prime, self.residue + o.residue, n)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.prime, -self.residue, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return PadicInt(self.prime, self.residue - o.residue, n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return PadicInt(self.prime, self.residue * o.residue, n)

    __rmul__ = __mul__

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise InputError("cannot invert a non-unit in Z/p^N")
        return PadicInt(self.prime, pow(self.residue, -1, self.modulus), self.precision)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def exact_div_p_power(self, k: int) -> "PadicInt":
        """Divide by p^k; exact, and precision drops by k."""
        if k == 0:
            return self
        if k < 0 or k >= self.precision:
            raise InputError(f"cannot divide by p^{k} at precision {self.precision}")
        if self.valuation() < k:
            raise InputError(
                f"residue {self.residue} not divisible by {self.prime}^{k}"
            )
        return PadicInt(self.prime, self.residue // self.prime**k, self.precision - k)

    def congruent(self, other, mod_exp: int | None = None) -> bool:
        o = self._coerce(other)
        if o is None:
            raise InputError(f"cannot compare a PadicInt with {type(other)}")
        m = self.prime**_mod_exponent(min(self.precision, o.precision), mod_exp)
        return (self.residue - o.residue) % m == 0

    def __int__(self) -> int:
        return self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.prime}^{self.precision})"


class SnfResult(Value):
    """Elementary-divisor data of a matrix over Z/p^N.

    ``elementary_exponents`` has one entry per generator (matrix row), sorted
    nondecreasing; exponent N marks a divisor indistinguishable from zero,
    i.e. a free direction of the cokernel.  ``transform_valid`` records that
    the tracked unimodular transforms reproduce the diagonal.
    """

    __slots__ = ("elementary_exponents", "rank_indicators", "transform_valid")

    def __init__(self, elementary_exponents: tuple[int, ...],
                 rank_indicators: int, transform_valid: bool):
        object.__setattr__(self, "elementary_exponents", elementary_exponents)
        object.__setattr__(self, "rank_indicators", rank_indicators)
        object.__setattr__(self, "transform_valid", transform_valid)


def _first_min_valuation(a: list[list[int]], r: int, p: int, k: int,
                         precision: int) -> tuple[int, int, int] | None:
    """(v, i, j) of the first entry of a[r:][r:], in row-major order, of least
    valuation v, given that no entry there has valuation below k; None if
    every entry is 0 mod p^N."""
    best, found, m = precision, None, p**precision
    for i in range(r, len(a)):
        row = a[i]
        for j in range(r, len(row)):
            if row[j] % m:
                best = _min_valuation((row[j],), p, best)
                found, m = (i, j), p**best
                if best == k:
                    return k, i, j
    return None if found is None else (best, *found)


def _mat_mul_mod(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                 q: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % q for col in cols] for row in a]


def _snf_core(rows: Sequence[Sequence[int]], p: int, precision: int,
              track: bool) -> tuple[list[int], int, tuple | None]:
    """Diagonalize over Z/p^N by valuation-minimal pivoting.

    Returns the exponent list (one per row, nondecreasing, N for free
    directions), the determinant mod p^N of a square input (the pivots'
    product with the swap sign, 0 once no pivot is left) and the tracked
    (U, V) with U * A * V = diag(p^e) mod p^N (None untracked).  Each pivot
    is the first entry of least valuation in row-major order; the search
    starts at the previous pivot's valuation, because clearing with a pivot
    of least valuation never lowers the valuation of what remains.  Once
    the column below a pivot is clear, the column operations that clear its
    row change that row alone, which no later step reads: only the tracked
    V needs them.
    """
    q = p**precision
    a = [[x % q for x in row] for row in rows]
    d1, d2 = len(a), len(a[0]) if a else 0
    if track:
        u = [[int(i == j) for j in range(d1)] for i in range(d1)]
        v = [[int(i == j) for j in range(d2)] for i in range(d2)]

    exps: list[int] = []
    k, det = 0, 1
    for r in range(min(d1, d2)):
        found = _first_min_valuation(a, r, p, k, precision)
        if found is None:
            det = 0
            break
        k, i, j = found
        if i != r:
            a[r], a[i] = a[i], a[r]
            det = -det
            if track:
                u[r], u[i] = u[i], u[r]
        if j != r:
            for row in a[r:]:
                row[r], row[j] = row[j], row[r]
            det = -det
            if track:
                for row in v:
                    row[r], row[j] = row[j], row[r]
        pk = p**k
        det = det * a[r][r] % q
        uinv = pow(a[r][r] // pk, -1, q)
        # the pivot row scaled so that the pivot is p^k
        tail = [x * uinv % q for x in a[r][r + 1:]]
        if track:
            u[r] = [x * uinv % q for x in u[r]]
        for i in range(r + 1, d1):
            row = a[i]
            if row[r]:
                c = row[r] // pk
                row[r + 1:] = [(x - c * y) % q for x, y in zip(row[r + 1:], tail)]
                if track:
                    u[i] = [(x - c * y) % q for x, y in zip(u[i], u[r])]
        if track:
            cs = [x // pk for x in tail]
            for row in v:
                x = row[r]
                if x:
                    row[r + 1:] = [(y - x * c) % q for y, c in zip(row[r + 1:], cs)]
        exps.append(k)

    exps.extend([precision] * (d1 - len(exps)))
    return exps, det % q, (u, v) if track else None


def _validate_matrix(matrix) -> tuple[int, int, list[list[int]]]:
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise InputError("matrix must have at least one row and one column")
    width = len(rows[0])
    prime = precision = None
    out = []
    for row in rows:
        if len(row) != width:
            raise InputError("ragged matrix")
        ints = []
        for x in row:
            if not isinstance(x, PadicInt):
                raise InputError(f"matrix entries must be PadicInt, got {type(x)}")
            if prime is None:
                prime, precision = x.prime, x.precision
            if x.prime != prime:
                raise InputError("mixed primes in matrix")
            if x.precision != precision:
                raise InputError("mixed precisions in matrix")
            ints.append(x.residue)
        out.append(ints)
    return prime, precision, out


def snf(matrix: Sequence[Sequence[PadicInt]]) -> SnfResult:
    """Smith normal form exponents of a PadicInt matrix over Z/p^N.

    The matrix presents the cokernel of a map into Z_p^rows (rows are
    generators, columns relations).  Unimodular transforms are tracked and
    verified; the result's ``transform_valid`` reports that self-check.
    """
    if not list(matrix):
        return SnfResult((), 0, True)
    prime, precision, rows = _validate_matrix(matrix)
    exps, _, (u, v) = _snf_core(rows, prime, precision, track=True)
    q = prime**precision
    check = _mat_mul_mod(_mat_mul_mod(u, rows, q), v, q)
    valid = all(x == (prime**exps[i] % q if i == j else 0)
                for i, row in enumerate(check) for j, x in enumerate(row))
    return SnfResult(tuple(exps), sum(1 for e in exps if e == precision), valid)


def _invariants_from_exponents(exps: Sequence[int], precision: int,
                               margin: int) -> tuple[int, int]:
    for e in exps:
        if precision - margin <= e < precision:
            raise PrecisionExhaustedError(
                f"elementary divisor p^{e} is within margin {margin} of "
                f"precision {precision}: free rank is ambiguous"
            )
    free = sum(1 for e in exps if e == precision)
    length = sum(e for e in exps if e < precision)
    return free, length


def _invariants_raw(rows: Sequence[Sequence[int]], prime: int, precision: int,
                    margin: int) -> tuple[int, int]:
    if not list(rows):
        return 0, 0
    exps = _snf_core(rows, prime, precision, track=False)[0]
    return _invariants_from_exponents(exps, precision, margin)


def module_invariants(matrix: Sequence[Sequence[PadicInt]], *,
                      margin: int = 4) -> tuple[int, int]:
    """(free rank, finite length) of the Z_p-module presented by ``matrix``.

    Raises PrecisionExhaustedError when any elementary divisor lands inside
    the margin band below the precision, where free and torsion directions
    cannot be told apart.
    """
    if not list(matrix):
        return 0, 0
    prime, precision, rows = _validate_matrix(matrix)
    return _invariants_raw(rows, prime, precision, margin)


def padic_matrix(prime: int, precision: int,
                 rows: Sequence[Sequence[int]]) -> list[list[PadicInt]]:
    return [[PadicInt(prime, x, precision) for x in row] for row in rows]


def mat_mul(a: Sequence[Sequence[PadicInt]],
            b: Sequence[Sequence[PadicInt]]) -> list[list[PadicInt]]:
    pa, na, ra = _validate_matrix(a)
    pb, nb, rb = _validate_matrix(b)
    if pa != pb:
        raise InputError("mixed primes in matrix product")
    if len(ra[0]) != len(rb):
        raise InputError("shape mismatch in matrix product")
    n = min(na, nb)
    return padic_matrix(pa, n, _mat_mul_mod(ra, rb, pa**n))


def mat_det(matrix: Sequence[Sequence[PadicInt]]) -> PadicInt:
    """Determinant mod p^N, read off the Smith-form elimination."""
    prime, precision, rows = _validate_matrix(matrix)
    if len(rows[0]) != len(rows):
        raise InputError("determinant needs a square matrix")
    det = _snf_core(rows, prime, precision, track=False)[1]
    return PadicInt(prime, det, precision)


def _inverse_rows(rows: Sequence[Sequence[int]], p: int,
                  precision: int) -> list[list[int]]:
    """Inverse mod p^N of a square int matrix invertible over Z_p (unit
    determinant): the tracked elimination gives U * A * V = I, so
    A^-1 = V * U."""
    exps, _, (u, v) = _snf_core(rows, p, precision, track=True)
    if any(exps):
        raise InputError("matrix is not invertible mod p")
    return _mat_mul_mod(v, u, p**precision)


def mat_inv(matrix: Sequence[Sequence[PadicInt]]) -> list[list[PadicInt]]:
    """Inverse of a PadicInt matrix invertible over Z_p: ``_inverse_rows``
    on its residues."""
    prime, precision, rows = _validate_matrix(matrix)
    if len(rows[0]) != len(rows):
        raise InputError("inverse needs a square matrix")
    return padic_matrix(prime, precision, _inverse_rows(rows, prime, precision))

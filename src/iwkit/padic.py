"""Exact arithmetic in Z/p^N and linear algebra over that local ring.

Everything here answers questions "modulo p^N" for an explicit absolute
precision N.  A residue of 0 means *indistinguishable from zero at this
precision*, never a certified zero.  Rank and length classifications that
would depend on elementary divisors inside the ambiguity margin raise
:class:`PrecisionExhaustedError` instead of guessing.

Every nonzero element of Z/p^N is (unit) * p^k, so Gaussian elimination with
a pivot of globally minimal valuation is exact: the quotient ambiguities
introduced by dividing by p^k land in p^N and vanish.  That observation
drives both the Smith normal form and the determinant routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class PadicInt:
    """An element of Z_p known modulo p^precision."""

    prime: int
    residue: int
    precision: int

    def __post_init__(self):
        if not is_odd_prime(self.prime):
            raise InputError(f"prime must be an odd prime, got {self.prime}")
        if self.precision < 1:
            raise InputError(f"precision must be >= 1, got {self.precision}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

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
        e = min(self.precision, o.precision)
        if mod_exp is not None:
            e = min(e, mod_exp)
        m = self.prime**e
        return (self.residue - o.residue) % m == 0

    def __int__(self) -> int:
        return self.residue

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.prime}^{self.precision})"


@dataclass(frozen=True)
class SnfResult:
    """Elementary-divisor data of a matrix over Z/p^N.

    ``elementary_exponents`` has one entry per generator (matrix row), sorted
    nondecreasing; exponent N marks a divisor indistinguishable from zero,
    i.e. a free direction of the cokernel.  ``transform_valid`` records that
    the tracked unimodular transforms reproduce the diagonal.
    """

    elementary_exponents: tuple[int, ...]
    rank_indicators: int
    transform_valid: bool


class _ModOps:
    """Vectorized arithmetic mod q = p^N on int64 arrays (chunked products to
    dodge overflow) with an object-dtype fallback for very large q."""

    def __init__(self, p: int, precision: int):
        self.p = p
        self.N = precision
        self.q = p**precision
        self.qbits = self.q.bit_length()
        self.int64 = self.qbits <= 55
        if self.int64:
            self.shift = 62 - self.qbits
            self.nchunks = -(-self.qbits // self.shift)

    def array(self, rows) -> np.ndarray:
        dt = np.int64 if self.int64 else object
        a = np.array(rows, dtype=dt)
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
        return a % self.q if a.size else a

    def identity(self, n: int) -> np.ndarray:
        dt = np.int64 if self.int64 else object
        e = np.zeros((n, n), dtype=dt)
        for i in range(n):
            e[i, i] = 1
        return e

    def scaled(self, c: int, vec: np.ndarray) -> np.ndarray:
        """(c * vec) % q without int64 overflow."""
        if not self.int64:
            return (vec * c) % self.q
        s, mask = self.shift, (1 << self.shift) - 1
        acc = np.zeros_like(vec)
        for t in reversed(range(self.nchunks)):
            acc = ((acc << s) + ((c >> (s * t)) & mask) * vec) % self.q
        return acc

    def scaled_outer(self, cs: np.ndarray, row: np.ndarray) -> np.ndarray:
        """(cs[:,None] * row) % q for a column of scalars."""
        if not self.int64:
            return (cs[:, None] * row[None, :]) % self.q
        s, mask = self.shift, (1 << self.shift) - 1
        acc = np.zeros((cs.shape[0], row.shape[0]), dtype=np.int64)
        for t in reversed(range(self.nchunks)):
            chunk = (cs >> (s * t)) & mask
            acc = ((acc << s) + chunk[:, None] * row[None, :]) % self.q
        return acc

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[1] == 0 or 0 in (a.shape[0], b.shape[1]):
            dt = np.int64 if self.int64 else object
            return np.zeros((a.shape[0], b.shape[1]), dtype=dt)
        if self.int64:
            extra = max(1, int(a.shape[1]).bit_length())
            s2 = 62 - self.qbits - extra
            if s2 >= 1:
                mask = (1 << s2) - 1
                t_max = -(-self.qbits // s2)
                acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
                for t in reversed(range(t_max)):
                    at = (a >> (s2 * t)) & mask
                    acc = ((acc << s2) + (at @ b) % self.q) % self.q
                return acc
        ao = a.astype(object)
        bo = b.astype(object)
        return ao.dot(bo) % self.q

    def min_valuation_position(self, a: np.ndarray):
        """(val, i, j) of the minimal-valuation nonzero entry, ties broken by
        smallest (row, col); None if every entry is 0 mod p^N."""
        if a.size == 0:
            return None
        nz = a != 0
        if not nz.any():
            return None
        rem = a.copy()
        for k in range(self.N):
            mask = nz & (rem % self.p != 0)
            if mask.any():
                i, j = np.argwhere(mask)[0]
                return k, int(i), int(j)
            rem = rem // self.p
        return None


def _snf_core(rows: Sequence[Sequence[int]], p: int, precision: int,
              track: bool) -> tuple[list[int], bool]:
    """Diagonalize over Z/p^N by valuation-minimal pivoting.

    Returns the sorted exponent list (one per row, N for free directions) and
    whether tracked transforms verified (vacuously True when not tracked).
    """
    ops = _ModOps(p, precision)
    a = ops.array([list(r) for r in rows])
    d1, d2 = a.shape
    a0 = a.copy() if track else None
    u = ops.identity(d1) if track else None
    v = ops.identity(d2) if track else None

    exps: list[int] = []
    r = 0
    dmin = min(d1, d2)
    while r < dmin:
        found = ops.min_valuation_position(a[r:, r:])
        if found is None:
            break
        k, di, dj = found
        i, j = r + di, r + dj
        if i != r:
            a[[r, i], :] = a[[i, r], :]
            if track:
                u[[r, i], :] = u[[i, r], :]
        if j != r:
            a[:, [r, j]] = a[:, [j, r]]
            if track:
                v[:, [r, j]] = v[:, [j, r]]
        pk = p**k
        unit = int(a[r, r]) // pk
        uinv = pow(unit, -1, ops.q)
        a[r, :] = ops.scaled(uinv, a[r, :])
        if track:
            u[r, :] = ops.scaled(uinv, u[r, :])
        # clear the pivot column below
        col = a[r + 1:, r]
        if col.size and (col != 0).any():
            cs = col // pk
            a[r + 1:, :] = (a[r + 1:, :] - ops.scaled_outer(cs, a[r, :])) % ops.q
            if track:
                u[r + 1:, :] = (u[r + 1:, :] - ops.scaled_outer(cs, u[r, :])) % ops.q
        # clear the pivot row to the right
        rowr = a[r, r + 1:]
        if rowr.size and (rowr != 0).any():
            cs = rowr // pk
            a[:, r + 1:] = (a[:, r + 1:] - ops.scaled_outer(cs, a[:, r]).T) % ops.q
            if track:
                v[:, r + 1:] = (v[:, r + 1:] - ops.scaled_outer(cs, v[:, r]).T) % ops.q
        exps.append(k)
        r += 1

    exps.extend([precision] * (d1 - r))
    exps.sort()

    valid = True
    if track and d1 and d2:
        check = ops.matmul(ops.matmul(u, a0), v)
        valid = bool((check == a).all())
        valid = valid and all(
            int(a[i, j]) == (p**exps[i] % ops.q if i == j else 0)
            for i in range(d1) for j in range(d2))
    return exps, valid


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
    exps, valid = _snf_core(rows, prime, precision, track=True)
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
    exps, _ = _snf_core(rows, prime, precision, track=False)
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
    q = pa**n
    out = []
    for i in range(len(ra)):
        out.append([
            PadicInt(pa, sum(ra[i][k] * rb[k][j] for k in range(len(rb))) % q, n)
            for j in range(len(rb[0]))
        ])
    return out


def mat_det(matrix: Sequence[Sequence[PadicInt]]) -> PadicInt:
    """Determinant mod p^N via elimination with valuation-minimal pivoting."""
    prime, precision, rows = _validate_matrix(matrix)
    n = len(rows)
    if len(rows[0]) != n:
        raise InputError("determinant needs a square matrix")
    q = prime**precision
    a = [row[:] for row in rows]
    sign = 1
    det = 1
    for r in range(n):
        piv_pos = None
        piv_val = None
        for i in range(r, n):
            for j in range(r, n):
                x = a[i][j]
                if x == 0:
                    continue
                v = _min_valuation((x,), prime, precision)
                if piv_val is None or v < piv_val:
                    piv_val, piv_pos = v, (i, j)
        if piv_pos is None:
            return PadicInt(prime, 0, precision)
        i, j = piv_pos
        if i != r:
            a[i], a[r] = a[r], a[i]
            sign = -sign
        if j != r:
            for row in a:
                row[j], row[r] = row[r], row[j]
            sign = -sign
        piv = a[r][r]
        pk = prime**piv_val
        uinv = pow(piv // pk, -1, q)
        for i in range(r + 1, n):
            if a[i][r] == 0:
                continue
            c = (a[i][r] // pk) * uinv % q
            a[i] = [(a[i][j2] - c * a[r][j2]) % q for j2 in range(n)]
        det = det * piv % q
    return PadicInt(prime, sign * det, precision)


def mat_inv(matrix: Sequence[Sequence[PadicInt]]) -> list[list[PadicInt]]:
    """Inverse of a matrix invertible over Z_p (unit determinant)."""
    prime, precision, rows = _validate_matrix(matrix)
    n = len(rows)
    if len(rows[0]) != n:
        raise InputError("inverse needs a square matrix")
    q = prime**precision
    a = [row[:] for row in rows]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        piv_row = None
        for i in range(c, n):
            if a[i][c] % prime != 0:
                piv_row = i
                break
        if piv_row is None:
            raise InputError("matrix is not invertible mod p")
        if piv_row != c:
            a[c], a[piv_row] = a[piv_row], a[c]
            inv[c], inv[piv_row] = inv[piv_row], inv[c]
        uinv = pow(a[c][c], -1, q)
        a[c] = [x * uinv % q for x in a[c]]
        inv[c] = [x * uinv % q for x in inv[c]]
        for i in range(n):
            if i == c or a[i][c] == 0:
                continue
            f = a[i][c]
            a[i] = [(a[i][j] - f * a[c][j]) % q for j in range(n)]
            inv[i] = [(inv[i][j] - f * inv[c][j]) % q for j in range(n)]
    return padic_matrix(prime, precision, inv)

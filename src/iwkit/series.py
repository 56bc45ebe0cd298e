"""The Iwasawa algebra Lambda = Z_p[[X]] as series cut at a degree cap.

A series is stored as its coefficients mod p^N, trailing zeros dropped, and
a degree cap D: terms above X^D are not part of the value, and the cap is a
bound, never laid out as zeros.  Cyclotomic polynomials Phi_n and omega_n,
Weierstrass preparation (mu/lambda invariants) and division with remainder
by monic polynomials live here.

Weierstrass preparation reads the coefficients as a polynomial of degree
<= D and factors f / p^mu = P * U exactly mod p^(N - mu) by one quadratic
Hensel lift, which the tower's distinguished polynomials share.  Terms
above X^D would change P only from the digit p^floor((D + 1) / lambda) on,
so all N - mu digits of P are determined when lambda (N - mu) <= D + 1.

Division by a monic P (``_poly_divmod_monic``) runs by rows, in place
(``_reduce_rows``: each quotient term and the final remainder reduced mod
p^N once), or, given the reciprocal rev(P)^-1 mod X^(deg P), in blocks of
deg P quotient terms, each one ``_conv`` product.  Only the Hensel lift
divides by one P often enough to pay for that reciprocal: from lambda =
_BLOCKED_MIN (32) on it makes one per doubling step, and the preparation
one for the final quotient; every other division, and the lift below that
crossover, runs by rows.  A product in (Z/p^N)[X]/(P) (``_mulmod``) reduces
by the same rows without the division's set-up or quotient.

Phi_0 = X and, for n >= 1, Phi_n = ((1+X)^{p^n} - 1) / ((1+X)^{p^{n-1}} - 1),
computed as the exact binomial sum  sum_{j<p} (1+X)^{j p^{n-1}}.
omega_n = (1+X)^{p^n} - 1 = Phi_0 * Phi_1 * ... * Phi_n.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence
from itertools import zip_longest

from ._value import Value
from .config import is_odd_prime, level_power
from .errors import (
    DegreeOverflowError,
    InputError,
    PrecisionExhaustedError,
    ZeroSeriesError,
)
from .padic import PadicInt, _min_valuation, _mod_exponent


class IwasawaSeries(Value):
    """Truncated element of Z_p[[X]]: coefficients of degrees 0..degree_cap
    mod p^precision, stored without trailing zeros (none for 0); the cap
    defaults to len(coeffs) - 1.  Sums, differences and products are exact at
    the smaller cap and precision, or raise DegreeOverflowError naming the
    cap they need; only an API that says "mod X^{cap+1}" drops terms."""

    __slots__ = ("prime", "precision", "coeffs", "degree_cap")

    def __init__(self, prime: int, precision: int, coeffs: tuple[int, ...],
                 degree_cap: int | None = None):
        if not is_odd_prime(prime):
            raise InputError(f"prime must be an odd prime, got {prime}")
        if precision < 1:
            raise InputError("precision must be >= 1")
        cap = len(coeffs) - 1 if degree_cap is None else degree_cap
        if cap < 0:
            raise InputError("series needs at least the degree-0 coefficient")
        if cap > sys.maxsize:
            raise InputError(f"degree cap {cap} is too large: no sequence "
                             f"reaches sys.maxsize = {sys.maxsize}")
        q = prime**precision
        cs = _strip([c % q for c in coeffs])
        if len(cs) - 1 > cap:
            raise DegreeOverflowError(f"coefficients of degree {len(cs) - 1} "
                                      f"exceed cap {cap}",
                                      required_cap=len(cs) - 1)
        super().__init__(prime, precision, cs, cap)

    @classmethod
    def _reduced(cls, prime: int, precision: int, coeffs: tuple[int, ...],
                 degree_cap: int) -> "IwasawaSeries":
        """A series from coefficients already reduced mod prime**precision,
        with no trailing zero and within degree_cap, built without the checks
        of ``__init__``: for results computed from validated series."""
        # set directly: it builds every WedgeTower push entry, at half the cost
        s = object.__new__(cls)
        object.__setattr__(s, "prime", prime)
        object.__setattr__(s, "precision", precision)
        object.__setattr__(s, "coeffs", coeffs)
        object.__setattr__(s, "degree_cap", degree_cap)
        return s

    @property
    def q(self) -> int:
        return self.prime**self.precision

    @classmethod
    def make(cls, prime: int, precision: int, coeffs: Sequence[int],
             degree_cap: int | None = None) -> "IwasawaSeries":
        return cls(prime, precision, tuple(coeffs) or (0,), degree_cap)

    @classmethod
    def zero(cls, prime: int, precision: int, degree_cap: int = 0) -> "IwasawaSeries":
        return cls.make(prime, precision, [0], degree_cap)

    @classmethod
    def constant(cls, value: int | PadicInt, prime: int, precision: int,
                 degree_cap: int = 0) -> "IwasawaSeries":
        """value as a series; a PadicInt of the same prime caps the precision."""
        if isinstance(value, PadicInt):
            if value.prime != prime:
                raise InputError(f"mixed primes {prime} and {value.prime}")
            value, precision = value.residue, min(precision, value.precision)
        return cls.make(prime, precision, [value], degree_cap)

    @classmethod
    def monomial(cls, k: int, prime: int, precision: int,
                 degree_cap: int | None = None) -> "IwasawaSeries":
        return cls.make(prime, precision, [0] * k + [1], degree_cap)

    def degree(self) -> int | None:
        """Largest index with a nonzero coefficient; None if all zero."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_valuation(self) -> int:
        """Smallest coefficient valuation; precision when the series is 0 mod p^N."""
        return _min_valuation(self.coeffs, self.prime, self.precision)

    def _binop_params(self, other: "IwasawaSeries") -> tuple[int, int, int]:
        if not isinstance(other, IwasawaSeries):
            raise InputError(f"expected IwasawaSeries, got {type(other)}")
        if other.prime != self.prime:
            raise InputError(f"mixed primes {self.prime} and {other.prime}")
        n = min(self.precision, other.precision)
        cap = min(self.degree_cap, other.degree_cap)
        return n, cap, self.prime**n

    def __add__(self, other):
        if isinstance(other, (int, PadicInt)):
            other = IwasawaSeries.constant(other, self.prime, self.precision,
                                           self.degree_cap)
        n, cap, _ = self._binop_params(other)
        return IwasawaSeries(self.prime, n, tuple(a + b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)), cap)

    __radd__ = __add__

    def __neg__(self):
        return IwasawaSeries(self.prime, self.precision,
                             tuple(-c for c in self.coeffs), self.degree_cap)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, PadicInt)):
            other = IwasawaSeries.constant(other, self.prime, self.precision,
                                           self.degree_cap)
        n, cap, _ = self._binop_params(other)
        return self._times(other, n, cap)

    __rmul__ = __mul__

    def _times(self, other: "IwasawaSeries", n: int,
               cap: int) -> "IwasawaSeries":
        """self * other mod p^n, every term kept: the constructor raises
        DegreeOverflowError when the product's degree exceeds cap."""
        a, b = self.coeffs, other.coeffs
        return IwasawaSeries(self.prime, n, tuple(_conv(
            a, b, max(len(a) + len(b) - 1, 0), self.prime**n)), cap)

    def mul_p_power(self, k: int) -> "IwasawaSeries":
        """Multiply by p^k; this genuinely gains absolute precision."""
        if k < 0:
            raise InputError("k must be >= 0")
        pk = self.prime**k
        return IwasawaSeries(self.prime, self.precision + k,
                             tuple(c * pk for c in self.coeffs), self.degree_cap)

    def exact_div_p_power(self, k: int) -> "IwasawaSeries":
        """Divide every coefficient by p^k; precision drops by k."""
        if k == 0:
            return self
        if k < 0 or k >= self.precision:
            raise InputError(f"cannot divide by p^{k} at precision {self.precision}")
        pk = self.prime**k
        if any(c % pk for c in self.coeffs):
            raise InputError(f"series is not divisible by p^{k}")
        return IwasawaSeries(self.prime, self.precision - k,
                             tuple(c // pk for c in self.coeffs), self.degree_cap)

    def congruent(self, other: "IwasawaSeries", *,
                  mod_exp: int | None = None) -> bool:
        n, cap, _ = self._binop_params(other)
        m = self.prime**_mod_exponent(n, mod_exp)
        return all((a - b) % m == 0 for a, b in zip_longest(
            self.coeffs[:cap + 1], other.coeffs[:cap + 1], fillvalue=0))

    def __str__(self) -> str:
        terms = [f"{c}*X^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"{body} (mod {self.prime}^{self.precision}, X^{self.degree_cap + 1})"


def _strip(cs: Sequence[int]) -> tuple[int, ...]:
    """cs without its trailing zeros, as a tuple."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _binomials(k: int) -> list[int]:
    """C(k, 0), ..., C(k, k) exactly, by C(k, i+1) = C(k, i) (k - i) / (i + 1)
    and C(k, i) = C(k, k - i): one product and one exact division per pair
    of coefficients."""
    row = [1] * (k + 1)
    c = 1
    for i in range(k // 2):
        c = c * (k - i) // (i + 1)
        row[i + 1] = row[k - 1 - i] = c
    return row


def deg_phi(prime: int, n: int) -> int:
    """p^n - p^(n-1) (1 at n = 0), refused by ``level_power`` when p^n
    exceeds sys.maxsize."""
    if n < 0:
        raise InputError("level must be >= 0")
    return 1 if n == 0 else level_power(prime, n) // prime * (prime - 1)


def require_cap(name: str, deg: int, degree_cap: int | None) -> None:
    """Raise DegreeOverflowError when the polynomial ``name`` of degree
    ``deg`` does not fit under ``degree_cap``: checked from the degree alone,
    before any coefficient is built."""
    if degree_cap is not None and deg > degree_cap:
        raise DegreeOverflowError(
            f"{name} has degree {deg}; degree cap must be at least {deg}",
            required_cap=deg,
        )


def phi(n: int, *, prime: int, precision: int,
        degree_cap: int | None = None) -> IwasawaSeries:
    """The p^n-th cyclotomic polynomial in 1+X, as a series mod p^precision:
    X at n = 0, else the exact binomial sum of the module docstring."""
    d = deg_phi(prime, n)
    require_cap(f"Phi_{n}", d, degree_cap)
    out = [0, 1]
    if n:
        out = _binomials(d)
        for j in range(prime - 1):
            row = _binomials(j * d // (prime - 1))
            out[:len(row)] = [a + b for a, b in zip(out, row)]
    return IwasawaSeries.make(prime, precision, out, degree_cap)


def omega(n: int, *, prime: int, precision: int,
          degree_cap: int | None = None) -> IwasawaSeries:
    """omega_n = (1+X)^{p^n} - 1 as a series mod p^precision, refused by
    ``level_power`` when p^n exceeds sys.maxsize."""
    if n < 0:
        raise InputError("level must be >= 0")
    m = level_power(prime, n)
    require_cap(f"omega_{n}", m, degree_cap)
    out = _binomials(m)
    out[0] = 0
    return IwasawaSeries.make(prime, precision, out, degree_cap)


def _reduce_rows(r: list[int], low: Sequence[int], q: int) -> None:
    """Divide r by the monic P = X^d + low[d-1] X^(d-1) + ... + low[0],
    d = len(low), mod q, in place and by rows: afterwards r[:d] is the
    remainder and r[d:] the quotient, every term in [0, q).

    Top-down, each quotient term t is r's top term reduced mod q, stored
    where that term was, and t * low is subtracted without reducing, so a
    remainder term collects at most d products beside its own value and is
    reduced once, in the final pass.  r's terms, and low's, may be negative
    or unreduced; the result is the same mod q.
    """
    d = len(low)
    for k in range(len(r) - 1, d - 1, -1):
        t = r[k] = r[k] % q
        if t:
            for i, w in enumerate(low, k - d):
                r[i] -= t * w
    r[:d] = [c % q for c in r[:d]]


def _poly_divmod_monic(f: Sequence[int], p_poly: Sequence[int], q: int,
                       inv: Sequence[int] | None = None
                       ) -> tuple[list[int], list[int]]:
    """Long division of f by a monic polynomial P, all coefficients mod q:
    (quotient, remainder), the quotient with len(f) - deg P terms.

    Without ``inv``, by rows (``_reduce_rows``) on a copy of f.  With
    ``inv`` = rev(P)^-1 mod X^(deg P), coefficients >= 0 and correct mod q
    (``_series_inv`` of P's reversed coefficients at a multiple of q), by
    blocks of deg P quotient terms (von zur Gathen & Gerhard, Modern
    Computer Algebra, 9.1): the block is the reversed top of the remainder
    times inv, and one ``_conv`` of it with P's low terms updates the
    remainder, so a division costs O(len(f) / deg P) products in place of
    O(len(f) * deg P) steps.  The reciprocal pays for itself only when the
    caller divides by P repeatedly; see _BLOCKED_MIN.
    """
    deg_p = len(p_poly) - 1
    while deg_p > 0 and p_poly[deg_p] % q == 0:
        deg_p -= 1
    if p_poly[deg_p] % q != 1:
        raise InputError("divisor must be monic")
    low = [c % q for c in p_poly[:deg_p]]
    if inv is None or len(f) <= deg_p or not deg_p:
        rem = list(f)
        _reduce_rows(rem, low, q)
        return rem[deg_p:] or [0], rem[:deg_p] or [0]
    rem = [c % q for c in f]
    quot = [0] * (len(rem) - deg_p)
    top = len(rem)
    while top > deg_p:
        # quotient terms lo .. lo+b-1 clear remainder terms top-b .. top-1
        b = min(deg_p, top - deg_p)
        lo = top - deg_p - b
        block = _conv(rem[top - b:top][::-1], inv, b, q)[::-1]
        quot[lo:lo + b] = block
        mid = top - b
        rem[lo:mid] = [(r - s) % q for r, s in
                       zip(rem[lo:mid], _conv(block, low, deg_p, q))]
        top = mid
    return quot, rem[:deg_p]


def _mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int],
            q: int, inv: Sequence[int] | None = None) -> list[int]:
    """a * b mod (modulus, q) for a monic modulus of exact degree d >= 1, as
    its d residue coefficients; a and b have at most d coefficients, >= 0.
    With ``inv``, the modulus's reciprocal, the product is divided in
    blocks by ``_poly_divmod_monic``.  Without it, no quotient is kept and
    nothing of the division's set-up runs: the product, by the schoolbook
    loop unreduced up to d = _MULMOD_SCHOOLBOOK_MAX and by ``_conv`` above,
    is reduced in place by ``_reduce_rows``."""
    d = len(modulus) - 1
    if inv is not None:
        return _poly_divmod_monic(_conv(a, b, 2 * d - 1, q), modulus, q, inv)[1]
    if d > _MULMOD_SCHOOLBOOK_MAX:
        r = _conv(a, b, 2 * d - 1, q)
    else:
        r = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    r[j] += x * y
    _reduce_rows(r, modulus[:d], q)
    del r[d:]
    return r


def _companion_rows(h: Sequence[int], modulus: Sequence[int],
                    q: int) -> list[list[int]]:
    """Rows of the matrix of multiplication by h on (Z/q)[X]/(modulus) in the
    monomial basis, for a monic modulus of degree m: column j is
    h * X^j mod modulus."""
    m = len(modulus) - 1
    modulus = [c % q for c in modulus]
    _, col = _poly_divmod_monic(list(h), modulus, q)
    out = [col + [0] * (m - len(col))]
    for _ in range(1, m):
        prev = out[-1]
        top = prev[m - 1]
        new = [0] + prev[:m - 1]
        if top:
            new = [(c - top * w) % q for c, w in zip(new, modulus)]
        out.append(new)
    return [list(r) for r in zip(*out)]


def divide_distinguished(f: IwasawaSeries,
                         p_poly: IwasawaSeries) -> tuple[IwasawaSeries, IwasawaSeries]:
    """Divide f by a monic polynomial P: f = q*P + r with deg r < deg P.

    Exact at the common precision up to degree cap(f) - deg P.
    """
    n, _, q_mod = f._binop_params(p_poly)
    deg_p = p_poly.degree()
    if deg_p is None:
        raise InputError("divisor is zero mod p^N")
    if p_poly.coeffs[deg_p] % q_mod != 1:
        raise InputError("divisor must be monic")
    quot, rem = _poly_divmod_monic(f.coeffs, p_poly.coeffs, q_mod)
    cap = f.degree_cap
    return (IwasawaSeries(f.prime, n, tuple(quot), max(cap - deg_p, 0)),
            IwasawaSeries(f.prime, n, tuple(rem), min(cap, max(deg_p - 1, 0))))


def _pack(cs: Sequence[int], sb: int) -> int:
    """Kronecker packing: the coefficients (each >= 0 and below 2^(8 sb)) as
    one int, one sb-byte slot per coefficient, lowest degree first."""
    return int.from_bytes(b"".join([c.to_bytes(sb, "little") for c in cs]),
                          "little")


def _plane_offsets(byteorder: str) -> tuple[int, ...]:
    """Where byte j (0 <= j < 16) of a value goes in a pair of 64-bit words,
    low word first, each word in the given byte order."""
    return tuple(8 * (j // 8) + (j % 8 if byteorder == "little" else 7 - j % 8)
                 for j in range(16))


_PLANE_OFFSETS = _plane_offsets(sys.byteorder)


def _unpack(x: int | bytes, n: int, sb: int, q: int,
            width: int | None = None) -> list[int]:
    """The lowest n sb-byte slots of a packed int x >= 0, each reduced mod q.

    x may also be given as its little-endian bytes, at least n sb of them.
    ``width`` is the number of low bytes of each slot that can be nonzero
    (all sb when None): the bytes above it are never read.

    The slots are read by byte planes, not one by one: byte j of every slot
    is one strided slice, copied into its place in an 8- or 16-byte word per
    slot (``_PLANE_OFFSETS``, laid out in the host's ``sys.byteorder``), the
    words are read back by one C-level ``memoryview`` cast to 64-bit
    unsigned ints, and one list pass reduces them mod q.  A value wider
    than two 64-bit words is sliced out slot by slot.
    """
    vb = sb if width is None else min(width, sb)
    end = n * sb
    buf = (x if isinstance(x, bytes)
           else x.to_bytes(max(end, (x.bit_length() + 7) // 8), "little"))
    if vb > 16:
        return [int.from_bytes(buf[k:k + vb], "little") % q
                for k in range(0, end, sb)]
    wb = 8 if vb <= 8 else 16
    planes = bytearray(wb * n)
    for j in range(vb):
        planes[_PLANE_OFFSETS[j]::wb] = buf[j:end:sb]
    words = memoryview(planes).cast("Q").tolist()
    if wb == 8:
        return [w % q for w in words]
    return [(hi << 64 | lo) % q for lo, hi in zip(words[::2], words[1::2])]


# ``_slot_reducer`` leaves every slot below this multiple of q.
_SLOT_BOUND = 4


def _slot_reducer(q: int, terms: int,
                  slots: int) -> tuple[int, Callable[[int], int]]:
    """(sb, reduce) for packed ints of at most ``slots`` sb-byte slots, each
    slot a sum of at most ``terms`` products a * b with 0 <= a < 4q and
    0 <= b < q: reduce(x) is congruent to x mod q slot by slot, every slot
    below 4q (``_SLOT_BOUND``), with nothing above x's last slot.  sb is the
    fewest bytes that hold the input maximum X = terms (4q - 1) (q - 1); an
    InputError when sb * slots exceeds sys.maxsize or the masks of that size
    cannot be allocated.

    One pass is a Barrett step (Barrett, CRYPTO '86) on every slot at once,
    made of whole-int shifts, masks and scalar products.  With t = bits(q),
    s = t - 1, R = floor(2^(s+t) / q) and S = 8 sb slot bits, a slot x < 2^S
    gives hi = floor(x / 2^t) < 2^(S-t), Q = floor(hi R / 2^s) and x - q Q:

    * no slot reaches into another: hi R < 2^(S-t) 2^(s+t) / q < 2^S, as
      q > 2^(t-1), so the packed product hi R has no carry between slots,
      and after the shift by s a slot's low S - s bits are its own Q;
    * 0 <= q Q <= x, since hi R / 2^s <= hi 2^t / q <= x / q, so the packed
      subtraction borrows from no slot and leaves the slots above x's last
      one zero;
    * x - q Q < 2^t + q + hi q / 2^s <= q (3 + hi / 2^s): x < (hi + 1) 2^t
      and q R > 2^(s+t) - q give q Q > hi 2^t - hi q / 2^s - q.

    So a pass maps a slot bound x <= X to
    x <= X' = 2^t + q - 1 + ceil(floor(X / 2^t) q / 2^s), and the passes are
    scheduled here, once, from X until X' < 4q.  X' < 3q + X / 2^(t-1), so a
    bound at or above 6q falls at every pass, and from below 6q one pass
    gives X' < 3q + 12 (q / 2^t)^2 < 4q when q > 12; for q = 3, 5, 7, 9 and
    11 the iteration reaches 4q from every bound too (its fixed point is at
    most 3.2q).  Two passes do it when q > 16 terms + 6; tiny q with many
    terms take more (3^1 at 5000 terms: 14).
    """
    t = q.bit_length()
    s = t - 1
    r = (1 << (s + t)) // q
    bound = terms * (_SLOT_BOUND * q - 1) * (q - 1)
    sb = (bound.bit_length() + 7) // 8
    size = f"{slots} coefficients in {sb}-byte slots ({sb * slots} bytes)"
    if sb * slots > sys.maxsize:
        raise InputError(f"{size} exceed sys.maxsize = {sys.maxsize}")
    width = 8 * sb
    passes = 0
    while bound >= _SLOT_BOUND * q:
        bound = (1 << t) + q - 1 - (-((bound >> t) * q) >> s)
        passes += 1
    # the per-slot masks repeated over every slot: hi's S - t bits, Q's S - s;
    # each is as large as a packed int of that many slots
    try:
        ones = ((1 << (width * slots)) - 1) // ((1 << width) - 1)
        m_hi = ((1 << (width - t)) - 1) * ones
        m_q = ((1 << (width - s)) - 1) * ones
    except (OverflowError, MemoryError):
        raise InputError(f"{size} cannot be laid out") from None

    def reduce(x: int) -> int:
        for _ in range(passes):
            x -= q * ((((x >> t) & m_hi) * r >> s) & m_q)
        return x

    return sb, reduce


# Up to this many terms in the shorter operand (trailing zeros dropped) the
# schoolbook loop is faster than packing: the measured crossover.
_SCHOOLBOOK_MAX = 5

# Up to this modulus degree d, ``_mulmod`` forms its product by its own
# schoolbook loop, left unreduced for ``_reduce_rows``, in place of ``_conv``:
# the measured crossover.
_MULMOD_SCHOOLBOOK_MAX = 12

# From this distinguished degree lambda on, ``_hensel_lift`` (and
# ``weierstrass_prepare`` for U) divides by P in blocks through one
# reciprocal per P (``_poly_divmod_monic``); below it the
# reciprocal costs more than it saves and the rows are faster: the measured
# crossover.
_BLOCKED_MIN = 32


def _conv(a: Sequence[int], b: Sequence[int], limit: int, q: int) -> list[int]:
    """The first ``limit`` coefficients of a*b, reduced mod q.

    Coefficients must be >= 0 but need not be reduced mod q: an operand of
    higher precision keeps its wider coefficients.  Trailing zeros are
    dropped; then, unless the shorter operand is tiny, the product is one
    big-integer multiply by Kronecker substitution (Harvey, arXiv:0712.4046):
    each operand is packed into an int with one fixed-width byte slot per
    coefficient and CPython multiplies the two ints.  A product coefficient
    sums at most min(la, lb) terms, each below 2^(bits(a) + bits(b)), so a
    slot of that many bits plus bits(min(la, lb)) never carries into the next.
    """
    la, lb = min(len(a), limit), min(len(b), limit)
    while la and not a[la - 1]:
        la -= 1
    while lb and not b[lb - 1]:
        lb -= 1
    if not la or not lb:
        return [0] * limit
    n = min(la + lb - 1, limit)
    short = min(la, lb)
    if short <= _SCHOOLBOOK_MAX:
        out = [0] * n
        for i in range(min(la, n)):
            x = a[i]
            if x:
                for j in range(min(lb, n - i)):
                    out[i + j] += x * b[j]
        out = [c % q for c in out]
    else:
        a, b = a[:la], b[:lb]
        sb = (max(a).bit_length() + max(b).bit_length()
              + short.bit_length() + 7) // 8
        out = _unpack(_pack(a, sb) * _pack(b, sb), n, sb, q)
    if n < limit:
        out += [0] * (limit - n)
    return out


def _series_inv(u: Sequence[int], q: int, p: int, length: int) -> list[int]:
    """Inverse of a unit power series mod (q, X^length), u's coefficients >= 0.

    Newton iteration on ``_conv`` (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 9): if v = u^-1 mod X^k then u*v = 1 + X^k h and
    v - X^k (v*h) = u^-1 mod X^2k, so precision in X doubles per step.
    """
    u0 = u[0] % q
    if u0 % p == 0:
        raise InputError("series is not a unit (constant term divisible by p)")
    v = [pow(u0, -1, q)]
    while len(v) < length:
        k = len(v)
        k2 = min(2 * k, length)
        h = _conv(u[:k2], v, k2, q)[k:]
        v += [-c % q for c in _conv(v, h, k2 - k, q)]
    return v


class WeierstrassFactorization(Value):
    """f = p^mu * distinguished * unit with distinguished monic of degree
    lambda and all lower coefficients divisible by p."""

    __slots__ = ("mu", "lambda_", "distinguished", "unit")

    @property
    def precision(self) -> int:
        return self.distinguished.precision

    def reconstruct(self) -> IwasawaSeries:
        """p^mu * P * U, formed exactly at cap(P) + cap(U) = lambda + cap(U):
        the cap D of the series that was prepared."""
        d, u = self.distinguished, self.unit
        n, _, _ = d._binop_params(u)
        return d._times(u, n, d.degree_cap + u.degree_cap).mul_p_power(self.mu)


def lambda_mu(f: IwasawaSeries, *, margin: int = 4) -> tuple[int, int]:
    """(lambda, mu) of a nonzero series by one valuation scan: mu
    is the least coefficient valuation, lambda the first index attaining it.
    The same refusal as a full preparation: fewer than margin + 1 digits left
    after dividing by p^mu raise PrecisionExhaustedError."""
    if f.is_zero():
        raise ZeroSeriesError("series is indistinguishable from zero at this precision")
    mu = f.min_valuation()
    if f.precision - mu <= margin:
        raise PrecisionExhaustedError(
            f"mu = {mu} leaves fewer than margin+1 = {margin + 1} digits of precision"
        )
    step = f.prime ** (mu + 1)
    return next(i for i, c in enumerate(f.coeffs) if c % step), mu


def _hensel_lift(fb: Sequence[int], lam: int, p: int,
                 precision: int) -> list[int]:
    """P dividing fb mod p^precision, read as polynomials: P monic of degree
    lam with P = X^lam mod p; the quotient U = fb / P is left to the caller
    that needs it (``weierstrass_prepare``).  fb's coefficients below lam
    must be divisible by p and fb[lam] must not be.  An fb of degree lam is
    P times the unit fb[lam], so it is rescaled, not lifted.

    Quadratic Hensel lifting (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 15): if P divides fb mod p^k, then fb = P*U + r with
    r = 0 mod p^k, and P + (s*r mod P), s = U^-1 mod P, divides fb mod
    p^2k; the Newton step s(2 - s*U) mod P doubles s's precision too.
    The s entering step k is U^-1 mod (P, p^max(1, k/2)), and the
    correction needs it only mod p^(k2 - k), k2 = min(2k, precision): when
    that is no more, which happens only at the last step, the Newton step
    is skipped.
    """
    if not any(fb[lam + 1:]):
        q = p**precision
        inv = pow(fb[lam], -1, q)
        return [c * inv % q for c in fb[:lam + 1]]
    P, k = [0] * lam + [1], 1 if lam else precision
    s = _series_inv(fb[lam:], p, p, lam)
    blocked = lam >= _BLOCKED_MIN
    inv = inv_k = None
    while k < precision:
        k2 = min(2 * k, precision)
        pk, q = p**k, p**k2
        newton = k > 1 and k2 - k > k // 2
        if blocked:
            # one reciprocal of this step's P serves its five divisions;
            # q // pk divides pk, so the mod-pk copy serves both
            inv = _series_inv(P[::-1], q, p, lam)
            inv_k = [c % pk for c in inv]
        # X^(j lam) = 0 mod (P, p^j): fb's low terms fix r mod q, and
        # u's fix U mod (P, p^k), which is all the Newton step needs
        u, r = _poly_divmod_monic(fb[:(2 * k if newton else k2) * lam],
                                  P, q, inv)
        if newton:
            su = _mulmod(s, _poly_divmod_monic(u[:k * lam], P, pk, inv_k)[1],
                         P, pk, inv_k)
            s = [(2 * a - b) % pk
                 for a, b in zip(s, _mulmod(s, su, P, pk, inv_k))]
        step = _mulmod(s, [c // pk for c in r], P, q // pk, inv_k)
        P = [a + pk * b for a, b in zip(P, step + [0])]
        k *= 2
    return P


def weierstrass_prepare(f: IwasawaSeries, *, margin: int = 4) -> WeierstrassFactorization:
    """Weierstrass preparation f = p^mu * P * U of a nonzero series.

    mu and lambda come from the valuation scan of ``lambda_mu``; f / p^mu is
    read as a polynomial of degree <= D and lifted by ``_hensel_lift`` to P,
    monic of degree lambda; U, of degree <= D - lambda, is its quotient by P,
    one division (in blocks from lambda = _BLOCKED_MIN on).  Exact for a
    polynomial f; for a series cut at X^D, the terms above X^D would change
    P from the digit p^floor((D + 1) / lambda) on and U_j from
    p^floor((D - j) / lambda) on.
    """
    lam, mu = lambda_mu(f, margin=margin)
    p, n2 = f.prime, f.precision - mu
    pmu, q = p**mu, p**n2
    fb = [(c // pmu) % q for c in f.coeffs]
    dist = _hensel_lift(fb, lam, p, n2)
    inv = _series_inv(dist[::-1], q, p, lam) if lam >= _BLOCKED_MIN else None
    unit = _poly_divmod_monic(fb, dist, q, inv)[0]
    return WeierstrassFactorization(
        mu=mu,
        lambda_=lam,
        distinguished=IwasawaSeries(p, n2, tuple(dist)),
        unit=IwasawaSeries(p, n2, tuple(unit), f.degree_cap - lam),
    )


def reconstruction_residual_valuation(f: IwasawaSeries,
                                      w: WeierstrassFactorization,
                                      *, up_to_degree: int | None = None) -> int:
    """min valuation of f - p^mu*P*U over the comparison window; equals the
    comparison precision when the reconstruction is perfect there."""
    diff = f - w.reconstruct()
    cs = diff.coeffs if up_to_degree is None else diff.coeffs[:up_to_degree + 1]
    return _min_valuation(cs, diff.prime, diff.precision)

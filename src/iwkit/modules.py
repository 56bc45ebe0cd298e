"""Elementary torsion Lambda-modules and their cyclotomic quotient towers.

A module is a finite direct sum of cyclic quotients Lambda/(f_i).  Its level-n
layer N/omega_n N is a finitely generated Z_p-module presented, block by
block, by the matrix of multiplication by f_i on Z_p[X]/omega_n in the
monomial basis.  The tower index at level n (Kobayashi rank)

    nabla N_n = len(ker pi_n) - len(coker pi_n) + rank_{Z_p} N_{n-1}

is computed by brute force from those presentations.  The natural transition
pi_n : N/omega_n -> N/omega_{n-1} is surjective, so its cokernel vanishes
(verified from an explicit matrix) and the kernel length is the drop in
torsion length between consecutive layers; both facts reduce the whole
computation to Smith normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, IwkitError
from .padic import (
    PadicInt,
    _invariants_raw,
    _validate_matrix,
    padic_matrix,
)
from .series import IwasawaSeries, omega_int_coeffs, phi, weierstrass_prepare


@dataclass(frozen=True)
class ElementaryModule:
    """Direct sum of Lambda/(f_i) for nonzero series generators f_i."""

    prime: int
    generators: tuple[IwasawaSeries, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.prime != self.prime:
                raise InputError("generator prime differs from module prime")
            if g.is_zero():
                raise InputError("generators must be nonzero mod p^N")

    @property
    def precision(self) -> int:
        return min((g.precision for g in self.generators), default=0)

    def direct_sum(self, other: "ElementaryModule") -> "ElementaryModule":
        if other.prime != self.prime:
            raise InputError("mixed primes in direct sum")
        return ElementaryModule(self.prime, self.generators + other.generators)

    def lambda_mu(self) -> tuple[int, int]:
        lam = mu = 0
        for g in self.generators:
            w = weierstrass_prepare(g)
            lam += w.lambda_
            mu += w.mu
        return lam, mu

    def mw_shape(self) -> tuple[int, ...] | None:
        """The sorted levels c_i if every generator equals Phi_{c_i}; else None."""
        levels = []
        for g in self.generators:
            d = g.degree()
            if d is None or d == 0:
                return None
            if d == 1:
                c = 0
            else:
                step, lvl = self.prime - 1, 1
                while step < d:
                    step *= self.prime
                    lvl += 1
                if step != d:
                    return None
                c = lvl
            ref = phi(c, prime=self.prime, precision=g.precision,
                      degree_cap=g.degree_cap)
            if not g.congruent(ref):
                return None
            levels.append(c)
        return tuple(sorted(levels))


def _reduce_mod(coeffs: Sequence[int], modulus: list[int], q: int) -> list[int]:
    """Remainder of a coefficient list modulo a monic integer polynomial, mod q."""
    deg_m = len(modulus) - 1
    rem = [c % q for c in coeffs]
    for k in range(len(rem) - 1, deg_m - 1, -1):
        t = rem[k]
        if t == 0:
            continue
        rem[k] = 0
        for i in range(deg_m):
            rem[k - deg_m + i] = (rem[k - deg_m + i] - t * modulus[i]) % q
    rem = rem[:deg_m]
    return rem + [0] * (deg_m - len(rem))


def _mult_matrix_rows(f: IwasawaSeries, n: int) -> list[list[int]]:
    """Matrix of multiplication by f on Z_p[X]/omega_n, monomial basis,
    residues mod p^precision; columns are f * X^j mod omega_n."""
    size = f.prime**n
    q = f.q
    wn = [c % q for c in omega_int_coeffs(f.prime, n)]
    col = _reduce_mod(f.coeffs, wn, q)
    cols = [col]
    for _ in range(1, size):
        prev = cols[-1]
        top = prev[size - 1]
        new = [0] + prev[:size - 1]
        if top:
            for i in range(size):
                new[i] = (new[i] - top * wn[i]) % q
        cols.append(new)
    return [[cols[j][i] for j in range(size)] for i in range(size)]


def _reduction_matrix_rows(prime: int, precision: int, n: int) -> list[list[int]]:
    """Matrix of the natural projection Z_p[X]/omega_n -> Z_p[X]/omega_{n-1}
    in monomial bases: column j is X^j mod omega_{n-1}."""
    if n < 1:
        raise InputError("reduction matrix needs n >= 1")
    src, dst = prime**n, prime ** (n - 1)
    q = prime**precision
    wm = [c % q for c in omega_int_coeffs(prime, n - 1)]
    cols = []
    col = [1] + [0] * (dst - 1)
    cols.append(col)
    for _ in range(1, src):
        prev = cols[-1]
        top = prev[dst - 1]
        new = [0] + prev[:dst - 1]
        if top:
            for i in range(dst):
                new[i] = (new[i] - top * wm[i]) % q
        cols.append(new)
    return [[cols[j][i] for j in range(src)] for i in range(dst)]


def quotient_presentation(module: ElementaryModule, n: int) -> list[list[PadicInt]]:
    """Block-diagonal presentation of (+)_i Lambda/(f_i, omega_n) as a
    Z_p-module: one multiplication-by-f_i block of size p^n per generator."""
    if n < 0:
        raise InputError("level must be >= 0")
    if not module.generators:
        return []
    size = module.prime**n
    total = size * len(module.generators)
    rows = [[0] * total for _ in range(total)]
    for b, g in enumerate(module.generators):
        block = _mult_matrix_rows(g, n)
        off = b * size
        for i in range(size):
            for j in range(size):
                rows[off + i][off + j] = block[i][j]
    return padic_matrix(module.prime, module.precision, rows)


def rank_phi_omega(c: int, n: int, *, prime: int) -> int:
    """Z_p-rank of Lambda/(Phi_c, omega_n), in closed form:
    1 for c = 0; p^c - p^{c-1} for 1 <= c <= n; 0 for c > n."""
    if c < 0 or n < 0:
        raise InputError("levels must be >= 0")
    if c == 0:
        return 1
    if c <= n:
        return prime**c - prime ** (c - 1)
    return 0


def nabla_closed(lam: int, mu: int, n: int, *, prime: int) -> int:
    """Stabilized tower index lambda + (p^n - p^{n-1}) mu."""
    if n < 1:
        raise InputError("level must be >= 1")
    return lam + (prime**n - prime ** (n - 1)) * mu


def _validate_fuzz(fuzz, prime: int, precision: int, margin: int) -> list[list[int]]:
    fp, fn, rows = _validate_matrix(fuzz)
    if fp != prime or fn != precision:
        raise InputError("fuzz presentation must match module prime and precision")
    free, _ = _invariants_raw(rows, fp, fn, margin)
    if free != 0:
        raise InputError("fuzz must present a finite Z_p-module")
    return rows


class _TowerEngine:
    """Shared brute-force layer data for one module (plus optional finite
    fuzz summand, which has identity transitions and perturbs nothing)."""

    def __init__(self, module: ElementaryModule, margin: int, fuzz=None):
        self.module = module
        self.margin = margin
        self.prime = module.prime
        self.precision = module.precision if module.generators else 0
        self.fuzz_rows = None
        if fuzz is not None:
            if not module.generators:
                raise InputError("fuzz requires a nonempty module")
            self.fuzz_rows = _validate_fuzz(fuzz, self.prime, self.precision, margin)
        self._mult: dict[tuple[int, int], list[list[int]]] = {}
        self._inv: dict[int, tuple[int, int]] = {}
        self._red: dict[int, list[list[int]]] = {}

    def _mult_rows(self, gi: int, n: int) -> list[list[int]]:
        key = (gi, n)
        if key not in self._mult:
            self._mult[key] = _mult_matrix_rows(self.module.generators[gi], n)
        return self._mult[key]

    def invariants(self, n: int) -> tuple[int, int]:
        """(total free rank, total finite length) of N/omega_n N."""
        if n not in self._inv:
            free = length = 0
            for gi in range(len(self.module.generators)):
                f, l = _invariants_raw(self._mult_rows(gi, n), self.prime,
                                       self.precision, self.margin)
                free += f
                length += l
            if self.fuzz_rows is not None:
                f, l = _invariants_raw(self.fuzz_rows, self.prime,
                                       self.precision, self.margin)
                free += f
                length += l
            self._inv[n] = (free, length)
        return self._inv[n]

    def transition_coker_length(self, n: int) -> int | None:
        """Length of coker(pi_n) from the explicit matrix of pi_n augmented by
        the target relations; None when it is not finite."""
        if n not in self._red:
            self._red[n] = _reduction_matrix_rows(self.prime, self.precision, n)
        red = self._red[n]
        total = 0
        for gi in range(len(self.module.generators)):
            b_prev = self._mult_rows(gi, n - 1)
            rows = [red_row + prev_row for red_row, prev_row in zip(red, b_prev)]
            free, length = _invariants_raw(rows, self.prime, self.precision,
                                           self.margin)
            if free != 0:
                return None
            total += length
        # fuzz transition is the identity; its cokernel is trivial
        return total

    def nabla(self, n: int) -> int | None:
        """Brute-force tower index at level n; None when undefined."""
        if n < 1:
            raise InputError("level must be >= 1")
        if not self.module.generators:
            return 0
        rank_n, len_n = self.invariants(n)
        rank_prev, len_prev = self.invariants(n - 1)
        if rank_n != rank_prev:
            return None
        coker = self.transition_coker_length(n)
        if coker is None:
            return None
        if coker != 0:
            raise IwkitError(
                "transition cokernel unexpectedly nonzero; presentation bug"
            )
        # pi_n surjective with equal ranks: len(ker) is the torsion-length drop
        return (len_n - len_prev) + rank_prev


def nabla_brute(module: ElementaryModule, n: int, *, margin: int = 4,
                fuzz=None) -> int | None:
    """Kobayashi rank of N/omega_n -> N/omega_{n-1} by explicit linear algebra.

    Returns None when the transition has infinite kernel (free rank jump).
    """
    return _TowerEngine(module, margin, fuzz).nabla(n)


def nabla_additivity_check(m_prime: ElementaryModule,
                           m_double_prime: ElementaryModule, n: int, *,
                           margin: int = 4) -> bool | None:
    """Exactness check: nabla of the direct sum equals the sum of nablas.
    Propagates None when any of the three is undefined at level n."""
    total = m_prime.direct_sum(m_double_prime)
    a = nabla_brute(m_prime, n, margin=margin)
    b = nabla_brute(m_double_prime, n, margin=margin)
    c = nabla_brute(total, n, margin=margin)
    if a is None or b is None or c is None:
        return None
    return c == a + b


@dataclass(frozen=True)
class TowerLevel:
    """One layer of a tower: size data plus observed and predicted indices."""

    n: int
    zp_rank: int
    finite_length: int
    nabla: int | None
    predicted: int | None

    @property
    def match(self) -> bool | None:
        if self.nabla is None or self.predicted is None:
            return None
        return self.nabla == self.predicted


@dataclass(frozen=True)
class TowerReport:
    prime: int
    levels: tuple[TowerLevel, ...]
    stabilization_level: int | None
    lambda_invariant: int | None = None
    mu_invariant: int | None = None
    n0: int | None = None
    min_valid_n0: int | None = None
    non_finite_levels: tuple[int, ...] = ()
    inner_consistency: bool | None = None

    def level(self, n: int) -> TowerLevel:
        for lv in self.levels:
            if lv.n == n:
                return lv
        raise KeyError(n)


def _stabilization(levels: Sequence[TowerLevel], floor: int = 0) -> int | None:
    """Least L >= floor such that every later level is defined and matches its
    prediction; None when the top level disagrees or is undefined."""
    best = None
    for lv in sorted(levels, key=lambda l: -l.n):
        if lv.n == 0:
            break
        if lv.match is True:
            best = lv.n - 1
        else:
            break
    if best is None:
        return None
    return max(best, floor)


def tower_report(module: ElementaryModule, n_max: int, *, margin: int = 4,
                 fuzz=None) -> TowerReport:
    """Brute-force the tower at levels 1..n_max and compare against the
    stabilized closed form lambda + (p^n - p^{n-1}) mu."""
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    eng = _TowerEngine(module, margin, fuzz)
    if module.generators:
        lam, mu = module.lambda_mu()
    else:
        lam = mu = 0
    levels = []
    r0, l0 = eng.invariants(0) if module.generators else (0, 0)
    levels.append(TowerLevel(0, r0, l0, None, None))
    for n in range(1, n_max + 1):
        rank, length = eng.invariants(n) if module.generators else (0, 0)
        nab = eng.nabla(n)
        pred = nabla_closed(lam, mu, n, prime=module.prime)
        levels.append(TowerLevel(n, rank, length, nab, pred))
    purely_finite = all(lv.zp_rank == 0 for lv in levels)
    inner = None
    if purely_finite:
        inner = all(
            lv.nabla is None or
            lv.nabla == lv.finite_length - levels[i].finite_length
            for i, lv in enumerate(levels[1:])
        )
    return TowerReport(
        prime=module.prime,
        levels=tuple(levels),
        stabilization_level=_stabilization(levels),
        lambda_invariant=lam,
        mu_invariant=mu,
        inner_consistency=inner,
    )

"""Elementary torsion Lambda-modules and their cyclotomic quotient towers.

A module is a finite direct sum of cyclic quotients Lambda/(f_i).  Its level-n
layer N/omega_n N is a finitely generated Z_p-module, presented summand by
summand.  The brute-force block, kept as ``quotient_presentation`` and as the
tests' oracle, is the p^n x p^n matrix of multiplication by f_i on
Z_p[X]/omega_n.  The tower presents every summand Lambda/(h_1, ..., h_k)
(one relation per generator; the growth verifier's cofactors give more) by
one rule with the same elementary divisors:

1. pull out a, the least coefficient valuation of all the relations mod
   p^N: over Z/p^N the Smith form of p^a * M is a plus that of M mod
   p^(N - a);
2. for the base B take the relation of least lambda among those left with a
   unit coefficient, made monic of degree lambda: its distinguished
   polynomial, or itself scaled by its leading unit when lambda is its
   degree;
3. present on the smaller ring: (Z/p^(N-a))[X]/(B), with rows
   [W_n | H_2 | ...] (multiplication by omega_n and by the other relations)
   and p^n - lambda zero exponents, while lambda < p^n; otherwise
   (Z/p^(N-a))[X]/omega_n, the brute-force blocks.

A constant u * p^k is shift k with lambda = 0: no rows at all.  W_n needs
only omega_n mod B = r_n - 1, r_n = (1+X)^{p^n} mod (B, p^N), and a tower
run makes r_n from r_{n-1} by one p-th power mod B, so a level costs
O(log p) products of size lambda however large p^n is: p = 3 towers reach
level 9 (p^n = 19683) in a fraction of a second.  omega_n's exact binomials
are built only for the brute-force blocks.  The tower index
(Kobayashi rank)

    nabla N_n = len(ker pi_n) - len(coker pi_n) + rank_{Z_p} N_{n-1}

follows from the invariants of two consecutive layers alone.  The natural
transition pi_n : N/omega_n -> N/omega_{n-1} is onto by construction (it
sends each basis monomial X^j, j < p^{n-1}, to itself), so its cokernel
vanishes, and when the two ranks agree its kernel length is the drop in
torsion length: nabla N_n is that drop plus rank N_{n-1}, and the whole
computation reduces to the Smith normal forms of the layers.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import padic
from ._value import Value
from .errors import InputError
from .padic import (
    PadicInt,
    _invariants_from_exponents,
    _min_valuation,
    padic_matrix,
)
from .series import (
    IwasawaSeries,
    _companion_rows,
    _hensel_lift,
    _mulmod,
    _poly_divmod_monic,
    lambda_mu as series_lambda_mu,
    omega_int_coeffs,
    phi,
    weierstrass_prepare,  # noqa: F401  perfbench/spans.py rebinds it here by name
)


class ElementaryModule(Value):
    """Direct sum of Lambda/(f_i) for nonzero series generators f_i."""

    __slots__ = ("prime", "generators")

    def __init__(self, prime: int, generators: tuple[IwasawaSeries, ...]):
        super().__init__(prime, generators)
        for g in self.generators:
            if g.prime != self.prime:
                raise InputError("generator prime differs from module prime")
            if g.is_zero():
                raise InputError("generators must be nonzero mod p^N")

    @property
    def precision(self) -> int:
        return min((g.precision for g in self.generators), default=0)

    def lambda_mu(self, *, margin: int = 4) -> tuple[int, int]:
        pairs = [series_lambda_mu(g, margin=margin) for g in self.generators]
        return sum(lam for lam, _ in pairs), sum(mu for _, mu in pairs)

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


def _mult_matrix_rows(f: IwasawaSeries, n: int) -> list[list[int]]:
    """Matrix of multiplication by f on Z_p[X]/omega_n, monomial basis,
    residues mod p^precision; columns are f * X^j mod omega_n."""
    return _companion_rows(f.coeffs, omega_int_coeffs(f.prime, n), f.q)


def _one_plus_x_power(monic: list[int], p: int, n: int, q: int,
                      powers: list[list[int]]) -> list[int]:
    """r_n = (1+X)^{p^n} mod (monic, q) as d = deg(monic) coefficients, so
    that omega_n mod monic is r_n - 1.  ``powers`` holds r_0, r_1, ... made
    so far for this monic and q, and gains every level made here: r_0 = 1 + X
    mod monic and r_k = r_{k-1}^p by repeated squaring, so a level costs
    O(log p) products of size d whatever p^n is (von zur Gathen & Gerhard,
    Modern Computer Algebra, 4.3)."""
    if not powers:
        r0 = _poly_divmod_monic([1, 1], monic, q)[1]
        powers.append(r0 + [0] * (len(monic) - 1 - len(r0)))
    bits = bin(p)[3:]  # binary powering: p's bits below the top one
    while len(powers) <= n:
        r = acc = powers[-1]
        for bit in bits:
            acc = _mulmod(acc, acc, monic, q)
            if bit == "1":
                acc = _mulmod(acc, r, monic, q)
        powers.append(acc)
    return powers[n]


def _summand(relations: Sequence[IwasawaSeries], precision: int
             ) -> tuple[int, IwasawaSeries, list[IwasawaSeries]]:
    """(a, B, others) for the summand Lambda/(h_1, ..., h_k) mod p^N,
    N = precision.  a is the least coefficient valuation of the h_i mod p^N.
    Of the h_i / p^a with a unit coefficient, the one of least lambda gives
    B, monic of degree lambda: itself scaled by its leading unit when lambda
    is its degree, else its distinguished polynomial, Hensel-lifted exactly
    (h = B * U for a polynomial h, and U is a unit mod omega_n, where X is
    nilpotent mod p), so B and h generate the same ideal with omega_n.
    ``others`` are the other h_i / p^a.  B and the others are known mod
    p^(N - a).  When every h_i vanishes mod p^N, a = N over the base 1."""
    p, q = relations[0].prime, relations[0].prime**precision
    lists = [[c % q for c in h.coeffs] for h in relations]
    a = _min_valuation((c for cs in lists for c in cs), p, precision)
    if a == precision:
        return a, IwasawaSeries(p, 1, (1,)), []
    pa, m = p**a, precision - a
    lists = [[c // pa for c in cs] for cs in lists]
    lam, i = min((next(j for j, c in enumerate(cs) if c % p), i)
                 for i, cs in enumerate(lists) if any(c % p for c in cs))
    h = lists.pop(i)
    d = max(j for j, c in enumerate(h) if c)
    if lam == d:
        inv = pow(h[d], -1, p**m)
        base = [c * inv for c in h[:d + 1]]
    else:
        base = _hensel_lift(h[:d + 1], lam, p, m)
    return a, IwasawaSeries(p, m, tuple(base)), \
        [IwasawaSeries.make(p, m, cs) for cs in lists]


def _layer_presentation(summand: tuple[int, IwasawaSeries, list[IwasawaSeries]],
                        n: int, powers: list[list[int]] | None = None
                        ) -> tuple[list[list[int]], int]:
    """Level n of a summand (a, B, others) from ``_summand``, as (rows, pad):
    the elementary exponents of the brute-force [mult(B) | mult(h) ...] on
    (Z/p^(N-a))[X]/omega_n are those of ``rows`` plus ``pad`` zeros.  The
    ring is the smaller of two, for B of degree lambda:

    - lambda < p^n: (Z/p^(N-a))[X]/(B), free on 1, ..., X^(lambda-1); rows
      are [W_n | H ...], the lambda x lambda matrices of multiplication by
      omega_n and by each other relation on it (no rows when lambda = 0),
      and pad = p^n - lambda.  omega_n mod B comes from
      ``_one_plus_x_power``, which keeps its levels in ``powers`` when the
      caller passes the same list for every level of one summand.
    - lambda >= p^n: (Z/p^(N-a))[X]/omega_n itself, the brute-force blocks,
      pad = 0.
    """
    _, base, others = summand
    size, lam = base.prime**n, len(base.coeffs) - 1
    if not lam:
        return [], size
    if lam >= size:
        blocks, pad = [_mult_matrix_rows(g, n) for g in [base, *others]], 0
    else:
        monic, q = list(base.coeffs), base.q
        r = _one_plus_x_power(monic, base.prime, n, q,
                              [] if powers is None else powers)
        blocks = [_companion_rows([r[0] - 1] + r[1:], monic, q)]
        blocks += [_companion_rows(g.coeffs, monic, q) for g in others]
        pad = size - lam
    return [sum(parts, []) for parts in zip(*blocks)], pad


def _presented_exponents(pres: tuple[list[list[int]], int], prime: int,
                         precision: int, shift: int = 0) -> list[int]:
    """The elementary exponents over Z/p^N, N = precision, that a
    presentation from _layer_presentation stands for.  With shift = a it
    presents h / p^a at precision N - a and stands for h: every exponent,
    pad zeros included, gains a."""
    rows, pad = pres
    # looked up on the module so that a tracer rebinding it sees this call
    exps = padic._snf_core(rows, prime, precision - shift, track=False)[0] \
        if rows else []
    return [shift + e for e in [0] * pad + exps]


def _presented_invariants(pres: tuple[list[list[int]], int], prime: int,
                          precision: int, margin: int,
                          shift: int = 0) -> tuple[int, int]:
    """(free rank, finite length) of a presentation from _layer_presentation,
    with the same margin check as the brute-force matrix.  The pad zeros all
    stand for p^shift: one is checked, the rest counted, never listed."""
    rows, pad = pres
    free, length = _invariants_from_exponents(
        _presented_exponents((rows, min(pad, 1)), prime, precision, shift),
        precision, margin)
    rest = max(pad - 1, 0)
    return ((free + rest, length) if shift == precision
            else (free, length + shift * rest))


def quotient_presentation(module: ElementaryModule, n: int) -> list[list[PadicInt]]:
    """Block-diagonal presentation of (+)_i Lambda/(f_i, omega_n) as a
    Z_p-module: one multiplication-by-f_i block of size p^n per generator."""
    if n < 0:
        raise InputError("level must be >= 0")
    if not module.generators:
        return []
    size, count = module.prime**n, len(module.generators)
    rows = [[0] * (b * size) + row + [0] * ((count - 1 - b) * size)
            for b, g in enumerate(module.generators)
            for row in _mult_matrix_rows(g, n)]
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


class _TowerEngine:
    """Shared layer data for one module, given as one relation list
    [h_1, ..., h_k] per summand Lambda/(h_1, ..., h_k).

    Each summand is kept as ``_summand``'s (a, B, others), and each of its
    levels is presented by ``_layer_presentation`` on the smaller of
    (Z/p^(N-a))[X]/(B) and (Z/p^(N-a))[X]/omega_n, every exponent raised
    by a."""

    def __init__(self, prime: int,
                 relations: Sequence[Sequence[IwasawaSeries]], margin: int):
        self.prime, self.margin = prime, margin
        self.precision = min((h.precision for hs in relations for h in hs),
                             default=0)
        self.summands = [_summand(hs, self.precision) for hs in relations]
        # per summand, (1+X)^{p^k} mod its base for k = 0, 1, ...
        self._powers: list[list[list[int]]] = [[] for _ in self.summands]
        self._inv: dict[int, tuple[int, int]] = {}

    def invariants(self, n: int) -> tuple[int, int]:
        """(total free rank, total finite length) of N/omega_n N."""
        if n not in self._inv:
            parts = [_presented_invariants(_layer_presentation(s, n, powers),
                                           self.prime, self.precision,
                                           self.margin, s[0])
                     for s, powers in zip(self.summands, self._powers)]
            self._inv[n] = (sum(f for f, _ in parts), sum(l for _, l in parts))
        return self._inv[n]

    def transition_coker_length(self, n: int) -> int:
        """Length of coker(pi_n), which is 0: pi_n sends each basis monomial
        X^j, j < p^{n-1}, of level n to the same monomial of level n-1, on
        either presentation, so it is onto.  A named method, so that a
        tracer wrapping it by name still finds it."""
        return 0

    def nabla(self, n: int) -> int | None:
        """Tower index at level n from the invariants of levels n and n-1;
        None when the free rank jumps (the kernel is not finite)."""
        if n < 1:
            raise InputError("level must be >= 1")
        rank_n, len_n = self.invariants(n)
        rank_prev, len_prev = self.invariants(n - 1)
        if rank_n != rank_prev:
            return None
        # equal ranks: len(ker pi_n) is the torsion-length drop
        return (len_n - len_prev) - self.transition_coker_length(n) + rank_prev


def nabla_brute(module: ElementaryModule, n: int, *,
                margin: int = 4) -> int | None:
    """Kobayashi rank of N/omega_n -> N/omega_{n-1} by explicit linear algebra.

    Returns None when the transition has infinite kernel (free rank jump).
    """
    return _TowerEngine(module.prime, [[g] for g in module.generators],
                        margin).nabla(n)


class TowerLevel(Value):
    """One layer of a tower: size data plus observed and predicted indices."""

    __slots__ = ("n", "zp_rank", "finite_length", "nabla", "predicted")

    @property
    def match(self) -> bool | None:
        if self.nabla is None or self.predicted is None:
            return None
        return self.nabla == self.predicted


class TowerReport(Value):
    __slots__ = ("prime", "levels", "stabilization_level", "lambda_invariant",
                 "mu_invariant", "n0", "min_valid_n0", "non_finite_levels")

    def __init__(self, prime: int, levels: tuple[TowerLevel, ...],
                 stabilization_level: int | None,
                 lambda_invariant: int | None = None,
                 mu_invariant: int | None = None, n0: int | None = None,
                 min_valid_n0: int | None = None,
                 non_finite_levels: tuple[int, ...] = ()):
        super().__init__(prime, levels, stabilization_level, lambda_invariant,
                         mu_invariant, n0, min_valid_n0, non_finite_levels)

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


def tower_report(module: ElementaryModule, n_max: int, *,
                 margin: int = 4) -> TowerReport:
    """Brute-force the tower at levels 1..n_max and compare against the
    stabilized closed form lambda + (p^n - p^{n-1}) mu."""
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    eng = _TowerEngine(module.prime, [[g] for g in module.generators], margin)
    lam, mu = module.lambda_mu(margin=margin)
    levels = [TowerLevel(0, *eng.invariants(0), None, None)]
    for n in range(1, n_max + 1):
        rank, length = eng.invariants(n)
        nab = eng.nabla(n)
        pred = nabla_closed(lam, mu, n, prime=module.prime)
        levels.append(TowerLevel(n, rank, length, nab, pred))
    return TowerReport(
        prime=module.prime,
        levels=tuple(levels),
        stabilization_level=_stabilization(levels),
        lambda_invariant=lam,
        mu_invariant=mu,
    )

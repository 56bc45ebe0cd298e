"""Growth-formula engines for cyclotomic tower sizes.

The stabilized per-level increment of a finite quotient tower is

    s_n - s_{n-1} = lambda + (p^n - p^{n-1}) mu - sum_{c_i <= n0} rank_phi_omega(c_i, n0)

where (lambda, mu) belong to the ambient torsion module and the c_i describe
the stabilized free part (a direct sum of Lambda/Phi_{c_i}).  The elliptic
variant writes the same sum with multiplicities r_k^+/-, whose admissible
values are pinned down by the rank ledger constraints solved here.

``synthetic_tower_verify`` manufactures the whole situation explicitly: it
embeds the Phi-shaped module into the ambient one, takes level-wise cokernels
by Smith normal form, and compares observed increments against the formula.

Some classical signed-tower increment laws carry one further term, an
explicit sum of powers of p depending on the parity of n; it has no closed
definition usable here and is deliberately not modeled as an operation.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import Value
from .errors import InputError
from .modules import (
    ElementaryModule,
    TowerLevel,
    TowerReport,
    _TowerEngine,
    _mult_matrix_rows,  # noqa: F401  perfbench/spans.py rebinds it here by name
    _stabilization,
    nabla_closed,
    rank_phi_omega,
)
from .series import IwasawaSeries, deg_phi, divide_distinguished, phi


class SelmerInvariants(Value):
    """Iwasawa invariants of the ambient torsion module."""

    __slots__ = ("lambda_", "mu")

    def __init__(self, lambda_: int, mu: int):
        if lambda_ < 0 or mu < 0:
            raise InputError("invariants must be nonnegative")
        super().__init__(lambda_, mu)


class MWShape(Value):
    """Multiset of levels c_i describing a direct sum of Lambda/Phi_{c_i}."""

    __slots__ = ("c_list",)

    def __init__(self, c_list: tuple[int, ...]):
        if any(c < 0 for c in c_list):
            raise InputError("levels must be >= 0")
        super().__init__(tuple(sorted(c_list)))

    @property
    def n0_candidate(self) -> int:
        return max(self.c_list, default=0)


def _increment(lam: int, mu: int, c_list: Sequence[int], n: int, n0: int,
               prime: int) -> int:
    drop = sum(rank_phi_omega(c, n0, prime=prime) for c in c_list if c <= n0)
    return nabla_closed(lam, mu, n, prime=prime) - drop


def final_increment(inv: SelmerInvariants, shape: MWShape, n: int, n0: int, *,
                    prime: int) -> int:
    """Stabilized increment s_n - s_{n-1} for n > n0."""
    if n0 < shape.n0_candidate:
        raise InputError(
            f"n0 = {n0} must be at least max(c_list) = {shape.n0_candidate}")
    if n <= n0:
        raise InputError(f"the formula only applies for n > n0, got n = {n}")
    return _increment(inv.lambda_, inv.mu, shape.c_list, n, n0, prime)


def elliptic_increment(inv: SelmerInvariants, r_seq: Sequence[int], n: int,
                       n0: int, *, prime: int) -> int:
    """Signed-tower increment with multiplicity r_k copies of Lambda/Phi_k."""
    if any(r < 0 for r in r_seq):
        raise InputError("multiplicities must be nonnegative")
    last = max((k for k, r in enumerate(r_seq) if r > 0), default=0)
    if n0 < last:
        raise InputError(f"n0 = {n0} must cover the last positive multiplicity {last}")
    if n <= n0:
        raise InputError(f"the formula only applies for n > n0, got n = {n}")
    c_list = [k for k, r in enumerate(r_seq) for _ in range(r)]
    return _increment(inv.lambda_, inv.mu, c_list, n, n0, prime)


class RkOptions(Value):
    """Admissible (r_plus, r_minus) pairs at one level of the rank ledger."""

    __slots__ = ("k", "a", "pairs")


def rk_solver(e: Sequence[int]) -> list[RkOptions]:
    """Enumerate the signed multiplicities compatible with a rank sequence.

    Level 0 is forced to r+ = r- = e_0.  For k > 0, a_k = max(0, e_k - 1) and
    the pairs run over min(r+, r-) >= a_k with r+ + r- = e_k + a_k; the
    cartesian product across levels is left implicit.
    """
    out = []
    for k, ek in enumerate(e):
        if ek < 0:
            raise InputError("rank increments must be nonnegative")
        if k == 0:
            out.append(RkOptions(0, ek, ((ek, ek),)))
            continue
        a = max(0, ek - 1)
        pairs = tuple((r, ek + a - r) for r in range(a, ek + 1))
        out.append(RkOptions(k, a, pairs))
    return out


class RankLedger(Value):
    """One admissible assignment (e, a, r+, r-) of the rank constraints."""

    __slots__ = ("e", "a", "r_plus", "r_minus")

    def __init__(self, e: tuple[int, ...], a: tuple[int, ...],
                 r_plus: tuple[int, ...], r_minus: tuple[int, ...]):
        super().__init__(e, a, r_plus, r_minus)
        if not (len(a) == len(r_plus) == len(r_minus) == len(e)):
            raise InputError("ledger sequences must share a length")
        # level k is admissible when a_k and (r+_k, r-_k) are among the
        # values rk_solver enumerates for e
        for opt, ak, rp, rm in zip(rk_solver(e), a, r_plus, r_minus):
            if ak != opt.a or (rp, rm) not in opt.pairs:
                raise InputError(
                    f"level {opt.k}: (a, r+, r-) = ({ak}, {rp}, {rm}) is not "
                    f"admissible for e_{opt.k} = {e[opt.k]}")

    @classmethod
    def from_ranks(cls, ranks: Sequence[int], *, prime: int) -> "RankLedger":
        """Derive e from a Mordell-Weil rank sequence; the rank jump at level
        n must be divisible by p^n - p^{n-1}.  Each level takes the a and
        the last of the pairs ``rk_solver`` gives, where r+ takes the larger
        share."""
        if not ranks:
            raise InputError("need at least the level-0 rank")
        e = [ranks[0]]
        for n in range(1, len(ranks)):
            jump = ranks[n] - ranks[n - 1]
            step = prime**n - prime ** (n - 1)
            if jump < 0 or jump % step:
                raise InputError(
                    f"rank jump {jump} at level {n} is not a multiple of {step}")
            e.append(jump // step)
        options = rk_solver(e)
        return cls(tuple(e), tuple(opt.a for opt in options),
                   tuple(opt.pairs[-1][0] for opt in options),
                   tuple(opt.pairs[-1][1] for opt in options))


def _assign_shape(sel: ElementaryModule, shape: MWShape) -> list[tuple[int, IwasawaSeries]]:
    """Match each Phi_{c} summand with a generator it divides.

    Each (generator, c) pair can absorb at most one copy (two copies of the
    same Phi_c into one generator would not embed).  Returns (generator
    index, cofactor f_j / Phi_c) per summand.
    """
    used: set[tuple[int, int]] = set()
    out = []
    for c in sorted(shape.c_list, reverse=True):
        # a generator of degree below deg Phi_c leaves quotient 0, so only
        # the others are tried, and Phi_c is built only when one exists
        d = deg_phi(sel.prime, c)
        fits = [j for j, f in enumerate(sel.generators)
                if (j, c) not in used and (f.degree() or 0) >= d]
        if fits:
            phic = phi(c, prime=sel.prime, precision=sel.precision)
        placed = False
        for j in fits:
            f = sel.generators[j]
            quot, rem = divide_distinguished(f, phic)
            if rem.is_zero() and not quot.is_zero():
                used.add((j, c))
                out.append((j, quot))
                placed = True
                break
        if not placed:
            raise InputError(
                f"shape level {c}: no available generator is divisible by Phi_{c}")
    return out


def synthetic_tower_verify(sel_module: ElementaryModule, mw_shape: MWShape,
                           n_max: int, *, n0: int | None = None,
                           margin: int = 4) -> TowerReport:
    """Build the quotient tower coker((+)Lambda/Phi_{c_i} -> S) level by level
    and compare its increments against the stabilized formula.

    Each Phi_{c} summand maps into its matched generator by multiplication
    with the cofactor q_i = f_j / Phi_{c_i}, so the level-n cokernel is
    Lambda/(f_j, q_1, ..., q_k, omega_n) per generator.  Each q_i divides f_j
    exactly mod p^N (the division left remainder 0), so that ideal is
    (q_1, ..., q_k, omega_n): the tower engine takes [q_1, ..., q_k] as the
    summand's relations ([f_j] for a generator with no summand) and presents
    it by its one rule: p^a pulled out, the base the q_i of least lambda made
    monic, and the ring (Z/p^(N-a))[X]/(base) wherever lambda < p^n.  Levels
    where the cokernel has positive free rank are reported as non-finite
    rather than silently skipped.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if not sel_module.generators:
        raise InputError("the ambient module must have at least one generator")
    prime = sel_module.prime
    assigns = _assign_shape(sel_module, mw_shape)
    lam, mu = sel_module.lambda_mu(margin=margin)
    level_n0 = mw_shape.n0_candidate if n0 is None else n0
    if level_n0 < mw_shape.n0_candidate:
        raise InputError("n0 override below max(c_list)")

    cofactors: dict[int, list[IwasawaSeries]] = {}
    for j, quot in assigns:
        cofactors.setdefault(j, []).append(quot)
    eng = _TowerEngine(prime, [cofactors.get(j, [f]) for j, f in
                               enumerate(sel_module.generators)], margin)
    ranks, lengths = zip(*(eng.invariants(n) for n in range(n_max + 1)))

    non_finite = tuple(n for n in range(n_max + 1) if ranks[n] > 0)
    levels = [TowerLevel(0, ranks[0], lengths[0], None, None)]
    for n in range(1, n_max + 1):
        obs = None
        if ranks[n] == 0 and ranks[n - 1] == 0:
            obs = lengths[n] - lengths[n - 1]
        pred = None
        if n > level_n0:
            pred = _increment(lam, mu, mw_shape.c_list, n, level_n0, prime)
        levels.append(TowerLevel(n, ranks[n], lengths[n], obs, pred))

    min_valid = None
    for v in range(0, n_max):
        window = range(v + 1, n_max + 1)
        if all(ranks[n] == 0 and ranks[n - 1] == 0 and
               lengths[n] - lengths[n - 1] ==
               _increment(lam, mu, mw_shape.c_list, n, v, prime)
               for n in window):
            min_valid = v
            break

    return TowerReport(
        prime=prime,
        levels=tuple(levels),
        stabilization_level=_stabilization(levels, floor=level_n0),
        lambda_invariant=lam,
        mu_invariant=mu,
        n0=level_n0,
        min_valid_n0=min_valid,
        non_finite_levels=non_finite,
    )

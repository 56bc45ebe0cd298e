"""Quotient towers of elementary modules and their Kobayashi ranks."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwkit import (
    ElementaryModule,
    IwasawaSeries,
    MWShape,
    PrecisionExhaustedError,
    module_invariants,
    nabla_brute,
    nabla_closed,
    phi,
    quotient_presentation,
    rank_phi_omega,
    synthetic_tower_verify,
    tower_report,
    weierstrass_prepare,
)
from iwkit import modules
from iwkit.errors import InputError, IwkitError
from iwkit.modules import (
    _TowerEngine,
    _layer_presentation,
    _mult_matrix_rows,
    _one_plus_x_power,
    _presented_exponents,
    _presented_invariants,
    _summand,
)
from iwkit.padic import _invariants_raw, _snf_core
from iwkit.series import _companion_rows, _poly_divmod_monic, omega_int_coeffs

from conftest import ip_divmod, ip_omega, transition_coker_oracle


P, N, CAP = 3, 24, 89


def series(coeffs, p=P, n=N, cap=CAP):
    return IwasawaSeries.make(p, n, coeffs, cap)


def mod(*gens, p=P):
    return ElementaryModule(p, tuple(gens))


def phi_gen(c, p=P, n=N, cap=CAP):
    return phi(c, prime=p, precision=n, degree_cap=cap)


class TestQuotientPresentation:
    def test_x_mod_omega1(self):
        m = mod(series([0, 1]))
        pres = quotient_presentation(m, 1)
        assert len(pres) == 3
        assert module_invariants(pres) == (1, 0)

    def test_p_mod_omega1(self):
        m = mod(series([3]))
        pres = quotient_presentation(m, 1)
        assert [[x.residue for x in row] for row in pres] == [
            [3, 0, 0], [0, 3, 0], [0, 0, 3]]
        assert module_invariants(pres) == (0, 3)

    def test_phi1_mod_omega2(self):
        assert module_invariants(quotient_presentation(mod(phi_gen(1)), 2)) == (2, 0)

    def test_empty_module(self):
        assert quotient_presentation(mod(), 2) == []

    def test_block_diagonal_shape(self):
        pres = quotient_presentation(mod(series([3]), series([0, 1])), 1)
        assert len(pres) == 6
        for i in range(3):
            for j in range(3, 6):
                assert pres[i][j].is_zero()
                assert pres[j - 3][j].is_zero() or True  # off blocks vanish
        assert all(pres[i][j].is_zero() for i in range(3) for j in range(3, 6))
        assert all(pres[i][j].is_zero() for i in range(3, 6) for j in range(3))


class TestRankPhiOmega:
    def test_c_zero(self):
        assert rank_phi_omega(0, 3, prime=3) == 1
        assert rank_phi_omega(0, 0, prime=3) == 1

    def test_middle(self):
        assert rank_phi_omega(1, 2, prime=3) == 2
        assert rank_phi_omega(2, 2, prime=3) == 6
        assert rank_phi_omega(2, 4, prime=5) == 20

    def test_finite_for_c_above_n(self):
        assert rank_phi_omega(3, 2, prime=3) == 0

    @pytest.mark.parametrize("c", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_against_snf_oracle(self, c, n):
        free, _ = module_invariants(quotient_presentation(mod(phi_gen(c)), n))
        assert free == rank_phi_omega(c, n, prime=3)


class TestNabla:
    def test_mu_module(self):
        assert nabla_brute(mod(series([3])), 2) == 6

    def test_phi1_free_module(self):
        for n in (2, 3, 4):
            assert nabla_brute(mod(phi_gen(1)), n) == 2

    def test_x_at_level1(self):
        assert nabla_brute(mod(series([0, 1])), 1) == 1

    def test_undefined_on_rank_jump(self):
        assert nabla_brute(mod(phi_gen(1)), 1) is None
        assert nabla_brute(mod(phi_gen(2)), 2) is None

    def test_closed_form_values(self):
        assert nabla_closed(0, 1, 2, prime=3) == 6
        assert nabla_closed(5, 0, 7, prime=3) == 5
        assert nabla_closed(2, 1, 3, prime=5) == 102


class TestTowerReport:
    def test_phi2_stabilizes_at_six(self):
        rep = tower_report(mod(phi_gen(2)), 4)
        values = {lv.n: lv.nabla for lv in rep.levels}
        assert values[3] == 6 and values[4] == 6
        assert rep.stabilization_level is not None
        assert rep.stabilization_level <= 3
        assert values[2] is None or values[2] != 6

    def test_p_phi1_matches_closed_form(self):
        rep = tower_report(mod(phi_gen(1) * 3), 4)
        assert rep.lambda_invariant == 2 and rep.mu_invariant == 1
        for lv in rep.levels:
            if lv.n > rep.stabilization_level and lv.n >= 1:
                assert lv.nabla == nabla_closed(2, 1, lv.n, prime=3)

    def test_zero_module(self):
        rep = tower_report(mod(), 3)
        for lv in rep.levels:
            assert (lv.zp_rank, lv.finite_length) == (0, 0)
            if lv.n >= 1:
                assert lv.nabla == 0
        assert rep.stabilization_level == 0

    def test_purely_finite_inner_consistency(self):
        rep = tower_report(mod(series([3])), 3)
        lengths = [lv.finite_length for lv in rep.levels]
        assert lengths == [1, 3, 9, 27]


class TestMwShape:
    def test_detected(self):
        m = mod(phi_gen(0), phi_gen(2), phi_gen(1))
        assert m.mw_shape() == (0, 1, 2)

    def test_rejected_for_non_phi(self):
        assert mod(series([3, 1])).mw_shape() is None
        assert mod(series([3])).mw_shape() is None

    def test_mw_stabilized_nabla_is_rank_sum(self):
        """For (+) Lambda/Phi_{c_i}, the stabilized index equals the total
        rank of the omega_{n0} quotients with n0 = max c_i."""
        shapes = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2), (2, 2)]
        for shape in shapes:
            m = mod(*[phi_gen(c) for c in shape])
            n0 = max(shape)
            want = sum(rank_phi_omega(c, n0, prime=3) for c in shape)
            for n in (n0 + 1, 4):
                assert nabla_brute(m, n) == want


class TestDirectSumAdditivity:
    def test_ranks_lengths_and_nabla_add_at_every_level(self):
        pieces = [mod(series([3])), mod(phi_gen(1)), mod(series([3, 1]))]
        total = mod(*[g for m in pieces for g in m.generators])
        for n in range(0, 4):
            parts = [module_invariants(quotient_presentation(m, n))
                     for m in pieces]
            whole = module_invariants(quotient_presentation(total, n))
            assert whole == (sum(f for f, _ in parts), sum(l for _, l in parts))
        for n in range(1, 4):
            nabs = [nabla_brute(m, n) for m in pieces]
            want = None if any(x is None for x in nabs) else sum(nabs)
            assert nabla_brute(total, n) == want


class TestOracleEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([3, 5]),
    )
    def test_brute_matches_closed_past_threshold(self, seed, p):
        rng = random.Random(seed)
        prec = 24 if p == 3 else 12
        cap = p**3 + 8
        pool = [
            (IwasawaSeries.make(p, prec, [p], cap), 0),
            (IwasawaSeries.make(p, prec, [0, 1], cap), 0),
            (IwasawaSeries.make(p, prec, [p, 1], cap), 0),
            (phi(1, prime=p, precision=prec, degree_cap=cap), 1),
        ]
        k = rng.randint(1, 2)
        gens = [rng.choice(pool) for _ in range(k)]
        m = ElementaryModule(p, tuple(g for g, _ in gens))
        lam, mu = m.lambda_mu()
        max_c = max(c for _, c in gens)
        n_top = 3
        for n in range(1, n_top + 1):
            if p ** (n - 1) >= lam + max_c:
                assert nabla_brute(m, n) == nabla_closed(lam, mu, n, prime=p)


@st.composite
def layer_cases(draw):
    """(relations, n, N, margin): a polynomial f whose trimmed degree lies
    below or above p^n, with a unit or a non-unit leading coefficient, one
    with mu = 0, a non-unit leading coefficient and lambda below or above
    p^n, or a constant u * p^k (k may reach N, i.e. f = 0 mod p^N); and up
    to two further relations, as in the growth cofactor path, each times its
    own p^k (0 <= k <= N), before or after f.  So the common p-power, and
    the base among several relations, are drawn too."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 12))
    margin = draw(st.integers(0, N + 1))
    n = draw(st.integers(0, {3: 3, 5: 2, 7: 2}[p]))
    q = p**N
    kind = draw(st.sampled_from(["unit", "unit", "non-unit", "lambda",
                                 "constant"]))
    if kind == "constant":
        coeffs = [draw(st.integers(1, p - 1)) * p ** draw(st.integers(0, N + 2))]
    elif kind == "lambda":
        lam = draw(st.integers(0, p**n + 1))
        coeffs = [p * c for c in draw(st.lists(st.integers(0, q - 1),
                                               min_size=lam, max_size=lam))]
        coeffs.append(p * draw(st.integers(0, q - 1)) + draw(st.integers(1, p - 1)))
        coeffs += draw(st.lists(st.integers(0, q - 1), max_size=4))
        coeffs.append(p * draw(st.integers(1, q)))
    else:
        below = st.integers(1, max(p**n - 1, 1))
        d = draw(st.one_of(below, below, st.integers(p**n, p**n + 3)))
        scale = p ** draw(st.integers(0, N))
        coeffs = [c * scale for c in
                  draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))]
        top = draw(st.integers(0, q - 1))
        coeffs.append(top - top % p + draw(st.integers(1, p - 1))
                      if kind == "unit" else p * top)
    # f may carry more digits than the layer's precision, as a generator of
    # a module whose other generators are less precise
    prec = N + draw(st.sampled_from([0, 2]))
    cap = len(coeffs) - 1 + draw(st.integers(0, 3))
    f = IwasawaSeries.make(p, prec, coeffs, cap)
    extra = [IwasawaSeries.make(p, prec, [c * p ** draw(st.integers(0, N))
                                          for c in draw(st.lists(
                 st.integers(0, q - 1), min_size=1, max_size=p**n + 2))])
             for _ in range(draw(st.integers(0, 2)))]
    at = draw(st.integers(0, len(extra)))
    return extra[:at] + [f] + extra[at:], n, N, margin


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhaustedError as exc:
        return ("PrecisionExhaustedError", str(exc))


class TestLayerPresentation:
    """The presentation of a summand by the one rule against the brute-force
    [mult(h_1) | mult(h_2) ...] oracle of its relations themselves."""

    @settings(max_examples=500, deadline=None)
    @given(case=layer_cases())
    def test_matches_brute_force(self, case):
        relations, n, N, margin = case
        p = relations[0].prime
        blocks = [_mult_matrix_rows(h, n) for h in relations]
        brute = [sum(parts, []) for parts in zip(*blocks)]
        summand = _summand(relations, N)
        shift, base = summand[0], summand[1]
        lam = len(base.coeffs) - 1
        assert base.coeffs[lam] == 1 and all(c % p == 0 for c in base.coeffs[:lam])
        digits = [c % p**N for h in relations for c in h.coeffs]
        assert all(c % p**shift == 0 for c in digits)
        assert shift == N or any(c % p ** (shift + 1) for c in digits)
        pres = _layer_presentation(summand, n)
        rows, pad = pres
        if lam < p**n:
            assert (len(rows), pad) == (lam, p**n - lam)
        else:
            assert (len(rows), pad) == (p**n, 0)
        want = _snf_core(brute, p, N, track=False)[0]
        assert _presented_exponents(pres, p, N, shift) == want
        assert _outcome(lambda: _presented_invariants(pres, p, N, margin,
                                                      shift)) == \
            _outcome(lambda: _invariants_raw(brute, p, N, margin))

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(2, 40),
           seed=st.integers(0, 10**9))
    def test_distinguished_polynomial(self, p, n, seed):
        # P monic of degree lambda, P = X^lambda mod p and P | f mod p^n
        # determine P; weierstrass_prepare agrees where its X^D cut leaves
        # every digit determined
        rng = random.Random(seed)
        q = p**n
        lam = rng.randint(0, 12)
        f = [p * rng.randrange(q) % q for _ in range(lam)]
        f.append(rng.randrange(1, p) + p * rng.randrange(q) % q)
        f += [rng.randrange(q) for _ in range(rng.randint(0, 12))]
        f.append(p * rng.randrange(1, q // p))
        P = list(_summand([series(f, p, n, len(f))], n)[1].coeffs)
        assert len(P) == lam + 1 and P[lam] == 1
        assert all(c % p == 0 for c in P[:lam])
        assert not any(_poly_divmod_monic(f, P, q)[1])
        if n >= 8:
            w = weierstrass_prepare(series(f, p, n, 40 * (lam + 1)))
            assert (w.mu, w.lambda_) == (0, lam)
            assert list(w.distinguished.coeffs[:lam + 1]) == P

    @pytest.mark.parametrize("coeffs,shape", [
        ([[3, 1]], (0, 1, 8)),      # degree 1 < 9, monic: 1 x 1, 8 zeros
        ([[3, 0, 9]], (1, 0, 9)),   # 3 * (1 + 3X^2): lambda 0, no rows
        ([[9]], (2, 0, 9)),         # constant 9: shift 2, no rows
        ([[1] * 12], (0, 0, 9)),    # mu = 0, lambda 0: P = 1, no rows
        ([[3, 1, 3]], (0, 1, 8)),   # mu = 0, lambda 1: 1 x 1 from X + u
        ([[3] * 9 + [1, 3]], (0, 9, 0)),  # lambda 9 >= 9: 9 x 9
        ([[9, 3]], (1, 1, 8)),      # 3 * (X + 3): 1 x 1 at N - 1
        # several relations: the shift is common, the base has least lambda
        ([[0, 9], [3, 3, 3, 3]], (1, 0, 9)),   # base 1 from the second
        ([[27, 9, 9], [9, 0, 3]], (1, 2, 7)),  # base X^2 + 3 from the second
        ([[3, 1, 1], [1, 1]], (0, 0, 9)),      # X + 1 has lambda 0
    ])
    def test_case_selection(self, coeffs, shape):
        summand = _summand([series(h) for h in coeffs], N)
        rows, pad = _layer_presentation(summand, 2)
        assert (summand[0], len(rows), pad) == shape

    @pytest.mark.parametrize("p,coeffs,n", [
        (3, [3, 6, 1], 5),          # Eisenstein, d = 2, p^n = 243
        (3, [2, 1], 4),             # X + 2: a unit constant term
        (3, [7, 5, 0, 4, 2], 5),    # unit leading coefficient 2, d = 4
        (5, [5, 0, 10, 1], 3),      # Eisenstein, d = 3, p^n = 125
        (7, [14, 7, 1], 2),         # Eisenstein, d = 2, p^n = 49
        (7, [1, 3, 0, 2], 2),       # unit constant and leading terms
        (3, [3, 6, 1], 7),          # p^n = 2187: long division alone
        (5, [5, 0, 10, 1], 5),      # p^n = 3125
        (7, [1, 3, 0, 2], 4),       # p^n = 2401
    ])
    def test_high_levels(self, p, coeffs, n):
        # p^n >> d: the rows equal those of the long division of omega_n's
        # exact binomials, and their Smith form that of the p^n x p^n
        # brute force wherever p^n <= 243
        # f is the base itself, scaled monic, whatever its lambda
        q, d = p**N, len(coeffs) - 1
        f = series(coeffs, p)
        inv = pow(coeffs[-1], -1, q)
        monic = [c * inv % q for c in coeffs]
        pres = _layer_presentation((0, IwasawaSeries(p, N, tuple(monic)), []), n)
        rows, pad = pres
        assert (len(rows), pad) == (d, p**n - d)
        assert rows == _companion_rows(omega_int_coeffs(p, n), monic, q)
        if p**n <= 243:
            brute = [[x.residue for x in row]
                     for row in quotient_presentation(mod(f, p=p), n)]
            want = _snf_core(brute, p, N, track=False)[0]
            assert _presented_exponents(pres, p, N) == want


_omega = functools.cache(ip_omega)


@st.composite
def monic_cases(draw):
    """(P, p, n, N): P monic of degree 1..2p+2 mod p^N whose lower
    coefficients are all units, all divisible by p, or either; N small or
    with p^N just below or just above 2^55; p^n <= 729, which keeps the
    exact division of omega_n small."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.one_of(st.integers(1, 12), st.sampled_from(
        {3: [34, 35], 5: [23, 24], 7: [19, 20]}[p])))
    n = draw(st.integers(0, {3: 6, 5: 4, 7: 3}[p]))
    q = p**N
    d = draw(st.integers(1, 2 * p + 2))
    low = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    kind = draw(st.sampled_from(["unit", "non-unit", "any"]))
    if kind == "unit":
        low = [c - c % p + draw(st.integers(1, p - 1)) for c in low]
    elif kind == "non-unit":
        low = [c - c % p for c in low]
    return low + [1], p, n, N


class TestOnePlusXPower:
    """(1+X)^{p^n} mod (P, p^N) by repeated p-th powers, against omega_n
    mod P by exact division of its integer binomials."""

    @settings(max_examples=300, deadline=None)
    @given(case=monic_cases())
    def test_matches_exact_division(self, case):
        P, p, n, N = case
        q, d = p**N, len(P) - 1
        _, rem = ip_divmod(_omega(p, n), P)
        want = [c % q for c in rem] + [0] * (d - len(rem))
        r = _one_plus_x_power(P, p, n, q, [])
        assert [(r[0] - 1) % q] + r[1:] == want
        # level by level through one list, as the tower engine does
        powers = []
        for k in range(n + 1):
            _one_plus_x_power(P, p, k, q, powers)
        assert len(powers) == n + 1 and powers[n] == r
        assert _one_plus_x_power(P, p, 0, q, powers) == powers[0]


@pytest.fixture
def omega_levels(monkeypatch):
    """The levels at which ``modules`` builds omega_n's exact binomials."""
    calls = []
    real = modules.omega_int_coeffs

    def counted(prime, n):
        calls.append(n)
        return real(prime, n)

    monkeypatch.setattr(modules, "omega_int_coeffs", counted)
    return calls


class TestHighLevels:
    def test_small_path_above_the_brute_force_levels(self, omega_levels):
        # {X^2 + 6X + 3, p} at p = 3: lambda = 2, mu = 1; only level 0,
        # where d = 2 >= p^0, builds omega's binomials
        report = tower_report(mod(series([3, 6, 1]), series([3])), 9)
        assert (report.lambda_invariant, report.mu_invariant) == (2, 1)
        assert report.level(1).match is False
        assert all(report.level(n).match for n in range(2, 10))
        assert report.level(9).nabla == nabla_closed(2, 1, 9, prime=3) == 13124
        assert omega_levels and set(omega_levels) == {0}

    def test_two_cofactors_with_mu(self, omega_levels):
        # scenarios/growth_two_cofactors_mu.json: 3 * Phi_1 * Phi_2 * (X + 3)
        # absorbs Phi_1 and Phi_2, so its summand has two relations with a
        # common 3; the base Phi_1 * (X + 3) has lambda 3, and only levels 0
        # and 1, where 3 >= p^n, build omega's binomials
        f = series([3]) * phi_gen(1) * phi_gen(2) * series([3, 1])
        report = synthetic_tower_verify(mod(f), MWShape((1, 2)), 5)
        assert [lv.nabla for lv in report.levels[1:]] == [4, 7, 19, 55, 163]
        assert report.stabilization_level == 2
        assert omega_levels and set(omega_levels) == {0, 1}


@st.composite
def unit_lead_cases(draw):
    """(f, n, N, margin): a polynomial f with mu = 0, a unit leading
    coefficient and lambda below its degree d, d below or at least p^n."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(2, 12))
    n = draw(st.integers(0, {3: 3, 5: 2, 7: 2}[p]))
    margin = draw(st.integers(0, N + 1))
    q = p**N
    d = draw(st.integers(1, p**n + 4))
    lam = draw(st.integers(0, d - 1))
    coeffs = [p * c for c in draw(st.lists(st.integers(0, q - 1),
                                           min_size=lam, max_size=lam))]
    coeffs += draw(st.lists(st.integers(0, q - 1), min_size=d + 1 - lam,
                            max_size=d + 1 - lam))
    for i in (lam, d):
        coeffs[i] += draw(st.integers(1, p - 1)) - coeffs[i] % p
    prec = N + draw(st.sampled_from([0, 2]))
    f = IwasawaSeries.make(p, prec, coeffs, d + draw(st.integers(0, 3)))
    return f, n, N, margin


class TestUnitLeadingCoefficient:
    """A mu = 0 polynomial with a unit leading coefficient and lambda < d is
    presented through its distinguished polynomial: lambda x lambda, no rows
    when lambda = 0, against the p^n x p^n oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=unit_lead_cases())
    def test_matches_quotient_presentation(self, case):
        f, n, N, margin = case
        p = f.prime
        lam = next(i for i, c in enumerate(f.coeffs) if c % p)
        summand = _summand([f], N)
        g = summand[1]
        assert summand[0] == 0 and g.degree() == lam and g.coeffs[lam] == 1
        pres = _layer_presentation(summand, n)
        rows, pad = pres
        if lam < p**n:
            assert (len(rows), pad) == (lam, p**n - lam)
        at_n = mod(IwasawaSeries(p, N, f.coeffs), p=p)
        brute = [[x.residue for x in row]
                 for row in quotient_presentation(at_n, n)]
        want = _snf_core(brute, p, N, track=False)[0]
        assert _presented_exponents(pres, p, N) == want
        assert _outcome(lambda: _presented_invariants(pres, p, N, margin)) == \
            _outcome(lambda: _invariants_raw(brute, p, N, margin))


@st.composite
def shifted_cases(draw):
    """(f, n, N, margin, mu): f = p^mu * g at precision N (or N + 2, as a
    generator of a module whose other generators are less precise) with
    1 <= mu <= N - 1 and g of valuation 0: a unit (lambda = 0: a constant,
    or a polynomial with a unit constant term), or a polynomial of degree d
    below or above p^n with a unit or a non-unit leading coefficient."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(2, 12))
    mu = draw(st.integers(1, N - 1))
    margin = draw(st.integers(0, N + 1))
    n = draw(st.integers(0, {3: 3, 5: 2, 7: 2}[p]))
    prec = N + draw(st.sampled_from([0, 2]))
    q = p ** (prec - mu)
    digit = st.integers(0, q - 1)

    def unit():
        return draw(st.integers(1, p - 1)) + p * draw(st.integers(0, q // p - 1))

    kind = draw(st.sampled_from(["unit", "unit_poly", "unit_lead",
                                 "non_unit_lead"]))
    if kind == "unit":
        g = [unit()]
    else:
        below = st.integers(1, max(p**n - 1, 1))
        d = draw(st.one_of(below, st.integers(p**n, p**n + 3)))
        g = draw(st.lists(digit, min_size=d + 1, max_size=d + 1))
        if kind == "unit_poly":
            g[0] = unit()
        else:
            g[draw(st.integers(0, d - 1))] = unit()
            g[d] = unit() if kind == "unit_lead" else \
                p * draw(st.integers(0, q // p - 1))
    f = IwasawaSeries.make(p, prec, [c * p**mu for c in g],
                           len(g) - 1 + draw(st.integers(0, 3)))
    return f, n, N, margin, mu


class TestPPowerShift:
    """f = p^mu * g presented through g at precision N - mu, against the
    brute-force p^n x p^n oracle of f itself at precision N."""

    @settings(max_examples=500, deadline=None)
    @given(case=shifted_cases())
    def test_matches_brute_force(self, case):
        f, n, N, margin, mu = case
        p = f.prime
        summand = _summand([f], N)
        shift = summand[0]
        assert shift == mu and summand[1].precision == N - mu
        pres = _layer_presentation(summand, n)
        brute = _mult_matrix_rows(f, n)
        want = _snf_core(brute, p, N, track=False)[0]
        assert _presented_exponents(pres, p, N, shift) == want
        oracle = _outcome(lambda: _invariants_raw(brute, p, N, margin))
        assert _outcome(lambda: _presented_invariants(pres, p, N, margin,
                                                      shift)) == oracle
        if f.precision == N:
            eng = _TowerEngine(p, [[f]], margin)
            assert [a for a, _, _ in eng.summands] == [mu]
            assert _outcome(lambda: eng.invariants(n)) == oracle

    @settings(max_examples=60, deadline=None)
    @given(case=shifted_cases())
    def test_transition_cokernel_vanishes(self, case):
        # only the presentation block of [I | p^mu * presentation] is scaled
        f, n, N, margin, mu = case
        eng = _TowerEngine(f.prime, [[IwasawaSeries(f.prime, N, f.coeffs)]],
                           min(margin, N - 1))
        assert transition_coker_oracle(eng, n + 1) == 0

    def test_two_relations_take_the_smaller_base(self):
        # 9 + 3X + 3X^3 has no unit coefficient, so X + 3 is the base: the
        # layer is Z_p[X]/(X + 3), one row [W_2 | H], not 9 x 18
        relations = [series([9, 3, 0, 3]), series([3, 1])]
        eng = _TowerEngine(P, [relations], 4)
        assert [a for a, _, _ in eng.summands] == [0]
        rows, pad = _layer_presentation(eng.summands[0], 2)
        assert (len(rows), len(rows[0]), pad) == (1, 2, 8)
        brute = [r + e for r, e in zip(*(_mult_matrix_rows(h, 2)
                                         for h in relations))]
        want = _snf_core(brute, P, N, track=False)[0]
        assert _presented_exponents((rows, pad), P, N) == want
        assert transition_coker_oracle(eng, 3) == 0


@st.composite
def engine_cases(draw):
    """(p, relations, margin, n): up to three summands of one or two
    relations each, at p in {3, 5, 7} and N <= 10.  A relation has degree
    up to p^(n-1) or up to p^n + 2, so its level n-1 is presented on the
    base or by the brute-force blocks; it may have a unit coefficient at a
    drawn lambda, carry a common p^k (k up to N + 1, so it may vanish mod
    p^N) or a factor X (so the layers keep a free rank), and carry two more
    digits than the engine.  The margin reaches N + 2."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 10))
    n = draw(st.integers(1, {3: 3, 5: 2, 7: 2}[p]))
    q, below = p**N, p ** max(n - 1, 0)

    def relation():
        d = draw(st.one_of(st.integers(0, below),
                           st.integers(below, p**n + 2)))
        cs = draw(st.lists(st.integers(0, q - 1), min_size=d + 1,
                           max_size=d + 1))
        if draw(st.booleans()):
            lam = draw(st.integers(0, d))
            cs = [p * c for c in cs[:lam]] + \
                [cs[lam] - cs[lam] % p + draw(st.integers(1, p - 1))] + \
                cs[lam + 1:]
        scale = p ** draw(st.integers(0, N + 1))
        x = [0] * draw(st.integers(0, 1))
        return IwasawaSeries.make(p, N + draw(st.sampled_from([0, 2])),
                                  x + [c * scale for c in cs])

    relations = [[relation() for _ in range(draw(st.integers(1, 2)))]
                 for _ in range(draw(st.integers(0, 3)))]
    if relations and all(h.precision > N for hs in relations for h in hs):
        relations[0][0] = IwasawaSeries.make(p, N, relations[0][0].coeffs)
    return p, relations, draw(st.integers(0, N + 2)), n


def _explicit_nabla(eng, n):
    """The tower index with the cokernel of pi_n computed from its explicit
    matrix (``transition_coker_oracle``), as the engine once computed it."""
    if n < 1:
        raise InputError("level must be >= 1")
    if not eng.summands:
        return 0
    rank_n, len_n = eng.invariants(n)
    rank_prev, len_prev = eng.invariants(n - 1)
    if rank_n != rank_prev:
        return None
    coker = transition_coker_oracle(eng, n)
    if coker is None:
        return None
    if coker != 0:
        raise IwkitError("transition cokernel unexpectedly nonzero")
    return (len_n - len_prev) + rank_prev


def _value_or_error(fn):
    try:
        return fn()
    except IwkitError as exc:
        return type(exc)


class TestNablaFromInvariants:
    """nabla from the two layers' invariants alone against the formula on
    the explicit cokernel of pi_n: the same value or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(case=engine_cases())
    def test_matches_explicit_cokernel(self, case):
        p, relations, margin, n = case
        got = _value_or_error(
            lambda: _TowerEngine(p, relations, margin).nabla(n))
        want = _value_or_error(
            lambda: _explicit_nabla(_TowerEngine(p, relations, margin), n))
        assert got == want
        assert _TowerEngine(p, relations, margin).transition_coker_length(
            n) == 0

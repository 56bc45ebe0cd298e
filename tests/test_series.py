"""Truncated series arithmetic, Phi/omega, Weierstrass preparation, division."""

import random
import sys
from functools import lru_cache
from itertools import zip_longest
from math import comb
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwkit import (
    DegreeOverflowError,
    InputError,
    IwasawaSeries,
    PadicInt,
    PrecisionExhaustedError,
    ZeroSeriesError,
    divide_distinguished,
    omega,
    phi,
    weierstrass_prepare,
)
from iwkit.logmatrix import _mul_mod_cap
from iwkit.series import (
    _BLOCKED_MIN,
    _MULMOD_SCHOOLBOOK_MAX,
    _SCHOOLBOOK_MAX,
    _PLANE_OFFSETS,
    _SLOT_BOUND,
    WeierstrassFactorization,
    _binomials,
    _conv,
    _hensel_lift,
    _mulmod,
    _pack,
    _plane_offsets,
    _poly_divmod_monic,
    _series_inv,
    _slot_reducer,
    _unpack,
    lambda_mu,
    reconstruction_residual_valuation,
)

from conftest import (DenseWindow, dense_trim, ip_add, ip_divmod, ip_mul,
                      ip_neg, ip_omega, ip_phi, ip_reduce_mod, ip_trim)

# the highest level k per prime with deg Phi_k <= 501, and p^k <= 729
TOP_LEVEL = {3: 6, 5: 4, 7: 3, 11: 2}
exact_phi = lru_cache(maxsize=None)(ip_phi)
exact_omega = lru_cache(maxsize=None)(ip_omega)


@st.composite
def level_cases(draw):
    """(p, k, N): N on both sides of p^N = 2^64, or small enough that some
    exact coefficients of Phi_k and omega_k vanish mod p^N."""
    p = draw(st.sampled_from(sorted(TOP_LEVEL)))
    k = draw(st.integers(0, TOP_LEVEL[p]))
    return p, k, draw(st.one_of(st.integers(1, 3), st.integers(1, 60)))


def S(coeffs, p=3, n=24, cap=30):
    return IwasawaSeries.make(p, n, coeffs, cap)


def _exact_or_cap(op, x, y):
    """op(x, y), or the required_cap of the DegreeOverflowError it raises."""
    try:
        return op(x, y)
    except DegreeOverflowError as exc:
        return exc.required_cap


class TestPhiOmega:
    def test_phi0_is_x(self):
        f = phi(0, prime=3, precision=24, degree_cap=5)
        assert (f.coeffs, f.degree_cap) == ((0, 1), 5)

    def test_phi1_binomial(self):
        f = phi(1, prime=3, precision=24, degree_cap=5)
        assert (f.coeffs, f.degree_cap) == ((3, 3, 1), 5)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_phi_matches_exact_division_oracle(self, p, n):
        f = phi(n, prime=p, precision=20, degree_cap=p**n)
        want = ip_reduce_mod(ip_phi(p, n), p**20)
        assert f.coeffs == tuple(want)

    def test_phi2_monic_degree6_constant3(self):
        f = phi(2, prime=3, precision=24, degree_cap=10)
        assert f.degree() == 6
        assert f.coeffs[6] == 1
        assert f.coeffs[0] == 3

    def test_omega_examples(self):
        w0 = omega(0, prime=3, precision=24, degree_cap=5)
        assert (w0.coeffs, w0.degree_cap) == ((0, 1), 5)
        w1 = omega(1, prime=3, precision=24, degree_cap=5)
        assert (w1.coeffs, w1.degree_cap) == ((0, 3, 3, 1), 5)

    def test_omega_is_product_of_phis(self):
        cap = 30
        w2 = omega(2, prime=3, precision=24, degree_cap=cap)
        prod = phi(0, prime=3, precision=24, degree_cap=cap)
        for k in (1, 2):
            prod = prod * phi(k, prime=3, precision=24, degree_cap=cap)
        assert prod.congruent(w2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_omega_recursion(self, n):
        cap = 90
        wn = omega(n, prime=3, precision=24, degree_cap=cap)
        rec = omega(n - 1, prime=3, precision=24, degree_cap=cap) * \
            phi(n, prime=3, precision=24, degree_cap=cap)
        assert wn.congruent(rec)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, 800))
    @example(k=0)
    @example(k=1)
    def test_binomials_match_math_comb(self, k):
        assert _binomials(k) == [comb(k, i) for i in range(k + 1)]

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(0, 4))
    def test_int_coeffs_match_math_comb(self, p, n):
        # Phi_n = sum_{j<p} (1+X)^{j p^(n-1)} and omega_n = (1+X)^{p^n} - 1,
        # their residues mod p^60
        q = p**60
        if n:
            step = p ** (n - 1)
            want = [sum(comb(j * step, i) for j in range(p))
                    for i in range(step * (p - 1) + 1)]
        else:
            want = [0, 1]
        assert phi(n, prime=p, precision=60).coeffs == tuple(c % q for c in want)
        assert omega(n, prime=p, precision=60).coeffs == (0,) + tuple(
            comb(p**n, i) % q for i in range(1, p**n + 1))

    @settings(max_examples=80, deadline=None)
    @given(case=level_cases())
    @example(case=(3, 6, 1))
    @example(case=(3, 6, 40))
    @example(case=(3, 6, 41))
    @example(case=(11, 2, 18))
    @example(case=(11, 2, 19))
    def test_phi_omega_residues_match_exact_rows(self, case):
        # the residues mod p^N of the exact rows, trimmed as a series stores
        # them; Phi_k and omega_k are monic, so the top term always stays
        p, k, n = case
        q = p**n
        f = phi(k, prime=p, precision=n)
        assert f.coeffs == dense_trim(c % q for c in exact_phi(p, k))
        w = omega(k, prime=p, precision=n)
        assert w.coeffs == dense_trim(c % q for c in exact_omega(p, k))

    @pytest.mark.parametrize("make", [phi, omega])
    def test_oversized_level_is_input_error(self, make):
        # 3^70 is past sys.maxsize: refused from the level, as deg_phi does,
        # before any coefficient is built
        with pytest.raises(InputError, match=r"3\^70 exceeds sys.maxsize"):
            make(70, prime=3, precision=24)

    def test_degree_overflow_names_required_cap(self):
        with pytest.raises(DegreeOverflowError) as err:
            omega(3, prime=3, precision=24, degree_cap=20)
        assert err.value.required_cap == 27

    @pytest.mark.parametrize("cap", [3**40 + 8, 10**30])
    def test_window_too_large_names_cap(self, cap):
        for make in (lambda: IwasawaSeries.make(3, 24, [1], cap),
                     lambda: IwasawaSeries.zero(3, 24, cap)):
            with pytest.raises(InputError, match=f"degree cap {cap} "):
                make()


class TestWeierstrass:
    def test_already_distinguished(self):
        w = weierstrass_prepare(S([3, 1]))
        assert (w.mu, w.lambda_) == (0, 1)
        assert w.distinguished.coeffs == (3, 1)
        assert w.unit.coeffs[0] == 1 and w.unit.degree() == 0

    def test_p_times_unit(self):
        w = weierstrass_prepare(S([3, 3]))
        assert (w.mu, w.lambda_) == (1, 0)
        assert w.distinguished.coeffs == (1,)
        assert w.unit.coeffs == (1, 1)

    def test_product_oracle_p5(self):
        # (X^2 + 5)(1 + 5X) expanded exactly, then prepared
        p, n, cap = 5, 20, 30
        f = IwasawaSeries.make(p, n, ip_mul([5, 0, 1], [1, 5]), cap)
        w = weierstrass_prepare(f)
        assert (w.mu, w.lambda_) == (0, 2)
        want = IwasawaSeries.make(p, n, [5, 0, 1], 2)
        assert w.distinguished.congruent(want, mod_exp=16)

    def test_zero_series_rejected(self):
        with pytest.raises(ZeroSeriesError):
            weierstrass_prepare(IwasawaSeries.zero(3, 24, 10))

    @pytest.mark.parametrize("j", [11, 14])
    def test_residual_covers_degrees_above_the_unit_cap(self, j):
        # f = X^8 U at cap D = 26: P = X^8 and U of cap D - 8 = 18.  U off by
        # 3^5 X^j puts the error at degree j + 8 in 19..22, above D - 8 and
        # inside the reported window 0..D - 4
        p, n, lam, D = 3, 24, 8, 26
        unit = [1 + 3 * k for k in range(D - lam + 1)]
        f = IwasawaSeries.make(p, n, [0] * lam + unit, D)
        wrong = unit[:j] + [unit[j] + 3**5] + unit[j + 1:]
        w = WeierstrassFactorization(
            0, lam, IwasawaSeries.monomial(lam, p, n),
            IwasawaSeries.make(p, n, wrong, D - lam))
        assert w.reconstruct().degree_cap == D
        assert reconstruction_residual_valuation(f, w, up_to_degree=D - 4) == 5
        exact = WeierstrassFactorization(
            0, lam, IwasawaSeries.monomial(lam, p, n),
            IwasawaSeries.make(p, n, unit, D - lam))
        assert reconstruction_residual_valuation(f, exact,
                                                 up_to_degree=D - 4) == n

    def test_phi_invariants(self):
        for p in (3, 5):
            for n in (1, 2):
                f = phi(n, prime=p, precision=20, degree_cap=p**n + 4)
                lam, mu = lambda_mu(f)
                assert mu == 0
                assert lam == p**n - p ** (n - 1)
        lam, mu = lambda_mu(phi(0, prime=3, precision=20, degree_cap=4))
        assert (lam, mu) == (1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([3, 5]),
        seed=st.integers(0, 10**6),
        mu=st.integers(0, 2),
    )
    def test_reconstruction(self, p, seed, mu):
        rng = random.Random(seed)
        n, cap = 20, 30
        q = p**n
        coeffs = [rng.randrange(q) * p**mu for _ in range(cap + 1)]
        coeffs[rng.randint(0, 4)] = p**mu * (1 + p * rng.randrange(p**4))
        f = IwasawaSeries.make(p, n, coeffs, cap)
        w = weierstrass_prepare(f)
        assert w.mu == mu
        res = reconstruction_residual_valuation(f, w, up_to_degree=cap - 4)
        assert res >= n - mu - 2

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([3, 5]), seed=st.integers(0, 10**6))
    def test_additivity_over_products(self, p, seed):
        rng = random.Random(seed)
        n, cap = 20, 40

        def small_series():
            lam = rng.randint(0, 4)
            mu = rng.randint(0, 1)
            coeffs = [p * rng.randrange(p**6) for _ in range(lam)]
            coeffs.append(1 + p * rng.randrange(p**6))
            coeffs += [rng.randrange(p**8) for _ in range(4)]
            return IwasawaSeries.make(p, n, [c * p**mu for c in coeffs], cap)

        f, g = small_series(), small_series()
        lf, mf = lambda_mu(f)
        lg, mg = lambda_mu(g)
        lp, mp = lambda_mu(f * g)
        assert (lp, mp) == (lf + lg, mf + mg)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 16),
           seed=st.integers(0, 10**9), margin=st.integers(0, 6))
    def test_valuation_scan_matches_preparation(self, p, n, seed, margin):
        # lambda_mu reads (lambda, mu) off one scan of the coefficients;
        # weierstrass_prepare gives the same pair, or the same exit-3 refusal
        rng = random.Random(seed)
        k = rng.randint(0, n - 1)
        cap = rng.randint(0, 12)
        coeffs = [rng.randrange(p**n) * p ** rng.randint(k, n)
                  for _ in range(cap + 1)]
        coeffs[rng.randint(0, cap)] = p**k * rng.randrange(1, p)
        f = IwasawaSeries.make(p, n, coeffs, cap)
        vals = [PadicInt(p, c, n).valuation() for c in f.coeffs]
        assert min(vals) == k

        def outcome(fn):
            try:
                return fn()
            except PrecisionExhaustedError as exc:
                return str(exc)

        scan = outcome(lambda: lambda_mu(f, margin=margin))
        w = outcome(lambda: weierstrass_prepare(f, margin=margin))
        if n - k <= margin:
            assert scan == w == (f"mu = {k} leaves fewer than margin+1 = "
                                 f"{margin + 1} digits of precision")
        else:
            assert scan == (w.lambda_, w.mu) == (vals.index(k), k)

    def test_valuation_scan_rejects_zero(self):
        with pytest.raises(ZeroSeriesError):
            lambda_mu(IwasawaSeries.zero(3, 24, 10))


class TestDivideDistinguished:
    def test_phi1_divides_omega2(self):
        cap = 30
        w2 = omega(2, prime=3, precision=24, degree_cap=cap)
        p1 = phi(1, prime=3, precision=24, degree_cap=cap)
        q, r = divide_distinguished(w2, p1)
        assert r.is_zero()

    def test_low_degree_passthrough(self):
        x = IwasawaSeries.monomial(1, 3, 24, 10)
        p1 = phi(1, prime=3, precision=24, degree_cap=10)
        q, r = divide_distinguished(x, p1)
        assert q.is_zero()
        assert r.coeffs == (0, 1)

    def test_non_monic_rejected(self):
        from iwkit import InputError

        with pytest.raises(InputError):
            divide_distinguished(S([1, 1, 1]), S([1, 2]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_reconstruction(self, seed):
        rng = random.Random(seed)
        p, n, cap = 3, 24, 20
        f = IwasawaSeries.make(p, n, [rng.randrange(p**n) for _ in range(10)], cap)
        p1 = phi(1, prime=p, precision=n, degree_cap=cap)
        q, r = divide_distinguished(f, p1)
        back = ip_add(ip_mul(q.coeffs, p1.coeffs), r.coeffs)
        assert dense_trim(ip_reduce_mod(back, p**n)) == f.coeffs


class TestSeriesBasics:
    def test_min_cap_rule(self):
        # a result takes the smaller cap; one that does not fit under it is
        # refused with the cap it needs, never cut
        a = S([1, 1, 1], cap=5)
        b = S([1, 1], cap=2)
        assert (S([1, 1], cap=5) * b).degree_cap == 2
        assert (a + b).degree_cap == 2
        assert _exact_or_cap(mul, a, b) == 3
        assert _exact_or_cap(mul, S([1, 1], cap=3), S([1, 0, 0, 1], cap=3)) == 4
        assert _exact_or_cap(add, S([1, 0, 0, 1], cap=5), b) == 3

    def test_congruent_to_a_non_series_refused(self):
        f = S([5])
        for other in (5, PadicInt(3, 5, 24), S([5], p=5)):
            with pytest.raises(InputError):
                f.congruent(other)

    def test_congruent_below_exponent_zero_refused(self):
        f, g = S([1, 2]), S([2, 2])
        assert f.congruent(g, mod_exp=0)
        assert not f.congruent(g, mod_exp=1)
        with pytest.raises(InputError, match="mod_exp"):
            f.congruent(g, mod_exp=-1)

    def test_mul_p_power_gains_precision(self):
        f = S([1, 2], cap=3).mul_p_power(2)
        assert f.precision == 26
        assert f.coeffs == (9, 18)

    def test_exact_div_p_power(self):
        f = S([9, 18], cap=2).exact_div_p_power(2)
        assert f.precision == 22
        assert f.coeffs == (1, 2)

    def test_min_valuation(self):
        assert S([9, 27]).min_valuation() == 2
        assert IwasawaSeries.zero(3, 24, 4).min_valuation() == 24

    def test_scalar_caps_the_precision(self):
        # a scalar known mod 3^2 leaves every sum and difference known mod
        # 3^2 only, as the product does
        f, c = IwasawaSeries(3, 24, (1, 1)), PadicInt(3, 5, 2)
        for got, want in [(f + c, (6 % 9, 1)), (c + f, (6 % 9, 1)),
                          (f - c, (5, 1)), (c - f, (4, 8)), (f * c, (5, 5))]:
            assert got.precision == 2
            assert got.coeffs == want
        assert IwasawaSeries.constant(PadicInt(3, 2, 3), 3, 24).precision == 3

    def test_scalar_of_another_prime_refused(self):
        f, c = IwasawaSeries(3, 24, (1, 1)), PadicInt(5, 2, 24)
        for op in (lambda: f + c, lambda: c + f, lambda: f - c,
                   lambda: c - f, lambda: f * c,
                   lambda: IwasawaSeries.constant(PadicInt(5, 2, 3), 3, 24)):
            with pytest.raises(InputError, match="mixed primes"):
                op()


def _window_coeffs(rng, p, n, length):
    """length coefficients that are often 0 mod p^n (0 or a multiple of
    p^n), else a residue of random valuation; the last few often 0 mod p^n
    too, so the stored value ends below the window."""
    q = p**n

    def one():
        kind = rng.randrange(4)
        if kind < 2:
            return kind * q * rng.randint(1, 3)
        return p ** rng.randint(0, n - 1) * rng.randrange(1, q) % q
    out = [one() for _ in range(length)]
    for i in range(rng.randint(0, length)):
        out[length - 1 - i] = q * rng.randint(0, 2)
    return out


def _trimmed_ok(s):
    return not s.coeffs or s.coeffs[-1] != 0


class TestTrimmedCoefficients:
    """Every operation stores its value trimmed at the cap the window
    representation gave it, and equals the window oracle."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), seed=st.integers(0, 10**9))
    @example(p=3, seed=0)
    def test_operations_match_dense_windows(self, p, seed):
        rng = random.Random(seed)

        def pair():
            n, cap = rng.randint(1, 30), rng.randint(0, 40)
            cs = _window_coeffs(rng, p, n, rng.randint(1, cap + 1))
            if rng.random() < 0.25:
                return IwasawaSeries.make(p, n, cs), DenseWindow.of(p, n, cs)
            return (IwasawaSeries.make(p, n, cs, cap),
                    DenseWindow.of(p, n, cs, cap))

        (a, da), (b, db) = pair(), pair()
        k = rng.randint(0, 6)
        v = rng.randint(0, min(a.min_valuation(), a.precision - 1))
        results = [(a, da), (b, db), (-a, -da),
                   (a.mul_p_power(k), da.mul_p_power(k)),
                   (a.exact_div_p_power(v), da.exact_div_p_power(v))]
        # a sum or product is refused, with the same cap, where the window's
        # exact value does not fit under the smaller cap
        for op in (add, sub, mul, lambda x, y: y * x):
            got, want = _exact_or_cap(op, a, b), _exact_or_cap(op, da, db)
            if isinstance(want, int):
                assert got == want
            else:
                results.append((got, want))
        deg = rng.randint(0, 12)
        monic = [rng.randrange(p**40) for _ in range(deg)] + [1]
        pn = rng.randint(1, 30)
        quot, rem = divide_distinguished(a, IwasawaSeries.make(p, pn, monic))
        results += zip((quot, rem),
                       da.divide(monic, min(a.precision, pn)))
        try:
            w = weierstrass_prepare(a, margin=0)
        except (ZeroSeriesError, PrecisionExhaustedError):
            pass
        else:
            results += zip((w.distinguished, w.unit), da.prepare(
                w.lambda_, w.mu, w.distinguished.coeffs))
        for got, want in results:
            assert _trimmed_ok(got)
            assert want.matches(got), (got, want.window)

    def test_degree_reads_the_length(self):
        f = IwasawaSeries.make(3, 2, [1, 9, 0, 18, 9], 10)
        assert (f.coeffs, f.degree(), f.degree_cap) == ((1,), 0, 10)
        assert IwasawaSeries.zero(3, 2, 10).coeffs == ()
        assert IwasawaSeries.zero(3, 2, 10).degree() is None

    def test_positional_cap_defaults_to_the_given_length(self):
        f = IwasawaSeries(3, 24, (1, 2, 0, 0))
        assert (f.coeffs, f.degree_cap) == ((1, 2), 3)
        assert f == IwasawaSeries.make(3, 24, [1, 2], 3)
        with pytest.raises(DegreeOverflowError):
            IwasawaSeries(3, 24, (1, 2, 3), 1)


def _schoolbook(a, b, limit, q):
    """Oracle for _conv: the first limit coefficients of a*b mod q."""
    out = [0] * limit
    for i, x in enumerate(a[:limit]):
        for j, y in enumerate(b[:limit - i]):
            out[i + j] += x * y
    return [c % q for c in out]


def _inverse_recurrence(u, q, length):
    """Oracle for _series_inv: the O(length^2) coefficient recurrence."""
    v0 = pow(u[0] % q, -1, q)
    out = [v0] + [0] * (length - 1)
    for k in range(1, length):
        s = sum(u[j] * out[k - j] for j in range(1, min(k, len(u) - 1) + 1))
        out[k] = (-v0 * s) % q
    return out


def _operand(rng, p, n, length):
    """length coefficients below p^n, some zero, then 0-5 trailing zeros;
    one in eight operands is all zero."""
    if rng.random() < 0.125:
        return [0] * length
    out = [rng.randrange(p**n) if rng.random() < 0.8 else 0 for _ in range(length)]
    return out + [0] * rng.randint(0, 5)


# 3^40 < 2^64 < 3^41, 5^27 < 2^64 < 5^28, 7^22 < 2^64 < 7^23
WIDE = [(3, 40, 41), (5, 27, 28), (7, 22, 23)]


@st.composite
def exact_cases(draw):
    """(a, ca, b, cb, n, cap): a series a at p in {3, 5, 7} drawn from the
    integers ca, and b a series, an int or a PadicInt drawn from the
    integers cb; n is the result precision, with p^n on both sides of 2^64,
    and cap the smaller cap, an int or PadicInt b taking a's.  Caps and
    degrees fall on both sides of each other, some operands are zero, and
    some coefficients are multiples of p^n, so a result can end below the
    top of its exact degree."""
    p, low, high = draw(st.sampled_from(WIDE))
    n = draw(st.sampled_from([low, high]) | st.integers(1, 60))
    q = p**n

    def coeffs(precision, count):
        return draw(st.lists(st.integers(0, p**precision - 1)
                             | st.sampled_from([0, q, 2 * q]),
                             min_size=count, max_size=count))

    def series():
        precision = n + draw(st.integers(0, 3))
        cap = draw(st.integers(0, 40))
        cs = coeffs(precision, draw(st.integers(0, cap + 1)))
        return IwasawaSeries.make(p, precision, cs, cap), cs

    a, ca = series()
    kind = draw(st.sampled_from(["series", "int", "padic"]))
    if kind == "series":
        b, cb = series()
    elif kind == "int":
        cb = [draw(st.integers(-2 * q, 2 * q) | st.sampled_from([0, q]))]
        b = cb[0]
    else:
        cb = coeffs(n, 1)
        b = PadicInt(p, cb[0], n + draw(st.integers(0, 3)))
    precisions = [a.precision] + ([b.precision] if kind != "int" else [])
    caps = [a.degree_cap] + ([b.degree_cap] if kind == "series" else [])
    return a, ca, b, cb, min(precisions), min(caps)


class TestExactOrRefused:
    """A sum, difference or product is the exact integer result mod p^N,
    trimmed, at the smaller cap, or DegreeOverflowError with required_cap
    its degree; ``_mul_mod_cap`` alone cuts a product to cap + 1 terms."""

    @settings(max_examples=400, deadline=None)
    @given(case=exact_cases())
    @example(case=(S([1, 1], cap=3), [1, 1], S([1, 0, 0, 1], cap=3),
                   [1, 0, 0, 1], 24, 3))
    def test_operators_are_exact_or_refused(self, case):
        a, ca, b, cb, n, cap = case
        q = a.prime**n
        oracles = {add: ip_add, sub: lambda x, y: ip_add(x, ip_neg(y)),
                   mul: ip_mul}
        for op, oracle in oracles.items():
            for (x, cx), (y, cy) in (((a, ca), (b, cb)), ((b, cb), (a, ca))):
                want = dense_trim(c % q for c in oracle(cx, cy))
                got = _exact_or_cap(op, x, y)
                if len(want) - 1 > cap:
                    assert got == len(want) - 1, (op, x, y)
                else:
                    assert (got.prime, got.precision, got.degree_cap,
                            got.coeffs) == (a.prime, n, cap, want), (op, x, y)
        if isinstance(b, IwasawaSeries):
            got = _mul_mod_cap(a, b)
            assert (got.precision, got.degree_cap, got.coeffs) == (
                n, cap, dense_trim(c % q for c in ip_mul(ca, cb)[:cap + 1]))


class TestProductKernel:
    @settings(max_examples=120, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), na=st.integers(1, 60),
           nb=st.integers(1, 60), seed=st.integers(0, 10**9))
    @example(p=3, na=40, nb=41, seed=1)
    @example(p=5, na=28, nb=27, seed=2)
    @example(p=7, na=23, nb=22, seed=3)
    def test_conv_matches_schoolbook(self, p, na, nb, seed):
        # operands keep their own precisions: the result modulus is the
        # smaller one, so the wider operand's coefficients exceed it
        rng = random.Random(seed)
        a = _operand(rng, p, na, rng.randint(0, 300))
        b = _operand(rng, p, nb, rng.randint(0, 300))
        q = p ** min(na, nb)
        full = len(a) + len(b) - 1
        for limit in (0, 1, rng.randint(0, max(full, 0)), max(full, 0),
                      full + rng.randint(1, 20)):
            assert _conv(a, b, limit, q) == _schoolbook(a, b, limit, q)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 60),
           extra=st.integers(1, 40), seed=st.integers(0, 10**9))
    def test_mul_at_different_precisions(self, p, n, extra, seed):
        # at a common cap with room for the product, it is exact at the
        # lower precision both ways round; at b's own cap it is refused with
        # the cap it needs unless it fits
        rng = random.Random(seed)
        cap_a, cap_b = rng.randint(0, 300), rng.randint(0, 300)
        ca = [rng.randrange(p ** (n + extra)) for _ in range(cap_a + 1)]
        cb = [rng.randrange(p**n) for _ in range(cap_b + 1)]
        room = cap_a + cap_b
        a = IwasawaSeries.make(p, n + extra, ca, room)
        b = IwasawaSeries.make(p, n, cb, room)
        want = dense_trim(_schoolbook(ca, cb, room + 1, p**n))
        for prod in (a * b, b * a):
            assert (prod.precision, prod.degree_cap) == (n, room)
            assert prod.coeffs == want
        tight = IwasawaSeries.make(p, n, cb, cap_b)
        for x, y in ((a, tight), (tight, a)):
            got = _exact_or_cap(mul, x, y)
            if len(want) - 1 > cap_b:
                assert got == len(want) - 1
            else:
                assert (got.degree_cap, got.coeffs) == (cap_b, want)

    @pytest.mark.parametrize("p,low,high", WIDE)
    def test_conv_around_two_to_the_64(self, p, low, high):
        rng = random.Random(p)
        for n in (low, high):
            q = p**n
            a = [q - 1 - rng.randrange(p) for _ in range(257)]
            b = [q - 1 for _ in range(190)]
            assert _conv(a, b, 500, q) == _schoolbook(a, b, 500, q)

    def test_zero_operands(self):
        assert _conv([], [1, 2], 3, 27) == [0, 0, 0]
        assert _conv([0, 0, 0], [5] * 40, 4, 27) == [0, 0, 0, 0]
        assert _conv([1, 2], [3], 0, 27) == []

    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 60),
           seed=st.integers(0, 10**9))
    def test_series_inv(self, p, n, seed):
        rng = random.Random(seed)
        q = p**n
        u = [rng.randrange(q) for _ in range(rng.randint(1, 300))]
        if u[0] % p == 0:
            u[0] += 1
        length = rng.randint(1, 300)
        v = _series_inv(u, q, p, length)
        assert v == _inverse_recurrence(u, q, length)
        assert _schoolbook(u, v, length, q) == [1] + [0] * (length - 1)

    def test_series_inv_rejects_non_unit(self):
        from iwkit import InputError

        with pytest.raises(InputError):
            _series_inv([3, 1], 3**10, 3, 5)


class TestSlotReducer:
    """``_slot_reducer`` against its stated contract, at the stated input
    maximum terms (4q - 1)(q - 1) in every slot and at random slots."""

    @pytest.mark.parametrize("slots,message", [
        # 11-byte slots: 11 * 2^60 bytes is above sys.maxsize, 11 * 2^59
        # below it but beyond any 64-bit address space
        (2**60, "exceed sys.maxsize"), (2**59, "cannot be laid out")])
    def test_refuses_masks_no_int_can_hold(self, slots, message):
        with pytest.raises(InputError, match=message):
            _slot_reducer(3**24, 2, slots)

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 60),
           terms=st.integers(1, 5000), slots=st.integers(1, 12),
           seed=st.integers(0, 10**9))
    @example(p=3, n=1, terms=5000, slots=4, seed=0)
    @example(p=5, n=2, terms=1, slots=1, seed=1)
    @example(p=7, n=60, terms=5000, slots=12, seed=2)
    def test_congruent_bounded_and_in_place(self, p, n, terms, slots, seed):
        q = p**n
        sb, reduce = _slot_reducer(q, terms, slots)
        width = 8 * sb
        top = terms * (_SLOT_BOUND * q - 1) * (q - 1)
        assert top >> width == 0
        rng = random.Random(seed)
        occupied = rng.randint(1, slots)
        cases = [[top] * slots, [top] * occupied,
                 [rng.randint(0, top) for _ in range(slots)],
                 [rng.choice((0, q - 1, q, top - 1, top))
                  for _ in range(occupied)],
                 # a real sum of products of reduced operands
                 [sum(rng.randrange(_SLOT_BOUND * q) * rng.randrange(q)
                      for _ in range(min(terms, 50)))
                  for _ in range(occupied)]]
        for ins in cases:
            out = reduce(_pack(ins, sb))
            assert out >= 0
            # nothing lands above the last input slot
            assert out >> (width * len(ins)) == 0
            got = [(out >> (width * i)) & ((1 << width) - 1)
                   for i in range(len(ins))]
            for x, y in zip(ins, got):
                assert y < _SLOT_BOUND * q
                assert (x - y) % q == 0


def _unpack_reference(x, n, sb, q):
    """Oracle for _unpack: slot k of x is bits 8 sb k .. 8 sb (k + 1) - 1."""
    mask = (1 << (8 * sb)) - 1
    return [(x >> (8 * sb * k) & mask) % q for k in range(n)]


class TestUnpack:
    """``_unpack`` by byte planes against slot-by-slot shifts and masks:
    values of one, two and three 64-bit words, with and without a value
    width, slots live above n (as ``_conv`` passes them) and fewer live
    slots than n."""

    @settings(max_examples=200, deadline=None)
    @given(sb=st.integers(1, 24),
           width=st.one_of(st.none(), st.integers(1, 24)),
           p=st.sampled_from([3, 5, 7]), e=st.integers(1, 40),
           n=st.integers(0, 40), live=st.integers(0, 50),
           seed=st.integers(0, 10**9))
    @example(sb=8, width=None, p=3, e=24, n=30, live=30, seed=1)
    @example(sb=12, width=6, p=3, e=24, n=30, live=30, seed=2)
    @example(sb=15, width=None, p=3, e=35, n=30, live=40, seed=3)
    @example(sb=30, width=15, p=7, e=40, n=20, live=20, seed=4)
    @example(sb=24, width=None, p=7, e=40, n=20, live=10, seed=5)
    def test_matches_slot_by_slot(self, sb, width, p, e, n, live, seed):
        q = p**e
        width = None if width is None else min(width, sb)
        rng = random.Random(seed)
        top = (1 << (8 * (width or sb))) - 1
        slots = [min(rng.choice((0, 1, q - 1, q, top, rng.randrange(top + 1))),
                     top)
                 for _ in range(live)]
        x = _pack(slots, sb)
        want = _unpack_reference(x, n, sb, q)
        assert _unpack(x, n, sb, q, width) == want
        assert _unpack(x.to_bytes(max(n * sb, (x.bit_length() + 7) // 8),
                                  "little"), n, sb, q, width) == want

    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_plane_offsets_place_bytes_in_word_order(self, byteorder):
        # a 16-byte value laid out by the offsets reads back as itself
        # through two 64-bit words of that byte order, low word first
        value = int.from_bytes(bytes(range(1, 17)), "little")
        words = bytearray(16)
        for j, at in enumerate(_plane_offsets(byteorder)):
            words[at] = (value >> (8 * j)) & 0xFF
        lo, hi = (int.from_bytes(words[k:k + 8], byteorder) for k in (0, 8))
        assert hi << 64 | lo == value
        assert _plane_offsets(sys.byteorder) == _PLANE_OFFSETS


def _fixed_point_prepare(f, margin=4):
    """Oracle for weierstrass_prepare: the classical fixed-point division of
    X^lambda by f / p^mu on series cut at X^D, up to N - mu + 2 rounds of
    two full-width products; the unit is the inverse of the quotient."""
    lam, mu = lambda_mu(f, margin=margin)
    n2 = f.precision - mu
    q2, pmu = f.prime**n2, f.prime**mu
    fb = [(c // pmu) % q2 for c in f.coeffs]
    cap = f.degree_cap
    tail_len = cap - lam + 1
    b_inv = _series_inv(fb[lam:], q2, f.prime, tail_len)
    res = [0] * (cap + 1)
    res[lam] = 1
    q_acc = [0] * tail_len
    for _ in range(n2 + 2):
        tau = res[lam:]
        if not any(tau):
            break
        qi = _conv(tau, b_inv, tail_len, q2)
        q_acc = [(a + b) % q2 for a, b in zip(q_acc, qi)]
        delta = _conv(qi, fb, cap + 1, q2)
        res = [(a - b) % q2 for a, b in zip(res, delta)]
    else:
        raise AssertionError("fixed-point division did not converge")
    dist = [-c % q2 for c in res[:lam]] + [1]
    unit = _series_inv(q_acc, q2, f.prime, tail_len)
    return WeierstrassFactorization(mu, lam, IwasawaSeries(f.prime, n2, tuple(dist)),
                                   IwasawaSeries(f.prime, n2, tuple(unit)))


def _digit_lift(fb, lam, p, n):
    """Oracle for the distinguished part of a polynomial fb: the linear
    Hensel lift one p-adic digit at a time.  If fb = p^k r mod P, then
    P + p^k (r * (fb / X^lam)^-1 mod (p, X^lam)) divides fb mod p^(k+1)."""
    q = p**n
    dist, pk = [0] * lam + [1], p
    inv = _series_inv(fb[lam:], p, p, lam) if lam else []
    while lam and pk < q:
        _, rem = _poly_divmod_monic(fb, dist, q)
        if not any(rem):
            break
        step = _conv([c // pk for c in rem], inv, lam, p)
        dist = [(c + pk * x) % q for c, x in zip(dist, step + [0])]
        pk *= p
    return dist


@st.composite
def prep_cases(draw):
    """f = p^mu * fb at precision N, cap D, fb of valuation 0 with lambda
    below, at or above (D + 1) / (N - mu + 2): a polynomial of degree d that
    fills the window (d = D, as a series cut at X^D) or leaves zeros above.
    lambda, the degree of the lift's products mod P, runs from 0 to 80, on
    both sides of _MULMOD_SCHOOLBOOK_MAX and of _BLOCKED_MIN."""
    p = draw(st.sampled_from([3, 5, 7]))
    mu = draw(st.integers(0, 3))
    N = mu + draw(st.integers(5, 24))
    D = draw(st.integers(0, 80))
    n2 = N - mu
    bound = (D + 1) // (n2 + 2)
    lam = draw(st.one_of(st.integers(0, min(bound, D)), st.integers(0, D)))
    d = draw(st.integers(lam, D)) if draw(st.booleans()) else D
    seed = draw(st.integers(0, 10**9))
    rng = random.Random(seed)
    q2 = p**n2
    fb = [p * rng.randrange(q2) % q2 for _ in range(lam)]
    fb.append(rng.randrange(1, p) + p * rng.randrange(q2) % q2)
    fb += [rng.randrange(q2) for _ in range(d - lam)]
    # digits above p^N - mu are free: the series holds f mod p^N only
    f = IwasawaSeries.make(p, N, [c * p**mu for c in fb], D)
    return f, fb, lam, mu, n2


@st.composite
def lift_cases(draw, n2s, lams):
    """A polynomial fb of valuation 0 with n2 from n2s, lambda from lams and
    degree D >= 4 lambda, so from lambda = _BLOCKED_MIN on every division of
    the lift runs in blocks."""
    p = draw(st.sampled_from([3, 5, 7]))
    n2 = draw(n2s)
    lam = draw(lams)
    D = draw(st.integers(4 * lam, 4 * lam + 40))
    rng = random.Random(draw(st.integers(0, 10**9)))
    q2 = p**n2
    fb = [p * rng.randrange(q2) % q2 for _ in range(lam)]
    fb.append(rng.randrange(1, p) + p * rng.randrange(q2) % q2)
    fb += [rng.randrange(q2) for _ in range(D - lam)]
    return fb, lam, p, n2


class TestHenselLift:
    """The quadratic Hensel lift against the fixed-point division it
    replaces and the digit-at-a-time lift of polynomials."""

    @settings(max_examples=400, deadline=None)
    @given(case=prep_cases())
    def test_matches_fixed_point_division(self, case):
        f, _, lam, mu, n2 = case
        p, D = f.prime, f.degree_cap
        w, old = weierstrass_prepare(f), _fixed_point_prepare(f)
        assert (w.mu, w.lambda_) == (old.mu, old.lambda_) == (mu, lam)
        assert w.precision == old.precision == n2
        assert w.unit.degree_cap == old.unit.degree_cap == D - lam
        # the polynomial factors exactly: no digit is lost up to D - 4
        assert reconstruction_residual_valuation(
            f, w, up_to_degree=max(D - 4, 0)) == f.precision
        if lam * (n2 + 2) <= D + 1:
            # every digit the cut at X^D leaves is determined: bit for bit
            assert w.distinguished.coeffs == old.distinguished.coeffs
            assert w.unit.coeffs[0] == old.unit.coeffs[0]
            # the fixed-point unit is a series cut at X^(D - lambda): P times
            # it is exact only up to that degree
            window = max(min(D - 4, D - lam), 0)
            assert reconstruction_residual_valuation(f, w, up_to_degree=window) \
                == reconstruction_residual_valuation(f, old, up_to_degree=window)
        else:
            # the series' unknown terms above X^D reach P's digits from
            # p^floor((D + 1) / lambda) and U_j's from p^floor((D - j) / lambda)
            k = min(n2, (D + 1) // lam)
            assert w.distinguished.congruent(old.distinguished, mod_exp=k)
            for j, (a, b) in enumerate(zip_longest(
                    w.unit.coeffs, old.unit.coeffs, fillvalue=0)):
                assert (a - b) % p ** min(n2, (D - j) // lam) == 0

    @settings(max_examples=300, deadline=None)
    @given(case=prep_cases())
    def test_polynomial_factors_exactly(self, case):
        f, fb, lam, mu, n2 = case
        p = f.prime
        q2 = p**n2
        dist = _hensel_lift(fb, lam, p, n2)
        assert len(dist) == lam + 1 and dist[lam] == 1
        assert all(c % p == 0 for c in dist[:lam])
        assert dist == _digit_lift(fb, lam, p, n2)
        w = weierstrass_prepare(f)
        assert list(w.distinguished.coeffs) == dist
        assert ip_trim(ip_reduce_mod(ip_mul(dist, list(w.unit.coeffs)), q2)) \
            == ip_trim(ip_reduce_mod(fb, q2))

    @settings(max_examples=25, deadline=None)
    @given(case=lift_cases(st.integers(1, 16),
                           st.integers(_BLOCKED_MIN, 3 * _BLOCKED_MIN)))
    def test_blocked_lift_matches_digit_lift(self, case):
        fb, lam, p, n2 = case
        q2 = p**n2
        dist = _hensel_lift(fb, lam, p, n2)
        assert dist == _digit_lift(fb, lam, p, n2)
        # the unit is the quotient by P, divided in blocks too
        w = weierstrass_prepare(IwasawaSeries.make(p, n2, fb), margin=0)
        assert list(w.distinguished.coeffs) == dist
        assert ip_trim(ip_reduce_mod(ip_mul(dist, list(w.unit.coeffs)), q2)) \
            == ip_trim(ip_reduce_mod(fb, q2))

    # the precisions below weierstrass_prepare's default margin: the last
    # step skips its Newton update at n2 = 3 and keeps it at n2 = 2 and 4
    @settings(max_examples=100, deadline=None)
    @given(case=lift_cases(st.integers(1, 4), st.one_of(
        st.integers(0, 2 * _MULMOD_SCHOOLBOOK_MAX),
        st.integers(0, 2 * _BLOCKED_MIN))))
    # fb of degree lambda: P is fb rescaled by its unit fb[lambda]
    @example(case=([3, 6, 0, 4], 3, 3, 4))
    @example(case=([7], 0, 5, 3))
    def test_short_lift_matches_digit_lift(self, case):
        fb, lam, p, n2 = case
        assert _hensel_lift(fb, lam, p, n2) == _digit_lift(fb, lam, p, n2)

    # degrees on both sides of _MULMOD_SCHOOLBOOK_MAX and of _BLOCKED_MIN
    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 45),
           deg=st.one_of(st.integers(0, 2 * _MULMOD_SCHOOLBOOK_MAX),
                         st.integers(0, 96)),
           length=st.one_of(st.integers(1, 60), st.integers(1, 800)),
           seed=st.integers(0, 10**9))
    @example(p=3, n=41, deg=96, length=800, seed=1)  # q above 2^64
    @example(p=7, n=3, deg=40, length=20, seed=2)    # dividend below divisor
    def test_long_division(self, p, n, deg, length, seed):
        """Rows and blocks against exact integer division: negative and
        unreduced coefficients, a divisor leading 1 + q k with a top term
        that is 0 mod q above it, a dividend whose top term is 0 mod q."""
        rng = random.Random(seed)
        q = p**n
        f = [rng.randrange(-q, 2 * q) for _ in range(length)]
        if rng.random() < 0.3:
            f[-1] = q * rng.randint(-2, 2)
        g = [rng.randrange(-q, 2 * q) for _ in range(deg)]
        g.append(1 + q * rng.randint(-1, 1))
        if rng.random() < 0.3:
            g.append(q * rng.randint(-2, 2))
        monic = [c % q for c in g[:deg + 1]]
        quot, rem = _poly_divmod_monic(f, g, q)
        want_q, want_r = ip_divmod(f, g[:deg] + [1])
        assert ip_trim(ip_reduce_mod(quot, q)) == ip_trim(ip_reduce_mod(want_q, q))
        assert ip_trim(ip_reduce_mod(rem, q)) == ip_trim(ip_reduce_mod(want_r, q))
        # the reciprocal may come from any multiple of q
        inv = _series_inv(monic[::-1], q * p ** rng.randint(0, 2), p, deg)
        assert _poly_divmod_monic(f, g, q, inv) == (quot, rem)


class TestMulmod:
    """a * b mod (P, q) against exact integer division of the exact
    product, on both sides of every crossover (_SCHOOLBOOK_MAX,
    _MULMOD_SCHOOLBOOK_MAX, _BLOCKED_MIN), rows and blocks."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 45),
           d=st.one_of(st.integers(1, 2 * _MULMOD_SCHOOLBOOK_MAX),
                       st.integers(1, 40)),
           seed=st.integers(0, 10**9))
    @example(p=3, n=41, d=_SCHOOLBOOK_MAX, seed=1)           # q above 2^64
    @example(p=3, n=40, d=_MULMOD_SCHOOLBOOK_MAX, seed=2)    # q below 2^64
    @example(p=3, n=41, d=_MULMOD_SCHOOLBOOK_MAX + 1, seed=3)
    @example(p=7, n=24, d=_BLOCKED_MIN, seed=4)
    def test_matches_exact_product(self, p, n, d, seed):
        rng = random.Random(seed)
        q = p**n

        def operand():
            # at most d terms, often all d, >= 0, some unreduced,
            # sometimes all zero
            if rng.random() < 0.1:
                return [0] * rng.randint(0, d)
            top = q if rng.random() < 0.7 else p * q
            size = d if rng.random() < 0.6 else rng.randint(1, d)
            return [rng.randrange(top) for _ in range(size)]

        a, b = operand(), operand()
        low = [rng.randrange(q) for _ in range(d)]
        if rng.random() < 0.5:
            # unreduced modulus: low terms above q, leading 1 + q k
            low = [c + q * rng.randint(0, 3) for c in low]
            modulus = low + [1 + q * rng.randint(0, 2)]
        else:
            modulus = low + [1]
        _, want = ip_divmod(ip_mul(a, b) or [0], low + [1])
        want = ip_reduce_mod(want, q) + [0] * d
        assert _mulmod(a, b, modulus, q) == want[:d]
        # the reciprocal of the reduced modulus, at q or a multiple of it
        inv = _series_inv([1] + [c % q for c in low[::-1]],
                          q * p ** rng.randint(0, 2), p, d)
        assert _mulmod(a, b, modulus, q, inv) == want[:d]

"""Evaluation in Z_p[X]/(Phi_m(1+X), p^N) against exact-integer oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwkit import IwasawaSeries, cyclo_eval, cyclotomic, omega, phi

from conftest import (dense_trim, ip_add, ip_divmod, ip_mul, ip_phi,
                      ip_reduce_mod)


def oracle_eval(coeffs, p, m, q):
    """Reduce exact integer coefficients mod Phi_m with plain integers."""
    _, rem = ip_divmod(list(coeffs), ip_phi(p, m))
    return ip_reduce_mod(rem, q)


class TestCycloEval:
    def test_defining_relation(self):
        for m in (1, 2, 3):
            f = phi(m, prime=3, precision=24, degree_cap=60)
            assert cyclo_eval(f, m).is_zero()

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(5) for m in range(5)])
    def test_omega_vanishing_pattern(self, n, m):
        """omega_n(zeta_{p^m} - 1) = zeta^{p^n} - 1 is zero iff m <= n."""
        f = omega(n, prime=3, precision=24, degree_cap=85)
        ev = cyclo_eval(f, m)
        assert ev.is_zero() == (m <= n)

    @pytest.mark.parametrize("c,m", [(c, m) for c in range(5) for m in range(5)
                                     if c != m])
    def test_phi_nonvanishing_off_level_matches_oracle(self, c, m):
        p, prec = 3, 24
        q = p**prec
        f = phi(c, prime=p, precision=prec, degree_cap=85)
        ev = cyclo_eval(f, m)
        want = oracle_eval(ip_phi(p, c), p, m, q)
        got = list(ev.coeffs)
        assert got[:len(want)] == want
        assert all(x == 0 for x in got[len(want):])
        assert not ev.is_zero()

    def test_level0_is_evaluation_at_zero(self):
        f = IwasawaSeries.make(3, 24, [7, 1, 4], 10)
        ev = cyclo_eval(f, 0)
        assert ev.coeffs == (7,)

    @pytest.mark.parametrize("p,m,length", [(3, 2, 6), (3, 4, 54),
                                            (5, 3, 100), (7, 2, 30)])
    def test_low_degree_input_builds_no_phi(self, monkeypatch, p, m, length):
        # at most deg Phi_m coefficients are their own residue: Phi_m is
        # never built
        def refuse(*args):
            raise AssertionError("Phi_m built for an input below its degree")

        monkeypatch.setattr(cyclotomic, "phi_int_coeffs", refuse)
        q = p**24
        coeffs = [(7 * i * i + 3) % q for i in range(length)]
        ev = cyclo_eval(IwasawaSeries.make(p, 24, coeffs), m)
        want = oracle_eval(coeffs, p, m, q)
        assert list(ev.coeffs) == want + [0] * (len(ev.coeffs) - len(want))

    def test_level_far_above_a_short_input_builds_no_phi(self, monkeypatch):
        # deg Phi_30 = 2 * 3^29, about 1.4 * 10^14 at p = 3: the residue of
        # a short polynomial is the polynomial itself, with no zero tail
        # and no Phi_30 built
        def refuse(*args):
            raise AssertionError("Phi_30 built for a short input")

        monkeypatch.setattr(cyclotomic, "phi_int_coeffs", refuse)
        f = IwasawaSeries.make(3, 24, [5, 0, 3**23, 7])
        ev = cyclo_eval(f, 30)
        assert ev.level == 30 and len(ev.coeffs) <= len(f.coeffs)
        assert ev.coeffs == f.coeffs and ev.min_valuation() == 0

    def test_truncation_warning_flag(self):
        # window ends below deg Phi_2 = 6 with a live top coefficient
        f = IwasawaSeries.make(3, 24, [1, 1, 1], 2)
        assert cyclo_eval(f, 2).truncation_warning
        padded = IwasawaSeries.make(3, 24, [1, 1, 1], 10)
        assert not cyclo_eval(padded, 2).truncation_warning

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(0, 3),
        a=st.lists(st.integers(0, 3**10), min_size=1, max_size=8),
        b=st.lists(st.integers(0, 3**10), min_size=1, max_size=8),
    )
    def test_ring_homomorphism(self, m, a, b):
        # the sum and the product (degree <= 14, below the cap) evaluate to
        # the residues of the exact integer sum and product
        cap, q = 20, 3**24
        f = IwasawaSeries.make(3, 24, a, cap)
        g = IwasawaSeries.make(3, 24, b, cap)
        for got, exact in ((f + g, ip_add(a, b)), (f * g, ip_mul(a, b))):
            assert dense_trim(cyclo_eval(got, m).coeffs) == dense_trim(
                oracle_eval(exact, 3, m, q))

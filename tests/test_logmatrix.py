"""The logarithmic matrix tower: products, minors, characters, base change."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwkit import (
    DegreeOverflowError,
    FrobeniusData,
    InputError,
    IwasawaSeries,
    PrecisionExhaustedError,
    c_n,
    change_basis_check,
    condition_character,
    cyclo_eval,
    h_n,
    index_sets,
    m_n,
    minors,
    phi,
)
from iwkit import padic
from iwkit.logmatrix import WedgeTower, _compound, _series_det
from iwkit.padic import mat_det, padic_matrix
from iwkit.series import deg_phi

from conftest import (c_phi, dense_trim, int_det, ip_character, ip_divmod,
                      ip_phi, ip_reduce_mod, ip_row_minors, ip_trim,
                      lm_identity, lm_power)

P, N = 3, 24


def elliptic():
    return FrobeniusData.elliptic(P, N)


def rand_gl(g, p, n, rng):
    """Random element of GL_{2g}(Z_p) mod p^n (rejection on the determinant)."""
    q = p**n
    while True:
        rows = [[rng.randrange(q) for _ in range(2 * g)] for _ in range(2 * g)]
        m = padic_matrix(p, n, rows)
        if mat_det(m).is_unit():
            return rows


def rand_anti_diagonal(g, p, n, rng):
    q = p**n
    while True:
        rows = [[0] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            for j in range(g):
                rows[i][g + j] = rng.randrange(q)
                rows[g + i][j] = rng.randrange(q)
        m = padic_matrix(p, n, rows)
        if mat_det(m).is_unit():
            return rows


def const(x, cap=8):
    return IwasawaSeries.constant(x, P, N, cap)


class TestFrobeniusData:
    def test_elliptic_is_anti_diagonal(self):
        assert elliptic().block_anti_diagonal()

    def test_non_invertible_rejected(self):
        with pytest.raises(InputError, match=r"^C_p must be invertible over "
                           r"Z_p \(unit determinant\)$"):
            FrobeniusData.from_int_rows(1, P, N, [[0, -1], [3, 0]])

    def test_one_elimination_per_matrix(self, monkeypatch):
        """Construction eliminates C_p once, for the refusal and the inverse
        alike; the towers built on the matrix eliminate it no more."""
        calls = []
        snf = padic._snf_core

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return snf(*args, **kwargs)

        monkeypatch.setattr(padic, "_snf_core", counted)
        rng = random.Random(11)
        for g in (1, 2, 3):
            rows = rand_gl(g, P, 6, rng)
            calls.clear()
            frob = FrobeniusData.from_int_rows(g, P, 6, rows)
            h_n(frob, 2)
            minors(frob, 2)
            assert frob._inverse_residues
            assert calls == [2 * g]

    def test_identity_not_anti_diagonal(self):
        f = FrobeniusData.from_int_rows(1, P, N, [[1, 0], [0, 1]])
        assert not f.block_anti_diagonal()


class TestCphi:
    def test_elliptic_example(self):
        m = c_phi(elliptic())
        assert m.denom_exponent == 1
        assert m.entry(0, 0).is_zero()
        assert m.entry(0, 1).congruent(const(-1))
        assert m.entry(1, 0).congruent(const(3))
        assert m.entry(1, 1).is_zero()

    def test_identity_frobenius(self):
        f = FrobeniusData.from_int_rows(1, P, N, [[1, 0], [0, 1]])
        m = c_phi(f)
        assert m.denom_exponent == 1
        assert m.entry(0, 0).congruent(const(3))
        assert m.entry(1, 1).congruent(const(1))

    def test_det_multiplicativity(self):
        rng = random.Random(5)
        for g in (1, 2):
            f = FrobeniusData.from_int_rows(g, P, N, rand_gl(g, P, N, rng))
            d, denom = c_phi(f).det()
            cp_det = mat_det(f.c_p_lists())
            assert denom == g
            assert d.coeffs[0] == cp_det.residue % d.q
            # det(C_phi) = det(C_p) * p^{-g}


class TestCn:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elliptic_hand_product(self, n):
        m = c_n(elliptic(), n)
        assert m.denom_exponent == 0
        cap = m.entry(0, 0).degree_cap
        phin = phi(n, prime=P, precision=N, degree_cap=cap)
        assert m.entry(0, 0).is_zero()
        assert m.entry(0, 1).congruent(const(1, cap))
        assert m.entry(1, 0).congruent(-phin)
        assert m.entry(1, 1).is_zero()

    def test_identity_frobenius_diag(self):
        f = FrobeniusData.from_int_rows(1, P, N, [[1, 0], [0, 1]])
        m = c_n(f, 2)
        cap = m.entry(0, 0).degree_cap
        assert m.entry(0, 0).congruent(const(1, cap))
        assert m.entry(1, 1).congruent(phi(2, prime=P, precision=N, degree_cap=cap))

    def test_det_formula(self):
        rng = random.Random(9)
        for g in (1, 2):
            f = FrobeniusData.from_int_rows(g, P, N, rand_gl(g, P, N, rng))
            n = 1
            d, denom = c_n(f, n).det()
            assert denom == 0
            cap = d.degree_cap
            want = phi(n, prime=P, precision=N, degree_cap=cap)
            for _ in range(g - 1):
                want = want * phi(n, prime=P, precision=N, degree_cap=cap)
            want = want * mat_det(f.c_p_lists()).inverse()
            assert d.congruent(want)

    @pytest.mark.parametrize("g", [1, 2])
    def test_bottom_right_block_dies_at_own_level(self, g):
        rng = random.Random(13)
        f = FrobeniusData.from_int_rows(g, P, N, rand_gl(g, P, N, rng))
        for n in (1, 2):
            m = c_n(f, n)
            for i in range(g, 2 * g):
                for j in range(g, 2 * g):
                    assert cyclo_eval(m.entry(i, j), n).is_zero()


class TestHn:
    def test_h0_identity(self):
        h = h_n(elliptic(), 0)
        assert h.entry(0, 0).congruent(const(1, h.entry(0, 0).degree_cap))
        assert h.entry(0, 1).is_zero()

    def test_h1_is_c1(self):
        h1 = h_n(elliptic(), 1)
        c1 = c_n(elliptic(), 1, degree_cap=h1.entry(0, 0).degree_cap)
        assert h1.congruent(c1)

    def test_h2_diagonal(self):
        h = h_n(elliptic(), 2)
        cap = h.entry(0, 0).degree_cap
        assert h.entry(0, 0).congruent(-phi(1, prime=P, precision=N, degree_cap=cap))
        assert h.entry(1, 1).congruent(-phi(2, prime=P, precision=N, degree_cap=cap))
        assert h.entry(0, 1).is_zero() and h.entry(1, 0).is_zero()

    def test_h3_anti_diagonal(self):
        h = h_n(elliptic(), 3)
        assert h.entry(0, 0).is_zero() and h.entry(1, 1).is_zero()

    def test_h4_diagonal_products(self):
        h = h_n(elliptic(), 4)
        cap = h.entry(0, 0).degree_cap

        def pp(*ks):
            out = phi(ks[0], prime=P, precision=N, degree_cap=cap)
            for k in ks[1:]:
                out = out * phi(k, prime=P, precision=N, degree_cap=cap)
            return out

        assert h.entry(0, 0).congruent(pp(1, 3))
        assert h.entry(1, 1).congruent(pp(2, 4))
        assert h.entry(0, 1).is_zero() and h.entry(1, 0).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_telescoping(self, n):
        cap = P**4 + 8
        lhs = h_n(elliptic(), n, degree_cap=cap)
        rhs = c_n(elliptic(), n, degree_cap=cap).matmul(
            h_n(elliptic(), n - 1, degree_cap=cap))
        assert lhs.congruent(rhs)

    def test_det_formula_g2_random(self):
        rng = random.Random(21)
        f = FrobeniusData.from_int_rows(2, P, N, rand_gl(2, P, N, rng))
        n, cap = 2, 40
        d, denom = h_n(f, n, degree_cap=cap).det()
        assert denom == 0
        want = const(1, cap)
        for k in (1, 2):
            pk = phi(k, prime=P, precision=N, degree_cap=cap)
            want = want * pk * pk
        inv_det = mat_det(f.c_p_lists()).inverse()
        want = want * (inv_det * inv_det)
        assert d.congruent(want)

    def test_rank_drop_at_own_level(self):
        """Every bottom-right entry of C_n dies at level n, so H_n evaluated
        at its own level has vanishing determinant."""
        for n in (1, 2):
            h = h_n(elliptic(), n)
            det, _ = h.det()
            assert cyclo_eval(det, n).is_zero()


class TestMn:
    def test_elliptic_n1(self):
        m = m_n(elliptic(), 1)
        assert m.denom_exponent == 1
        cap = m.entry(0, 0).degree_cap
        assert m.entry(0, 0).is_zero()
        assert m.entry(0, 1).congruent(const(-1, cap))
        assert m.entry(1, 0).congruent(phi(1, prime=P, precision=N, degree_cap=cap))
        assert m.entry(1, 1).is_zero()

    def test_identity_n1(self):
        f = FrobeniusData.from_int_rows(1, P, N, [[1, 0], [0, 1]])
        m = m_n(f, 1)
        assert m.denom_exponent == 2
        cap = m.entry(0, 0).degree_cap
        assert m.entry(0, 0).congruent(const(9, cap))
        assert m.entry(1, 1).congruent(phi(1, prime=P, precision=N, degree_cap=cap))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_denominator_growth_bound(self, n):
        assert m_n(elliptic(), n).denom_exponent <= n + 1

    @settings(max_examples=60, deadline=None)
    @given(g=st.sampled_from([1, 2]), p=st.sampled_from([3, 5, 7]),
           n=st.integers(1, 3), prec=st.sampled_from([1, 2, 3, 6, 10, 24]),
           extra=st.one_of(st.none(), st.integers(0, 30)),
           seed=st.integers(0, 10**9))
    @example(g=1, p=3, n=3, prec=2, extra=None, seed=0)
    @example(g=2, p=7, n=2, prec=24, extra=3, seed=1)
    def test_kernel_matches_the_c_phi_chain(self, g, p, n, prec, extra, seed):
        """m_n from H_n and A^{n+1} gives the values, precisions and
        denominator of the chain C_phi^{n+1} H_n of LogMatrix products,
        and refuses exactly where the chain does: where the product is
        0 mod p^N and cannot be normalized.  The chain raises InputError
        there, m_n PrecisionExhaustedError."""
        rng = random.Random(seed)
        frob = FrobeniusData.from_int_rows(g, p, prec,
                                           rand_gl(g, p, prec, rng))
        default = p**n + 8
        cap = None if extra is None else deg_phi(p, n) + extra
        try:
            want = lm_power(c_phi(frob, degree_cap=cap or default),
                            n + 1).matmul(h_n(frob, n, degree_cap=cap or default))
        except InputError:
            with pytest.raises(PrecisionExhaustedError):
                m_n(frob, n, degree_cap=cap)
            return
        # LogMatrix equality: every entry's coefficients and precision,
        # and the denominator exponent
        assert m_n(frob, n, degree_cap=cap) == want

    def test_product_zero_mod_p_n_refused_like_the_chain(self):
        # elliptic: A^2 = -p I, so A^4 H_3 = 0 mod 3^2; the chain's
        # normalization refuses the division, m_n names the shortfall
        frob = FrobeniusData.elliptic(3, 2)
        with pytest.raises(InputError):
            lm_power(c_phi(frob, degree_cap=35), 4).matmul(h_n(frob, 3))
        with pytest.raises(PrecisionExhaustedError,
                           match=r"M_3 at level 3 .* precision N = 2"):
            m_n(frob, 3)


class TestCompound:
    """``_compound`` (every r x r minor of an integer matrix mod q, by the
    indexed Laplace recurrence) against exact Leibniz determinants."""

    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(1, 3), p=st.sampled_from([3, 5, 7]),
           prec=st.integers(1, 41), seed=st.integers(0, 10**9))
    @example(g=3, p=3, prec=24, seed=0)
    @example(g=3, p=7, prec=1, seed=1)
    def test_every_r_minor_is_the_determinant(self, g, p, prec, seed):
        rng = random.Random(seed)
        q = p**prec
        d = 2 * g
        # any square matrix: zero rows and columns, units or not
        a = [[rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(d)]
             for _ in range(d)]
        for r in range(1, d + 1):
            subsets = list(combinations(range(d), r))
            want = [[int_det([[a[i][j] for j in cols] for i in rows]) % q
                     for cols in subsets] for rows in subsets]
            assert _compound(a, r, q) == want, r


class TestMinors:
    def test_g1_minors_are_entries(self):
        table = minors(elliptic(), 2)
        h = h_n(elliptic(), 2, degree_cap=table.minor((1,), (1,)).degree_cap)
        for i in (1, 2):
            for j in (1, 2):
                assert table.minor((i,), (j,)).congruent(h.entry(i - 1, j - 1))

    def test_elliptic_values(self):
        table = minors(elliptic(), 2)
        cap = table.minor((1,), (1,)).degree_cap
        assert table.minor((1,), (1,)).congruent(
            -phi(1, prime=P, precision=N, degree_cap=cap))
        assert table.minor((1,), (2,)).is_zero()

    def test_generalized_laplace_g2(self):
        """det H = sum_J eps(I, J) * minor(I, J) * minor(I^c, J^c)."""
        rng = random.Random(33)
        f = FrobeniusData.from_int_rows(2, P, N, rand_gl(2, P, N, rng))
        n, cap = 1, 30
        table = minors(f, n, degree_cap=cap)
        h = h_n(f, n, degree_cap=cap)
        det, _ = h.det()
        full = set(range(1, 5))
        i_set = (1, 2)
        acc = None
        for j_set in index_sets(2):
            jc = tuple(sorted(full - set(j_set)))
            ic = (3, 4)
            sign = (-1) ** (sum(i_set) + sum(j_set))
            term = table.minor(i_set, j_set) * table.minor(ic, jc)
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
        assert acc.congruent(det)


def oracle_h(frob, n, cap):
    """H_n as the product C_n ... C_1 of 2g x 2g series matrices."""
    out = lm_identity(2 * frob.g, frob.prime, frob.precision, cap)
    for k in range(1, n + 1):
        out = c_n(frob, k, degree_cap=cap).matmul(out)
    return out


def oracle_minor(h, rows, cols):
    """The (rows, cols)-minor of H_n by Laplace expansion of its entries."""
    return _series_det([[h.entry(i - 1, j - 1) for j in cols] for i in rows])


# g, p, n over g <= 3, p <= 7, n <= 3; precision varies with the case
KERNEL_CASES = [(g, p, n) for g in (1, 2, 3) for p in (3, 5, 7)
                for n in (1, 2, 3)]


def kernel_frobenius(g, p, n):
    rng = random.Random(1000 * g + 10 * p + n)
    prec = (5, 24, 40)[(g + p + n) % 3]
    return FrobeniusData.from_int_rows(g, p, prec, rand_gl(g, p, prec, rng))


class TestCauchyBinetKernel:
    """h_n, minors and condition_character against the C_n chain and
    Laplace minors they replaced."""

    @pytest.mark.parametrize("g,p,n", KERNEL_CASES)
    def test_minor_table_matches_laplace(self, g, p, n):
        frob = kernel_frobenius(g, p, n)
        sets = index_sets(g)
        if g < 3:
            pairs = [(i, j) for i in sets for j in sets]
        else:
            # the Laplace oracle is slow at g = 3: every row and every
            # column of the 20 x 20 table once, at a seeded partner
            rng = random.Random(g * p * n)
            pairs = ([(i, rng.choice(sets)) for i in sets]
                     + [(rng.choice(sets), j) for j in sets])
        default = g * p**n + 8
        # below the minors' degree bound g (p^n - 1) unless that is deg Phi_n
        truncating = (deg_phi(p, n) + g * (p**n - 1)) // 2
        for cap in (default, truncating):
            h = oracle_h(frob, n, cap)
            table = (minors(frob, n) if cap == default
                     else minors(frob, n, degree_cap=cap))
            assert table.precision == frob.precision
            assert len(table.values) == len(sets) ** 2
            for i_set, j_set in pairs:
                got = table.minor(i_set, j_set)
                assert got.degree_cap == cap
                assert got == oracle_minor(h, i_set, j_set), (cap, i_set, j_set)

    @pytest.mark.parametrize("g,p,n", KERNEL_CASES)
    def test_h_n_matches_chain(self, g, p, n):
        frob = kernel_frobenius(g, p, n)
        assert h_n(frob, n) == oracle_h(frob, n, p**n + 8)
        # caps below p^n - 1, down to deg Phi_n, the least cap C_n fits in
        for cap in sorted({deg_phi(p, n), p**n - 2}):
            if cap >= deg_phi(p, n):
                assert h_n(frob, n, degree_cap=cap) == oracle_h(frob, n, cap)

    @pytest.mark.parametrize("g,p,n", KERNEL_CASES)
    def test_character_is_the_full_table_sum(self, g, p, n):
        frob = kernel_frobenius(g, p, n)
        rng = random.Random(7 * g + p + n)
        q, prec = p**frob.precision, frob.precision
        cap = g * p**n + 8
        cols = [IwasawaSeries.make(p, prec, [rng.randrange(q) for _ in
                                             range(rng.randint(1, 9))], cap)
                for _ in index_sets(g)]
        h = oracle_h(frob, n, cap)
        i0 = tuple(range(1, g + 1))
        acc = None
        for j_set, col in zip(index_sets(g), cols):
            term = oracle_minor(h, i0, j_set) * col
            acc = term if acc is None else acc + term
        for theta in range(n + 1):
            val = cyclo_eval(acc, theta).min_valuation()
            if prec - 4 <= val < prec:
                with pytest.raises(PrecisionExhaustedError):
                    condition_character(frob, n, cols, theta)
            else:
                assert condition_character(frob, n, cols, theta) == (
                    val < prec, val)

    # N = 1 and 2, where the slot reduction runs the most passes, and
    # p^N = 3^41 above 2^64
    @pytest.mark.parametrize("g,p,n,prec", [
        (1, 3, 3, 1), (2, 3, 2, 1), (3, 3, 1, 1), (1, 7, 2, 2), (2, 5, 2, 2),
        (3, 3, 2, 2), (1, 3, 3, 41), (2, 3, 2, 41), (3, 3, 2, 41)])
    def test_extreme_precisions_truncating_caps_and_first_row(self, g, p, n,
                                                               prec):
        rng = random.Random(100 * g + 10 * p + n + prec)
        frob = FrobeniusData.from_int_rows(g, p, prec,
                                           rand_gl(g, p, prec, rng))
        sets = index_sets(g)
        default = g * p**n + 8
        truncating = max(deg_phi(p, n), (deg_phi(p, n) + g * (p**n - 1)) // 2)
        for cap in (default, truncating, deg_phi(p, n)):
            h = oracle_h(frob, n, cap)
            want = [[oracle_minor(h, i, j) for j in sets] for i in sets]
            assert WedgeTower(frob).power(g, n, cap) == want
            assert h_n(frob, n, degree_cap=cap) == h
            if cap == default:
                # past level n every Phi_k stays itself: the character row
                # is the power's first row, exact below the default cap
                row = WedgeTower(frob).character_row(n, n + 1)
                assert [dense_trim(e) for e in row] == [
                    e.coeffs for e in want[0]]

    @pytest.mark.parametrize("cap", [1, deg_phi(3, 2) - 1])
    def test_cap_below_phi_n_overflows_like_the_chain(self, cap):
        # the chain names the first Phi_k that does not fit, Phi_1 at cap 1
        frob = kernel_frobenius(2, 3, 2)
        with pytest.raises(DegreeOverflowError) as chain:
            oracle_h(frob, 2, cap)
        for call in (lambda: h_n(frob, 2, degree_cap=cap),
                     lambda: minors(frob, 2, degree_cap=cap)):
            with pytest.raises(DegreeOverflowError) as got:
                call()
            assert str(got.value) == str(chain.value)
            assert got.value.required_cap == chain.value.required_cap


class TestWedgeTower:
    """One WedgeTower shared by h_n and minors gives what each gives alone,
    in any order and at any cap."""

    @pytest.mark.parametrize("g,p,n", [(1, 3, 3), (1, 5, 2), (2, 3, 2),
                                       (2, 7, 1), (3, 3, 2)])
    def test_shared_equals_alone(self, g, p, n):
        frob = kernel_frobenius(g, p, n)
        caps = (None, deg_phi(p, n))
        for order in ((minors, h_n), (h_n, minors)):
            tower = WedgeTower(frob)
            for cap in caps:
                for fn in order:
                    assert (fn(frob, n, degree_cap=cap, tower=tower)
                            == fn(frob, n, degree_cap=cap)), (fn, cap)

    @pytest.mark.parametrize("g,p", [(2, 3), (2, 7), (3, 3), (3, 5)])
    def test_level_zero_is_the_identity(self, g, p):
        # the empty word: no W^T start, no Phi_k at all
        frob = kernel_frobenius(g, p, 1)
        m = len(index_sets(g))
        for cap in (0, 5):
            one = IwasawaSeries.constant(1, p, frob.precision, cap)
            zero = IwasawaSeries.zero(p, frob.precision, cap)
            want = [[one if i == j else zero for j in range(m)]
                    for i in range(m)]
            assert WedgeTower(frob).power(g, 0, cap) == want

    def test_tower_of_another_frobenius_refused(self):
        tower = WedgeTower(kernel_frobenius(1, 3, 2))
        with pytest.raises(InputError):
            h_n(elliptic(), 2, tower=tower)


class TestConditionCharacter:
    def test_zero_columns(self):
        cols = [IwasawaSeries.zero(P, N, 8) for _ in range(2)]
        nonzero, val = condition_character(elliptic(), 2, cols)
        assert not nonzero
        assert val == N

    def test_unit_columns_nonzero(self):
        cols = [const(1, 30), const(1, 30)]
        nonzero, val = condition_character(elliptic(), 2, cols, 2)
        assert nonzero and val == 0

    def test_phi2_column_dies_at_level2(self):
        cap = 30
        cols = [phi(2, prime=P, precision=N, degree_cap=cap),
                IwasawaSeries.zero(P, N, cap)]
        nonzero, val = condition_character(elliptic(), 2, cols, 2)
        assert not nonzero
        assert val == N

    def test_default_theta_level_is_n(self):
        cols = [const(1, 30), const(1, 30)]
        assert condition_character(elliptic(), 2, cols) == \
            condition_character(elliptic(), 2, cols, 2)

    def test_mapping_input(self):
        cols = {(1,): const(1, 30), (2,): const(1, 30)}
        nonzero, _ = condition_character(elliptic(), 2, cols, 2)
        assert nonzero

    def test_margin_band_raises(self):
        # the sum survives only with valuation N - 2, inside the margin band
        cols = [const(3 ** (N - 2), 30), IwasawaSeries.zero(P, N, 30)]
        with pytest.raises(PrecisionExhaustedError):
            condition_character(elliptic(), 2, cols, 2, margin=4)

    def test_short_column_windows_are_exact(self):
        # at n = 5 the minors reach degree 242: column values 1 at cap 9
        # must not cut the products at X^9
        one = const(1, 9)
        for theta in (2, 4):
            assert condition_character(elliptic(), 5, [one, one],
                                       theta) == (False, N)

    def test_least_precision_rules(self):
        # row I0 of H_2 is (-Phi_1, 0): 27 Phi_1 survives mod 3^24, but the
        # second column is known only mod 3^2, and so is the sum
        cols = [const(27), IwasawaSeries.constant(1, P, 2, 8)]
        assert condition_character(elliptic(), 2, cols, 2, margin=0) == (
            False, 2)
        assert condition_character(elliptic(), 2, cols[:1] + [const(1)], 2,
                                   margin=0) == (True, 3)

    def test_foreign_column_refused(self):
        cols = [const(1), IwasawaSeries.constant(1, 5, N, 8)]
        with pytest.raises(InputError):
            condition_character(elliptic(), 2, cols)

    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(1, 3), p=st.sampled_from([3, 5, 7]),
           prec=st.sampled_from([1, 2, 8, 24, 41]),
           seed=st.integers(0, 10**9))
    @example(g=3, p=3, prec=41, seed=0)
    @example(g=1, p=7, prec=1, seed=1)
    def test_equals_the_exact_oracle(self, g, p, prec, seed):
        """The ring path against exact integer polynomials, with column
        values of any window from their own degree up (not padded to the
        minors' degree), at every level from 0 to n + 1."""
        rng = random.Random(seed)
        n = rng.randint(1, 3 if p == 3 else 2)
        theta = rng.randint(0, n + 1)
        rows = rand_gl(g, p, prec, rng)
        col_prec = rng.choice((prec, rng.randint(1, prec)))
        coeffs = [[rng.randrange(p**prec) for _ in range(rng.randint(1, 9))]
                  for _ in index_sets(g)]
        cols = [IwasawaSeries.make(p, col_prec, c,
                                   len(c) - 1 + rng.randint(0, 12))
                for c in coeffs]
        frob = FrobeniusData.from_int_rows(g, p, prec, rows)
        assert condition_character(frob, n, cols, theta, margin=0) == (
            ip_character(rows, g, p, prec, n, coeffs, theta, col_prec))
        # the pushed row itself, residue by residue mod (Phi_theta, p^N)
        phi_t = ip_phi(p, theta)

        def residue(a):
            return ip_trim(ip_reduce_mod(ip_divmod(a, phi_t)[1], p**prec))

        assert [residue(e) for e in WedgeTower(frob).character_row(
            n, theta)] == [residue(m) for m in ip_row_minors(
                rows, g, p, prec, n)]


class TestChangeBasis:
    def test_identity_blocks(self):
        one = padic_matrix(P, N, [[1]])
        v = [IwasawaSeries.zero(P, N, 8), const(5, 8)]
        assert change_basis_check(elliptic(), one, one, [v])

    def test_unit_scaling_preserves_vanishing(self):
        b11 = padic_matrix(P, N, [[2]])
        b22 = padic_matrix(P, N, [[7]])
        v = [IwasawaSeries.zero(P, N, 8), const(4, 8)]
        assert change_basis_check(elliptic(), b11, b22, [v])

    def test_requires_anti_diagonal(self):
        f = FrobeniusData.from_int_rows(1, P, N, [[1, 0], [0, 1]])
        one = padic_matrix(P, N, [[1]])
        with pytest.raises(InputError):
            change_basis_check(f, one, one, [])

    def test_non_invertible_block_rejected(self):
        bad = padic_matrix(P, N, [[3]])
        one = padic_matrix(P, N, [[1]])
        with pytest.raises(InputError):
            change_basis_check(elliptic(), bad, one, [])

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_random_blocks_and_patterns(self, g):
        rng = random.Random(100 + g)
        frob = FrobeniusData.from_int_rows(g, P, N, rand_anti_diagonal(g, P, N, rng))
        q = P**N
        for _ in range(10):
            b11 = rand_gl_block(g, rng)
            b22 = rand_gl_block(g, rng)
            vecs = []
            for _ in range(3):
                first_zero = rng.random() < 0.5
                last_zero = rng.random() < 0.5
                vec = []
                for i in range(2 * g):
                    zero = first_zero if i < g else last_zero
                    vec.append(IwasawaSeries.zero(P, N, 8) if zero
                               else const(1 + P * rng.randrange(q // P), 8))
                vecs.append(vec)
            assert change_basis_check(frob, b11, b22, vecs)


def rand_gl_block(g, rng):
    q = P**N
    while True:
        rows = [[rng.randrange(q) for _ in range(g)] for _ in range(g)]
        m = padic_matrix(P, N, rows)
        if mat_det(m).is_unit():
            return m

"""Z/p^N arithmetic, Smith normal form and module invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwkit import (
    InputError,
    PadicInt,
    PrecisionExhaustedError,
    module_invariants,
    snf,
)
from iwkit.padic import _snf_core, mat_det, mat_inv, mat_mul, padic_matrix

from conftest import ip_divmod, ip_mul, ip_phi, ip_omega


def P(x, prime=3, n=8):
    return PadicInt(prime, x, n)


class TestPadicInt:
    def test_reduction_and_valuation(self):
        x = P(3**8 + 9)
        assert x.residue == 9
        assert x.valuation() == 2
        assert P(0).valuation() == 8

    def test_precision_is_min_of_operands(self):
        a = PadicInt(3, 5, 10)
        b = PadicInt(3, 7, 6)
        assert (a + b).precision == 6
        assert (a * b).precision == 6
        assert (a - b).precision == 6

    def test_unit_inverse(self):
        a = P(7)
        assert (a * a.inverse()).residue == 1
        assert (a / a).residue == 1
        with pytest.raises(InputError):
            P(3).inverse()

    def test_exact_div_drops_precision(self):
        a = P(18)
        b = a.exact_div_p_power(2)
        assert b.residue == 2 and b.precision == 6
        with pytest.raises(InputError):
            P(1).exact_div_p_power(1)

    def test_mixed_primes_rejected(self):
        with pytest.raises(InputError):
            P(1, 3) + P(1, 5)

    def test_int_interop(self):
        assert (P(2) + 1).residue == 3
        assert (1 - P(2)).residue == 3**8 - 1

    def test_congruent_to_a_non_integer_refused(self):
        assert PadicInt(3, 1, 5).congruent(3**5 + 1)
        with pytest.raises(InputError):
            PadicInt(3, 1, 5).congruent(1.5)

    def test_congruent_below_exponent_zero_refused(self):
        assert PadicInt(3, 1, 5).congruent(2, mod_exp=0)
        assert not PadicInt(3, 1, 5).congruent(2, mod_exp=1)
        with pytest.raises(InputError, match="mod_exp"):
            PadicInt(3, 1, 5).congruent(2, mod_exp=-1)


def scrambled(diag, p, n, size, seed):
    """diag(entries) multiplied by random unimodular integer matrices, reduced
    mod p^n.  The oracle for its elementary divisors is the diagonal itself."""
    rng = random.Random(seed)
    q = p**n
    a = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]

    def lower():
        m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(i):
                m[i][j] = rng.randrange(-4, 5)
        return m

    def upper():
        m = lower()
        return [[m[j][i] for j in range(size)] for i in range(size)]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)]

    for _ in range(3):
        a = mul(lower(), mul(a, upper()))
    return [[v % q for v in row] for row in a]


class TestSnf:
    def test_single_p(self):
        res = snf(padic_matrix(3, 5, [[3]]))
        assert res.elementary_exponents == (1,)
        assert res.transform_valid

    def test_identity(self):
        res = snf(padic_matrix(3, 8, [[1, 0], [0, 1]]))
        assert res.elementary_exponents == (0, 0)

    def test_scrambled_diagonal(self):
        rows = scrambled([3, 9], 3, 8, 2, seed=123)
        res = snf(padic_matrix(3, 8, rows))
        assert res.elementary_exponents == (1, 2)
        assert res.transform_valid

    def test_rectangular_padding(self):
        # [[0],[p]] presents Z_p (+) Z/p
        res = snf(padic_matrix(3, 8, [[0], [3]]))
        assert res.elementary_exponents == (1, 8)
        assert res.rank_indicators == 1

    def test_mixed_precision_rejected(self):
        with pytest.raises(InputError):
            snf([[PadicInt(3, 1, 8), PadicInt(3, 1, 9)]])

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from([3, 5]),
        size=st.integers(1, 8),
        seed=st.integers(0, 10**6),
    )
    def test_unimodular_invariance(self, p, size, seed):
        """Exponents must not change under invertible row/column operations."""
        rng = random.Random(seed)
        n = 8
        q = p**n

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(size)) % q
                     for j in range(size)] for i in range(size)]

        base = [[rng.randrange(q) for _ in range(size)] for _ in range(size)]
        res1 = snf(padic_matrix(p, n, base))
        u = scrambled([1] * size, p, n, size, seed + 1)  # unimodular
        v = scrambled([1] * size, p, n, size, seed + 2)
        res2 = snf(padic_matrix(p, n, mul(u, mul(base, v))))
        assert res1.elementary_exponents == res2.elementary_exponents


def int_matmul(x, y, q=None):
    """x * y over Z, each entry reduced mod q when q is given."""
    out = [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in x]
    return out if q is None else [[v % q for v in row] for row in out]


# the largest N with p^N below 2^55, where the kernel once switched from
# int64 to object arithmetic
INT64_EDGE = {3: 34, 5: 23, 7: 19}


@st.composite
def hidden_diagonals(draw):
    """(p, N, rows, exponents): diag(unit * p^e) of shape d1 x d2 hidden
    between unimodular matrices from `scrambled`; the exponents it presents
    (N for e >= N and for the rows past the diagonal) are the oracle."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.sampled_from([1, 2, 6, INT64_EDGE[p], INT64_EDGE[p] + 1, 40]))
    d1, d2 = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    es = draw(st.lists(st.integers(0, n + 1), min_size=min(d1, d2),
                       max_size=min(d1, d2)))
    units = draw(st.lists(st.integers(1, p**2).filter(lambda x: x % p),
                          min_size=len(es), max_size=len(es)))
    seed = draw(st.integers(0, 10**6))
    u = scrambled([1] * d1, p, n, d1, seed)
    v = scrambled([1] * d2, p, n, d2, seed + 1)
    q = p**n
    rows = [[sum(u[i][t] * units[t] * p**es[t] * v[t][j] for t in range(len(es)))
             % q for j in range(d2)] for i in range(d1)]
    want = sorted(min(e, n) for e in es) + [n] * (d1 - len(es))
    return p, n, rows, want


class TestSnfCore:
    @settings(max_examples=150, deadline=None)
    @given(case=hidden_diagonals())
    def test_against_hidden_diagonal(self, case):
        p, n, rows, want = case
        assert _snf_core(rows, p, n, track=False)[0] == want
        exps, _, (u, v) = _snf_core(rows, p, n, track=True)
        assert exps == want
        # the tracked transforms verify: U * A * V = diag(p^e) mod p^N
        q = p**n
        uav = int_matmul(int_matmul(u, rows), v, q)
        assert uav == [[p**e % q if i == j else 0 for j in range(len(rows[0]))]
                       for i, e in enumerate(want)]


class TestModuleInvariants:
    def test_zp_plus_zmodp(self):
        assert module_invariants(padic_matrix(3, 8, [[0], [3]])) == (1, 1)

    def test_zero_matrix_is_free(self):
        zero = padic_matrix(3, 8, [[0] * 3 for _ in range(3)])
        assert module_invariants(zero) == (3, 0)

    def test_empty_presentation(self):
        assert module_invariants([]) == (0, 0)

    def test_phi1_mod_omega2_by_exact_integers(self):
        """Multiplication by Phi_1 on Z[X]/omega_2, built with exact integers,
        presents a free module of rank deg Phi_1 = 2."""
        p, n = 3, 24
        q = p**n
        w2 = ip_omega(p, 2)
        phi1 = ip_phi(p, 1)
        size = p**2
        cols = []
        for j in range(size):
            _, rem = ip_divmod(ip_mul(phi1, [0] * j + [1]), w2)
            rem = rem + [0] * (size - len(rem))
            cols.append([c % q for c in rem])
        rows = [[cols[j][i] for j in range(size)] for i in range(size)]
        assert module_invariants(padic_matrix(p, n, rows)) == (2, 0)

    def test_margin_triggers_precision_error(self):
        with pytest.raises(PrecisionExhaustedError):
            module_invariants(padic_matrix(3, 8, [[3**6]]), margin=4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), p=st.sampled_from([3, 5]))
    def test_block_diagonal_additivity(self, seed, p):
        rng = random.Random(seed)
        n = 10
        q = p**n

        def small(size):
            return [[rng.choice([0, 1, p, p * p, rng.randrange(q)])
                     for _ in range(size)] for _ in range(size)]

        s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
        a, b = small(s1), small(s2)
        block = [[0] * (s1 + s2) for _ in range(s1 + s2)]
        for i in range(s1):
            for j in range(s1):
                block[i][j] = a[i][j]
        for i in range(s2):
            for j in range(s2):
                block[s1 + i][s1 + j] = b[i][j]
        try:
            fa, la = module_invariants(padic_matrix(p, n, a))
            fb, lb = module_invariants(padic_matrix(p, n, b))
            fc, lc = module_invariants(padic_matrix(p, n, block))
        except PrecisionExhaustedError:
            return
        assert (fc, lc) == (fa + fb, la + lb)


class TestMatrixHelpers:
    def test_inverse_and_product(self):
        m = padic_matrix(3, 10, [[2, 1], [1, 1]])
        inv = mat_inv(m)
        prod = mat_mul(m, inv)
        assert [[x.residue for x in row] for row in prod] == [[1, 0], [0, 1]]

    def test_non_invertible_rejected(self):
        with pytest.raises(InputError):
            mat_inv(padic_matrix(3, 10, [[3, 0], [0, 1]]))


def bareiss_det(rows):
    """Exact determinant over Z by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# the largest N with p^N below 2^64, and the one after it
WORD_EDGE = {3: 40, 5: 27, 7: 22, 11: 18}


@st.composite
def square_integer_matrices(draw):
    """(p, N, rows): a square integer matrix of size 1..6 whose entries are
    0, u * p^k (k up to N + 1) or any integer in [-p^N, 2 p^N), sometimes
    with a zero row."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n = draw(st.sampled_from([1, 2, 5, WORD_EDGE[p], WORD_EDGE[p] + 1]))
    size = draw(st.integers(1, 6))
    q = p**n
    anything = st.integers(-q, 2 * q - 1)
    entry = st.one_of(
        st.just(0),
        st.builds(lambda u, k: u * p**k, st.integers(-p, p).filter(bool),
                  st.integers(0, n + 1)),
        anything, anything)
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if size > 1 and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, size - 1))] = [0] * size
    return p, n, rows


class TestDetInv:
    @settings(max_examples=300, deadline=None)
    @given(case=square_integer_matrices())
    def test_against_exact_integers(self, case):
        p, n, rows = case
        q = p**n
        det = bareiss_det(rows) % q
        m = padic_matrix(p, n, rows)
        got = mat_det(m)
        assert (got.residue, got.precision) == (det, n)
        if det % p:
            inv = [[x.residue for x in row] for row in mat_inv(m)]
            assert int_matmul(inv, rows, q) == [
                [int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        else:
            with pytest.raises(InputError, match="not invertible mod p"):
                mat_inv(m)

    def test_square_matrix_required(self):
        m = padic_matrix(3, 4, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InputError, match="determinant needs a square"):
            mat_det(m)
        with pytest.raises(InputError, match="inverse needs a square"):
            mat_inv(m)

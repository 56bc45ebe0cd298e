"""Shared test oracles: exact integer polynomial arithmetic.

These helpers deliberately avoid the package's own series code so that
[DERIVED] expectations come from an independent computational path: plain
Python integers, dense lists, schoolbook algorithms.  The exception is the
LogMatrix chain (``c_phi``, ``lm_power``, ``lm_identity``): products of the
package's own series matrices, the computation that ``m_n`` and the
Cauchy-Binet kernel replaced, kept as their oracle; and
``transition_coker_oracle``, which runs the package's Smith form on the
explicit matrix of the tower transition pi_n.
"""

from itertools import combinations, permutations
from math import comb, prod

import pytest


def ip_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def ip_add(a, b):
    n = max(len(a), len(b))
    return ip_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def ip_neg(a):
    return [-x for x in a]


def ip_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ip_trim(out)


def ip_divmod(a, b):
    """Exact division by a monic integer polynomial."""
    assert b[-1] == 1, "oracle divisor must be monic"
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [0], ip_trim(rem)
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        t = rem[k]
        if t == 0:
            continue
        quot[k - db] = t
        for i in range(db + 1):
            rem[k - db + i] -= t * b[i]
    return ip_trim(quot), ip_trim(rem[:db] or [0])


def ip_pow_1plusx(k):
    return [comb(k, i) for i in range(k + 1)]


def ip_omega(p, n):
    out = ip_pow_1plusx(p**n)
    out[0] -= 1
    return ip_trim(out)


def ip_phi(p, n):
    """((1+X)^{p^n} - 1) / ((1+X)^{p^{n-1}} - 1), by exact division; X for n=0."""
    if n == 0:
        return [0, 1]
    num = ip_omega(p, n)
    den = ip_omega(p, n - 1)
    lead = den[-1]
    assert lead == 1
    quot, rem = ip_divmod(num, den)
    assert rem == [0]
    return quot


def dense_trim(window):
    """A coefficient list without its trailing zeros, as a tuple (empty for
    the zero polynomial): how ``IwasawaSeries.coeffs`` stores a value."""
    cs = list(window)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class DenseWindow:
    """Oracle for truncated series stored as a zero-padded window: the
    cap + 1 coefficients of degrees 0..cap mod p^precision, every operation
    computed over the whole window by schoolbook loops and ``ip_divmod``."""

    def __init__(self, p, precision, window):
        self.p, self.precision = p, precision
        self.window = [c % p**precision for c in window]

    @classmethod
    def of(cls, p, precision, coeffs, cap=None):
        cap = len(coeffs) - 1 if cap is None else cap
        assert len(coeffs) <= cap + 1
        return cls(p, precision, list(coeffs) + [0] * (cap + 1 - len(coeffs)))

    @property
    def cap(self):
        return len(self.window) - 1

    def matches(self, s):
        """Whether the series s holds this window's value: the same prime,
        precision and cap, and the window's coefficients trimmed."""
        return (s.prime, s.precision, s.degree_cap, s.coeffs) == (
            self.p, self.precision, self.cap, dense_trim(self.window))

    def _common(self, other):
        assert other.p == self.p
        return min(self.precision, other.precision), min(self.cap, other.cap)

    def __add__(self, other):
        n, cap = self._common(other)
        return DenseWindow(self.p, n, [self.window[i] + other.window[i]
                                       for i in range(cap + 1)])

    def __neg__(self):
        return DenseWindow(self.p, self.precision, [-c for c in self.window])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        n, cap = self._common(other)
        out = [0] * (cap + 1)
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                out[i + j] += self.window[i] * other.window[j]
        return DenseWindow(self.p, n, out)

    def mul_p_power(self, k):
        return DenseWindow(self.p, self.precision + k,
                           [c * self.p**k for c in self.window])

    def exact_div_p_power(self, k):
        assert all(c % self.p**k == 0 for c in self.window)
        return DenseWindow(self.p, self.precision - k,
                           [c // self.p**k for c in self.window])

    def divide(self, monic, precision):
        """(quotient, remainder) of the window by a monic integer polynomial
        at the given precision: the quotient's window at cap - deg P, the
        remainder's at min(cap, deg P - 1), neither below cap 0."""
        deg = len(monic) - 1
        quot, rem = ip_divmod(self.window, monic)
        return (DenseWindow.of(self.p, precision, ip_trim(quot),
                               max(self.cap - deg, 0)),
                DenseWindow.of(self.p, precision, ip_trim(rem),
                               min(self.cap, max(deg - 1, 0))))

    def prepare(self, lam, mu, dist):
        """(distinguished, unit) windows of the Weierstrass preparation
        f = p^mu * P * U with P = ``dist``, checked to be the distinguished
        polynomial (unique for a polynomial f): monic of degree lambda, its
        lower terms divisible by p, dividing the window of f / p^mu exactly
        mod p^(N - mu).  U is the quotient, in a window of cap - lambda."""
        p, n2 = self.p, self.precision - mu
        assert len(dist) == lam + 1 and dist[lam] == 1
        assert all(c % p == 0 for c in dist[:lam])
        quot, rem = ip_divmod([c // p**mu for c in self.window], list(dist))
        assert all(c % p**n2 == 0 for c in rem)
        return (DenseWindow(p, n2, dist),
                DenseWindow.of(p, n2, quot, self.cap - lam))


def int_det(rows):
    """Exact determinant of a square integer matrix by the Leibniz sum over
    all permutations, each signed by its inversion count; 1 for 0 x 0."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1)**inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def ip_reduce_mod(a, q):
    return [x % q for x in a]


def ip_det(rows):
    """Exact determinant of a square matrix of integer polynomials by the
    Leibniz sum, like ``int_det``."""
    n = len(rows)
    total = [0]
    for perm in permutations(range(n)):
        term = [1]
        for i in range(n):
            term = ip_mul(term, rows[i][perm[i]])
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = ip_add(total, ip_neg(term) if inversions % 2 else term)
    return total


def ip_row_minors(c_p, g, p, prec, n):
    """Row I0 = {1..g} of wedge^g H_n mod p^prec, as exact integer
    polynomials: C_p^{-1} = adj(C_p) / det(C_p) mod p^prec,
    H_n = C_n ... C_1 with C_k = diag(I_g, Phi_k I_g) C_p^{-1}, and the
    minors by Leibniz sums, the column sets in lexicographic order."""
    q, d = p**prec, 2 * g
    unit = pow(int_det(c_p), -1, q)
    inv = [[(-1)**(i + j) * unit * int_det(
                [r[:i] + r[i + 1:] for k, r in enumerate(c_p) if k != j]) % q
            for j in range(d)] for i in range(d)]
    h = [[[int(i == j)] for j in range(d)] for i in range(d)]
    for k in range(1, n + 1):
        phik = ip_phi(p, k)
        nxt = []
        for i in range(d):
            row = []
            for j in range(d):
                e = [0]
                for t in range(d):
                    e = ip_add(e, [inv[i][t] * c for c in h[t][j]])
                if i >= g:
                    e = ip_mul(phik, e)
                row.append(ip_trim(ip_reduce_mod(e, q)))
            nxt.append(row)
        h = nxt
    return [ip_trim(ip_reduce_mod(
                ip_det([[h[i][j] for j in col_set] for i in range(g)]), q))
            for col_set in combinations(range(d), g)]


def ip_character(c_p, g, p, prec, n, cols, theta, col_prec=None):
    """(nonzero, min valuation) of sum_J H_{I0,J,n} col_J mod
    (Phi_theta(1+X), p^N), N the least of ``prec`` and ``col_prec``: the
    minors of ``ip_row_minors`` times the columns, one division by
    Phi_theta."""
    acc = [0]
    for minor, col in zip(ip_row_minors(c_p, g, p, prec, n), cols):
        acc = ip_add(acc, ip_mul(minor, col))
    # below deg Phi_theta the sum is its own remainder: Phi_theta is built
    # only to divide
    deg = 1 if theta == 0 else p**theta - p**(theta - 1)
    _, rem = ([0], acc) if len(acc) <= deg else ip_divmod(acc, ip_phi(p, theta))
    top = min(prec, prec if col_prec is None else col_prec)
    vals = [_valuation(c % p**top, p) for c in rem if c % p**top]
    return bool(vals), min(vals, default=top)


def transition_coker_oracle(engine, n):
    """Length of coker(pi_n : N/omega_n -> N/omega_{n-1}) for a tower engine
    (``iwkit.modules._TowerEngine``), None when it is not finite: the Smith
    form of the explicit matrix of pi_n beside each summand's level n-1
    relations, each summand's exponents raised by its shift a.

    Where level n-1 is presented on Z_p[X]/(B) (pad > 0), pi_n maps level-n
    generators onto its generators one to one, so the matrix is
    [I | p^a * presentation], empty when lambda = 0.  Otherwise it is
    [reduction | p^a * presentation], column j of the reduction being
    X^j mod omega_{n-1}, j < p^n, from ``ip_divmod``."""
    from iwkit.modules import _layer_presentation, _presented_invariants

    p, precision = engine.prime, engine.precision
    q = p**precision
    total, red = 0, None
    for summand in engine.summands:
        a = summand[0]
        prev, pad = _layer_presentation(summand, n - 1)
        prev = [[x * p**a for x in row] for row in prev]
        if pad:
            rows = [[int(i == j) for j in range(len(prev))] + row
                    for i, row in enumerate(prev)]
        else:
            if red is None:
                omega = ip_omega(p, n - 1)
                cols = [ip_divmod([0] * j + [1], omega)[1]
                        for j in range(p**n)]
                red = [[c[i] % q if i < len(c) else 0 for c in cols]
                       for i in range(len(omega) - 1)]
            rows = [r + b for r, b in zip(red, prev)]
        free, length = _presented_invariants((rows, 0), p, precision,
                                             engine.margin)
        if free:
            return None
        total += length
    return total


def lm_identity(size, prime, precision, cap):
    """The size x size identity as a LogMatrix of constant series."""
    from iwkit import IwasawaSeries, LogMatrix

    one = IwasawaSeries.constant(1, prime, precision, cap)
    zero = IwasawaSeries.zero(prime, precision, cap)
    return LogMatrix(tuple(tuple(one if i == j else zero for j in range(size))
                           for i in range(size)), 0)


def c_phi(frob, *, degree_cap=None):
    """C_phi = C_p * diag(I_g, (1/p) I_g) as the LogMatrix p^{-1} * A,
    A = C_p * diag(p I_g, I_g) built from the residues of C_p: the factor
    of M_n = C_phi^{n+1} H_n that ``m_n`` folds into one integer matrix."""
    from iwkit import IwasawaSeries, LogMatrix

    p, prec, g = frob.prime, frob.precision, frob.g
    cap = 8 if degree_cap is None else degree_cap
    rows = [[IwasawaSeries.constant(x.residue * (p if j < g else 1), p, prec,
                                    cap) for j, x in enumerate(row)]
            for row in frob.c_p]
    return LogMatrix.normalized(rows, 1)


def lm_power(m, k):
    """m^k (k >= 1) as k - 1 LogMatrix products."""
    assert k >= 1
    out = m
    for _ in range(k - 1):
        out = out.matmul(m)
    return out


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@pytest.fixture
def p3_config():
    from iwkit import Config

    return Config(prime=3, precision=24, n_max=4)

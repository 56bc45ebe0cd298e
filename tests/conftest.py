"""Shared test oracles: exact integer polynomial arithmetic.

These helpers deliberately avoid the package's own series code so that
[DERIVED] expectations come from an independent computational path: plain
Python integers, dense lists, schoolbook algorithms.
"""

from itertools import permutations
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


@pytest.fixture
def p3_config():
    from iwkit import Config

    return Config(prime=3, precision=24, n_max=4)

"""Reference answers for the benchmark's jobs, computed without iwkit.

Tower and growth answers come from closed forms, wprep answers from the
factors the generator multiplied together, and logmatrix answers from an own
polynomial product (Kronecker substitution: pack the coefficients into one
integer and let the interpreter multiply).  Nothing here imports iwkit, so a
defect in the timed code cannot hide in its own oracle.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations
from math import comb


def poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    """Product of two coefficient lists mod q by Kronecker substitution."""
    a = [x % q for x in a]
    b = [x % q for x in b]
    size = len(a) + len(b) - 1
    width = ((q - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
    pa = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in a), "little")
    pb = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in b), "little")
    raw = (pa * pb).to_bytes(width * size, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") % q
            for i in range(size)]


def poly_add(a: list[int], b: list[int], q: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [(x + (b[i] if i < len(b) else 0)) % q for i, x in enumerate(a)]


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros; the zero polynomial is [0]."""
    end = len(a)
    while end > 1 and a[end - 1] == 0:
        end -= 1
    return list(a[:max(end, 1)])


def phi_coeffs(p: int, k: int) -> list[int]:
    """Phi_k(1+X) in X: the p^k-th cyclotomic polynomial, Phi_0 = X."""
    if k == 0:
        return [0, 1]
    step = p ** (k - 1)
    out = [0] * (step * (p - 1) + 1)
    for j in range(p):
        for i in range(j * step + 1):
            out[i] += comb(j * step, i)
    return out


def deg_phi(p: int, k: int) -> int:
    return 1 if k == 0 else p ** k - p ** (k - 1)


def valuation(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def rem_monic(a: list[int], m: list[int], q: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, coefficients mod q."""
    d = len(m) - 1
    r = [x % q for x in a] + [0] * max(0, d - len(a))
    for k in range(len(r) - 1, d - 1, -1):
        t = r[k]
        if t:
            for i in range(d + 1):
                r[k - d + i] = (r[k - d + i] - t * m[i]) % q
    return r[:d]


# -- tower ----------------------------------------------------------------
#
# A generator is ("phi", c), ("ppow", k) or ("eis", lam, mu): the last is
# p^mu * P * U with P Eisenstein of degree lam (lam never equal to some
# p^k - p^(k-1)) and U a unit.  Per level n the layer Lambda/(f, omega_n) has
#   Phi_c:  rank p^c - p^(c-1) (1 for c = 0) and length 0 when c <= n;
#           rank 0 and length p^n when c > n (Phi_c(zeta) = p at every root);
#   p^k:    rank 0, length k p^n;
#   eis:    rank 0, length mu p^n + 1 + sum_{k=1..n} min(lam, p^k - p^(k-1)),
#           since v(Phi_k(pi)) = min(1, (p^k - p^(k-1)) / lam) at a root pi.

def generator_layer(p: int, gen: tuple, n: int) -> tuple[int, int]:
    """(Z_p-rank, finite length) of Lambda/(f, omega_n)."""
    kind = gen[0]
    if kind == "phi":
        c = gen[1]
        if c <= n:
            return deg_phi(p, c), 0
        return 0, p ** n
    if kind == "ppow":
        return 0, gen[1] * p ** n
    lam, mu = gen[1], gen[2]
    length = mu * p ** n
    if lam:
        length += 1 + sum(min(lam, deg_phi(p, k)) for k in range(1, n + 1))
    return 0, length


def generator_lambda_mu(p: int, gen: tuple) -> tuple[int, int]:
    if gen[0] == "phi":
        return deg_phi(p, gen[1]), 0
    if gen[0] == "ppow":
        return 0, gen[1]
    return gen[1], gen[2]


def _stabilization(matches: dict[int, bool | None], top: int) -> int | None:
    best = None
    for n in range(top, 0, -1):
        if matches[n] is not True:
            break
        best = n - 1
    return best


def tower_expect(p: int, n_max: int, gens: list[tuple]) -> dict:
    """Expected exit code, rows and report of `iwkit tower`."""
    rank = [sum(generator_layer(p, g, n)[0] for g in gens) for n in range(n_max + 1)]
    length = [sum(generator_layer(p, g, n)[1] for g in gens) for n in range(n_max + 1)]
    lam = sum(generator_lambda_mu(p, g)[0] for g in gens)
    mu = sum(generator_lambda_mu(p, g)[1] for g in gens)
    rows, matches = [], {}
    for n in range(1, n_max + 1):
        nabla = (length[n] - length[n - 1] + rank[n - 1]
                 if rank[n] == rank[n - 1] else None)
        pred = lam + (p ** n - p ** (n - 1)) * mu
        matches[n] = None if nabla is None else nabla == pred
        rows.append({"n": n, "rank": rank[n], "length": length[n],
                     "nabla_brute": nabla, "nabla_closed": pred,
                     "match": matches[n]})
    undefined = all(r["nabla_brute"] is None for r in rows)
    return {
        "exit": 4 if undefined else 0,
        "rows": rows,
        "report": {"lambda": lam, "mu": mu,
                   "stabilization_level": _stabilization(matches, n_max)},
    }


# -- growth ---------------------------------------------------------------
#
# Each ambient generator is f = g * Phi_c with g = p^mu * P * U as above, and
# the scenario's shape lists every c once.  The level-n cokernel of the
# embedding is then (+) Lambda/(g, omega_n), finite at every level.

def growth_expect(p: int, n_max: int, parts: list[tuple[int, int, int]]) -> dict:
    """Expected exit code, rows and report of `iwkit growth` for parts
    (c, lam_g, mu_g), one per generator."""
    s = [sum(generator_layer(p, ("eis", lam, mu), n)[1] for _, lam, mu in parts)
         for n in range(n_max + 1)]
    lam_f = sum(lam + deg_phi(p, c) for c, lam, _ in parts)
    mu_f = sum(mu for _, _, mu in parts)
    cs = [c for c, _, _ in parts]
    n0 = max(cs)

    def increment(n: int, v: int) -> int:
        drop = sum(deg_phi(p, c) for c in cs if c <= v)
        return lam_f + (p ** n - p ** (n - 1)) * mu_f - drop

    rows = [{"n": 0, "s_n": s[0], "increment": None, "predicted": None,
             "match": None}]
    matches = {}
    for n in range(1, n_max + 1):
        obs = s[n] - s[n - 1]
        pred = increment(n, n0) if n > n0 else None
        matches[n] = None if pred is None else obs == pred
        rows.append({"n": n, "s_n": s[n], "increment": obs, "predicted": pred,
                     "match": matches[n]})
    min_valid = next((v for v in range(n_max)
                      if all(s[n] - s[n - 1] == increment(n, v)
                             for n in range(v + 1, n_max + 1))), None)
    stab = _stabilization(matches, n_max)
    if stab is not None:
        stab = max(stab, n0)
    return {
        "exit": 0 if stab is not None else 5,
        "rows": rows,
        "report": {"lambda": lam_f, "mu": mu_f, "n0": n0,
                   "min_valid_n0": min_valid, "stabilization_level": stab,
                   "non_finite_levels": []},
    }


# -- logmatrix ------------------------------------------------------------

def mat_inv_mod(m: list[list[int]], p: int, q: int) -> list[list[int]]:
    """Inverse mod q = p^N of an integer matrix with unit determinant;
    raises ValueError when the determinant is divisible by p."""
    n = len(m)
    a = [[x % q for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % p), None)
        if piv is None:
            raise ValueError("matrix is singular mod p")
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, q)
        a[c] = [x * inv % q for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def h_matrix(cp: list[list[int]], g: int, p: int, N: int, n: int) -> list[list[list[int]]]:
    """H_n = C_n ... C_1 with C_k = diag(I_g, Phi_k I_g) C_p^{-1}, entries
    as coefficient lists mod p^N."""
    q = p ** N
    ci = mat_inv_mod(cp, p, q)
    d = 2 * g
    h = [[[int(i == j)] for j in range(d)] for i in range(d)]
    for k in range(1, n + 1):
        phik = phi_coeffs(p, k)
        nxt = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = [0]
                for t in range(d):
                    if ci[i][t]:
                        acc = poly_add(acc, [ci[i][t] * x for x in h[t][j]], q)
                row.append(poly_mul(acc, phik, q) if i >= g else acc)
            nxt.append(row)
        h = nxt
    return [[trim(e) for e in row] for row in h]


def poly_det(m: list[list[list[int]]], q: int) -> list[int]:
    """Determinant of a small matrix of polynomials by the Leibniz sum."""
    n = len(m)
    acc = [0]
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = [1]
        for i in range(n):
            term = poly_mul(term, m[i][perm[i]], q)
        if inversions % 2:
            term = [-x for x in term]
        acc = poly_add(acc, term, q)
    return trim(acc)


def index_sets(g: int) -> list[tuple[int, ...]]:
    return [tuple(s) for s in combinations(range(1, 2 * g + 1), g)]


def minor_table(h: list[list[list[int]]], g: int, q: int) -> dict[str, list[int]]:
    out = {}
    for rs in index_sets(g):
        for cs in index_sets(g):
            sub = [[h[i - 1][j - 1] for j in cs] for i in rs]
            key = ",".join(map(str, rs)) + "|" + ",".join(map(str, cs))
            out[key] = poly_det(sub, q)
    return out


def character(minors: dict[str, list[int]], cols: list[list[int]], g: int,
              p: int, N: int, level: int) -> tuple[bool, int]:
    """(nonzero, min valuation) of sum_J minor(I0, J) col_J mod Phi_level."""
    q = p ** N
    i0 = ",".join(map(str, range(1, g + 1)))
    acc = [0]
    for s, col in zip(index_sets(g), cols):
        acc = poly_add(acc, poly_mul(minors[i0 + "|" + ",".join(map(str, s))],
                                     col, q), q)
    rem = rem_monic(acc, phi_coeffs(p, level), q)
    val = min(valuation(x, p, N) for x in rem)
    return val < N, val


def det_check_g1(cp: list[list[int]], h: list[list[list[int]]], p: int, N: int,
                 n: int) -> bool:
    """For g = 1: det H_n = det(C_p)^{-n} * prod_{k<=n} Phi_k."""
    q = p ** N
    det_cp = (cp[0][0] * cp[1][1] - cp[0][1] * cp[1][0]) % q
    want = [pow(det_cp, -n, q)]
    for k in range(1, n + 1):
        want = poly_mul(want, phi_coeffs(p, k), q)
    got = poly_add(poly_mul(h[0][0], h[1][1], q),
                   [-x for x in poly_mul(h[0][1], h[1][0], q)], q)
    return trim(got) == trim(want)


# -- oracle ---------------------------------------------------------------

def _ints(strings) -> list[int]:
    return [int(s) for s in strings]


def check(job: dict, rc: int, text: str) -> str | None:
    """Why the output of ``job`` is wrong, or None when it is right."""
    expect = job["expect"]
    if rc != expect["exit"]:
        return f"exit code {rc}, expected {expect['exit']}"
    try:
        out = json.loads(text)
        report = out["report"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    workload = job["cls"].split("/")[0]
    want = expect["report"]
    if workload == "logmatrix":
        for key, value in want.items():
            got = report.get(key)
            if key.startswith("minor_"):
                got = trim(_ints(got.split(";"))) if got is not None else None
            if got != value:
                return f"report {key}: {got!r}, expected {value!r}"
        h = expect["h"]
        cells = {(r["i"], r["j"]): _ints(r["coeffs"]) for r in out.get("rows", [])}
        got_h = [[cells.get((i + 1, j + 1)) for j in range(len(h))]
                 for i in range(len(h))]
        if got_h != h or len(cells) != len(h) ** 2:
            return "H_n entries differ"
        if len(h) == 2 and not det_check_g1(expect["frobenius"], got_h,
                                            expect["prime"], expect["precision"],
                                            want["n"]):
            return "det H_n != det(C_p)^-n prod Phi_k"
        return None
    for key, value in want.items():
        if report.get(key) != value:
            return f"report {key}: {report.get(key)!r}, expected {value!r}"
    if "rows" in expect and out.get("rows") != expect["rows"]:
        return f"rows {out.get('rows')!r}, expected {expect['rows']!r}"
    return None

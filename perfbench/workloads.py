"""Seeded job lists for the four workloads.

``build(workload, seed, in_dir)`` writes every input file the program will
read into ``in_dir`` and returns the jobs.  A job is a dict with

    cls     job class (workload, prime, size, precision, family); never shown
            to the program, whose files are named only by job number
    argv    the iwkit command line, run as ``iwkit.cli.main(argv)``
    expect  the expected exit code and report, from ``reference``
    bits    bit length of p^N, which picks SNF's int64 or object path

Every class is a fixed list of shapes (prime, level, precision, degree,
lambda, mu, Phi_c), picked by the job's index within its class; the seed
draws only the coefficients and the order of the jobs, so two seeds cost
the same work and give different files.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference as ref

ARGV_HEAD = ["--no-timestamp", "--format", "json"]


def _eisenstein(rng: random.Random, p: int, q: int, lam: int) -> list[int]:
    """Monic P of degree lam, lower coefficients divisible by p and the
    constant term exactly divisible by p."""
    if lam == 0:
        return [1]
    low = [p * rng.randrange(q // p) for _ in range(lam)]
    low[0] = p * (rng.randrange(1, p) + p * rng.randrange(q // p ** 2))
    return low + [1]


def _unit(rng: random.Random, p: int, q: int, deg: int) -> list[int]:
    """A polynomial unit of Z_p[[X]]: constant term prime to p."""
    return [rng.randrange(1, p) + p * rng.randrange(q // p)] + \
        [rng.randrange(q) for _ in range(deg)]


def _factored(rng: random.Random, p: int, N: int, lam: int, mu: int,
              unit_deg: int) -> tuple[list[int], list[int], list[int]]:
    """(f, P, U) with f = p^mu * P * U mod p^N, all exact polynomials."""
    q = p ** N
    P = _eisenstein(rng, p, q, lam)
    U = _unit(rng, p, q, unit_deg)
    f = [c * p ** mu % q for c in ref.poly_mul(P, U, q)]
    return f, P, U


def _series(p: int, N: int, coeffs: list[int]) -> dict:
    return {"prime": p, "precision": N, "coeffs": [str(c) for c in coeffs]}


def _lambda_ok(p: int, lam: int, n_max: int) -> bool:
    """lam avoids every p^k - p^(k-1) up to n_max, where the valuation of
    Phi_k at an Eisenstein root is not pinned down by lam alone."""
    return all(lam != ref.deg_phi(p, k) for k in range(1, n_max + 1))


# -- tower ----------------------------------------------------------------
#
# (p, n_max, N, family, jobs per pass).  N sits on both sides of the 2^55
# int64/object cliff in padic._ModOps: 3^34 / 3^35, 5^23 / 5^24, 7^19 / 7^20.
TOWER = [
    (3, 5, 24, "phi", 2), (3, 5, 24, "phi_ppow", 2),
    (5, 3, 23, "phi_ppow", 3), (5, 3, 24, "phi_ppow", 2),
    (5, 3, 23, "peis", 2), (5, 3, 24, "eis", 2),
    (3, 4, 34, "phi_ppow", 6), (3, 4, 35, "phi", 6),
    (7, 2, 19, "phi", 3), (7, 2, 20, "phi_ppow", 3),
    (5, 2, 24, "eis", 3), (3, 3, 24, "peis", 3), (3, 2, 24, "peis", 3),
]

# The two rows ROADMAP tracks: p = 5, generators {Phi_1, p}, n_max = 4, on
# either side of the cliff.
TOWER_ROADMAP = [(5, 4, 23, "roadmap", 1), (5, 4, 24, "roadmap", 1)]


def _tower_gens(rng: random.Random, p: int, n_max: int, N: int, family: str,
                i: int) -> tuple[list[tuple], list[dict]]:
    if family == "roadmap":
        return [("phi", 1), ("ppow", 1)], [{"phi": 1}, {"p_power": 1}]
    # c < n_max: at c = n_max the top level is free and its SNF far cheaper
    c = 1 + i % max(1, n_max - 1)
    if family == "phi":
        return [("phi", c)], [{"phi": c}]
    if family == "phi_ppow":
        k = 1 + i % 2
        return [("phi", c), ("ppow", k)], [{"phi": c}, {"p_power": k}]
    mu = 1 + i % 2 if family == "peis" else 0
    lams = [x for x in range(1, 2 * p + 1) if _lambda_ok(p, x, n_max)]
    lam = lams[(3 * i + 1) % len(lams)]
    f, _, _ = _factored(rng, p, N, lam, mu, unit_deg=6)
    return [("eis", lam, mu)], [_series(p, N, f)]


def _tower(rng, spec, i: int, path: Path) -> dict:
    p, n_max, N, family = spec
    gens, wire = _tower_gens(rng, p, n_max, N, family, i)
    path.write_text(json.dumps({"prime": p, "generators": wire}))
    return {
        "cls": f"tower/p{p}/m{p ** n_max}/N{N}/{family}",
        "argv": ARGV_HEAD + ["--precision", str(N), "--n-max", str(n_max),
                             "tower", str(path)],
        "expect": ref.tower_expect(p, n_max, gens),
        "bits": (p ** N).bit_length(),
    }


# -- growth ---------------------------------------------------------------
#
# (p, n_max, N, number of Phi_c summands, jobs per pass).  Each ambient
# generator is g * Phi_c; the SNF runs on [mult(f) | mult(g)], p^n x 2p^n.
GROWTH = [
    (3, 5, 24, 1, 1), (5, 3, 23, 1, 2), (5, 3, 24, 2, 1),
    (3, 4, 35, 1, 3), (3, 4, 24, 2, 4), (7, 2, 19, 2, 3), (7, 2, 24, 1, 12),
    (5, 2, 24, 2, 7), (3, 3, 24, 1, 7),
]

GROWTH_ROADMAP = [(3, 5, 24, 1, 1)]


def _growth_parts(p: int, n_max: int, summands: int, i: int):
    levels = list(range(0, min(n_max - 1, 2) + 1))
    cs = [levels[(i + j) % len(levels)] for j in range(summands)]
    n0 = max(cs)
    # lam_g < p^(n0+1) - p^n0 keeps every level above n0 on the formula
    lams = [x for x in range(0, min(ref.deg_phi(p, n0 + 1), 2 * p))
            if _lambda_ok(p, x, n_max)]
    parts = []
    for j, c in enumerate(cs):
        lam = lams[(2 * i + j + 1) % len(lams)]
        mu = 1 if lam == 0 else (i + j) % 2
        parts.append((c, lam, mu))
    return parts


def _growth(rng, spec, i: int, path: Path) -> dict:
    p, n_max, N, summands = spec
    q = p ** N
    parts = _growth_parts(p, n_max, summands, i)
    while True:
        gens = []
        for c, lam, mu in parts:
            g, _, _ = _factored(rng, p, N, lam, mu, unit_deg=4)
            gens.append(ref.poly_mul(g, ref.phi_coeffs(p, c), q))
        # each generator must be divisible by its own Phi_c only, so the
        # program's shape assignment is the one the answer assumes
        spurious = any(not any(ref.rem_monic(f, ref.phi_coeffs(p, c2), q))
                       for f, (c, _, _) in zip(gens, parts)
                       for c2, _, _ in parts if c2 != c)
        if not spurious:
            break
    path.write_text(json.dumps({
        "selmer": {"prime": p, "generators": [_series(p, N, f) for f in gens]},
        "mw_shape": [c for c, _, _ in parts],
        "n_max": n_max,
    }))
    return {
        "cls": f"growth/p{p}/m{p ** n_max}/N{N}/s{summands}",
        "argv": ARGV_HEAD + ["--precision", str(N), "--n-max", str(n_max),
                             "growth", str(path)],
        "expect": ref.growth_expect(p, n_max, parts),
        "bits": (p ** N).bit_length(),
    }


# -- wprep ----------------------------------------------------------------
#
# (p, k, N, mu, jobs per pass) with degree cap D = p^k + 8.  lambda stays at most
# (D + 1) / (N - mu + 2): the Weierstrass division runs on series cut at X^D,
# and a larger lambda leaves fewer than N - mu digits of the distinguished
# part determined by the input (see README.md).
WPREP = [
    (5, 4, 16, 0, 1), (7, 3, 24, 0, 1), (5, 4, 8, 1, 1), (7, 3, 12, 1, 2),
    (3, 5, 24, 0, 2), (5, 3, 24, 2, 8), (3, 4, 24, 1, 10), (7, 2, 24, 0, 5),
    (5, 2, 16, 0, 5), (3, 3, 12, 0, 3), (3, 3, 12, 2, 2),
]

WPREP_ROADMAP = [(7, 4, 24, 0, 1), (5, 4, 24, 0, 1)]


def _wprep(rng, spec, i: int, path: Path) -> dict:
    p, k, N, mu = spec
    D = p ** k + 8
    lam_max = max(1, (D + 1) // (N - mu + 2))
    lam = lam_max - (2 * i) % lam_max
    f, P, U = _factored(rng, p, N, lam, mu, unit_deg=min(D - lam, 3 * lam + 8))
    path.write_text(json.dumps(_series(p, N, f)))
    q2 = p ** (N - mu)
    return {
        "cls": f"wprep/p{p}/D{D}/N{N}/mu{mu}",
        "argv": ARGV_HEAD + ["--precision", str(N), "--n-max", str(k),
                             "--degree-cap", str(D), "wprep", str(path)],
        "expect": {"exit": 0, "report": {
            "mu": mu, "lambda": lam,
            "distinguished": [str(c % q2) for c in P],
            "unit_constant_term": str(U[0] % q2)}},
        "bits": (p ** N).bit_length(),
    }


# -- logmatrix ------------------------------------------------------------
#
# (g, p, n, mode, jobs per pass) at N = 24; mode "minors" adds --minors,
# "cols" adds --col-values and --theta-level.
LOGMATRIX = [
    (3, 3, 3, "cols", 1), (3, 5, 2, "minors", 1), (3, 3, 2, "minors", 4),
    (2, 3, 4, "minors", 8), (1, 7, 3, "minors", 6), (1, 3, 5, "minors", 6),
    (2, 7, 2, "cols", 6), (2, 3, 3, "cols", 10), (2, 5, 2, "minors", 16),
    (1, 5, 3, "cols", 12), (1, 3, 3, "minors", 30),
]

LOGMATRIX_ROADMAP = [(1, 3, 4, "minors", 1), (2, 3, 4, "minors", 1)]

LOGMATRIX_N = 24


def _frobenius(rng: random.Random, g: int, p: int, q: int) -> list[list[int]]:
    while True:
        m = [[rng.randrange(q) for _ in range(2 * g)] for _ in range(2 * g)]
        try:
            ref.mat_inv_mod(m, p, q)
            return m
        except ValueError:
            continue


def _logmatrix(rng, spec, i: int, path: Path) -> dict:
    g, p, n, mode = spec
    N = LOGMATRIX_N
    q = p ** N
    cp = _frobenius(rng, g, p, q)
    path.write_text(json.dumps({"g": g, "prime": p,
                                "matrix": [[str(x) for x in r] for r in cp]}))
    h = ref.h_matrix(cp, g, p, N, n)
    expect_report = {"g": g, "n": n, "block_anti_diagonal": all(
        cp[a][b] == 0 and cp[g + a][g + b] == 0
        for a in range(g) for b in range(g))}
    argv = ARGV_HEAD + ["--precision", str(N)]
    tail = ["logmatrix", str(path), "--n", str(n)]
    mins = ref.minor_table(h, g, q)
    if mode == "minors":
        tail.append("--minors")
        expect_report.update({f"minor_{k}": v for k, v in mins.items()})
    else:
        # col values of degree <= 8 and a cap of g p^n + 8 keep every
        # product inside the cap, so nothing is truncated
        theta = n - i % (n + 1)
        while True:
            cols = [[rng.randrange(q) for _ in range(rng.randint(1, 9))]
                    for _ in ref.index_sets(g)]
            nonzero, val = ref.character(mins, cols, g, p, N, theta)
            if val < N - 4:
                break
        col_path = path.with_name(path.stem + "_cols.json")
        col_path.write_text(json.dumps({
            ",".join(map(str, s)): _series(p, N, c)
            for s, c in zip(ref.index_sets(g), cols)}))
        argv += ["--n-max", str(n), "--degree-cap", str(g * p ** n + 8)]
        tail += ["--col-values", str(col_path), "--theta-level", str(theta)]
        expect_report.update({"character_nonzero": nonzero,
                              "character_min_valuation": val,
                              "theta_level": theta})
    return {
        "cls": f"logmatrix/g{g}/p{p}/n{n}/{mode}",
        "argv": argv + tail,
        "expect": {"exit": 0, "report": expect_report, "h": h,
                   "frobenius": cp, "prime": p, "precision": N},
        "bits": (p ** N).bit_length(),
    }


WORKLOADS = {
    "tower": (TOWER, TOWER_ROADMAP, _tower),
    "growth": (GROWTH, GROWTH_ROADMAP, _growth),
    "wprep": (WPREP, WPREP_ROADMAP, _wprep),
    "logmatrix": (LOGMATRIX, LOGMATRIX_ROADMAP, _logmatrix),
}


def build(workload: str, seed: int, in_dir: Path, *,
          roadmap: bool = False) -> list[dict]:
    """Write the inputs of one pass of ``workload`` and return its jobs, in
    the seeded order the worker runs them."""
    grid, roadmap_grid, make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    specs = [(s[:-1], i) for s in (roadmap_grid if roadmap else grid)
             for i in range(s[-1])]
    rng.shuffle(specs)
    in_dir.mkdir(parents=True, exist_ok=True)
    return [make(rng, spec, i, in_dir / f"job_{n:03d}.json")
            for n, (spec, i) in enumerate(specs)]

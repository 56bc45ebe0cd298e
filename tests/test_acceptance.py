"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: every comparison is exact integer
arithmetic except criterion 1, whose reconstruction is checked mod p^14 up to
degree 26 (N = 20, D = 30, guard 4).
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from iwkit import (
    ElementaryModule,
    IwasawaSeries,
    MWShape,
    SelmerInvariants,
    condition_character,
    cyclo_eval,
    c_n,
    final_increment,
    h_n,
    change_basis_check,
    module_invariants,
    nabla_brute,
    nabla_closed,
    omega,
    phi,
    quotient_presentation,
    rank_phi_omega,
    rk_solver,
    synthetic_tower_verify,
    tower_report,
    weierstrass_prepare,
)
from iwkit import FrobeniusData
from iwkit.padic import mat_det, padic_matrix
from iwkit.series import lambda_mu, reconstruction_residual_valuation

from conftest import ip_divmod, ip_phi, ip_omega, ip_reduce_mod

ROOT = Path(__file__).resolve().parent.parent


def report(num, description, failures, started):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status} - {description} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_1_weierstrass_suite():
    started = time.monotonic()
    failures = []
    n_prec, cap = 20, 30
    for p in (3, 5):
        rng = random.Random(1000 + p)
        for trial in range(200):
            mu = rng.choice((0, 0, 0, 1, 2))
            coeffs = [rng.randrange(p**n_prec) * p**mu for _ in range(cap + 1)]
            coeffs[rng.randint(0, 6)] = p**mu * (1 + p * rng.randrange(p**6))
            f = IwasawaSeries.make(p, n_prec, coeffs, cap)
            w = weierstrass_prepare(f)
            res = reconstruction_residual_valuation(f, w, up_to_degree=26)
            if res < 14:
                failures.append((p, trial, "residual", res))
            if not w.distinguished.coeffs[w.lambda_] == 1:
                failures.append((p, trial, "not monic"))
        # additivity of (lambda, mu) over products
        for trial in range(50):
            def small():
                lam = rng.randint(0, 5)
                mu = rng.randint(0, 1)
                cs = [p * rng.randrange(p**6) for _ in range(lam)]
                cs.append(1 + p * rng.randrange(p**6))
                cs += [rng.randrange(p**8) for _ in range(3)]
                return IwasawaSeries.make(p, n_prec, [c * p**mu for c in cs], cap)

            f, g = small(), small()
            lf, mf = lambda_mu(f)
            lg, mg = lambda_mu(g)
            lp, mp = lambda_mu(f * g)
            if (lp, mp) != (lf + lg, mf + mg):
                failures.append((p, trial, "additivity", (lf, lg, lp)))
    report(1, "Weierstrass reconstruction mod p^14 (deg <= 26) and "
              "mu/lambda additivity, 200+50 random cases, p in {3,5}",
           failures, started)


def _generator_pool(p, precision, cap):
    return {
        "p": IwasawaSeries.constant(p, p, precision, cap),
        "p2": IwasawaSeries.constant(p * p, p, precision, cap),
        "phi0": phi(0, prime=p, precision=precision, degree_cap=cap),
        "phi1": phi(1, prime=p, precision=precision, degree_cap=cap),
        "phi2": phi(2, prime=p, precision=precision, degree_cap=cap),
        "x+p": IwasawaSeries.make(p, precision, [p, 1], cap),
        "x2+p": IwasawaSeries.make(p, precision, [p, 0, 1], cap),
        "p*phi1": phi(1, prime=p, precision=precision, degree_cap=cap) * p,
    }


_MAX_C = {"p": 0, "p2": 0, "phi0": 0, "phi1": 1, "phi2": 2,
          "x+p": 0, "x2+p": 0, "p*phi1": 1}


def test_criterion_2_kobayashi_oracle_equivalence():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    pool = _generator_pool(p, precision, p**4 + 8)
    names = sorted(pool)
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(names, size):
            m = ElementaryModule(p, tuple(pool[k] for k in combo))
            lam, mu = m.lambda_mu()
            rep = tower_report(m, 4)
            if rep.stabilization_level is None or rep.stabilization_level > 3:
                failures.append((combo, "no stabilization", rep.stabilization_level))
                continue
            for lv in rep.levels:
                if lv.n <= rep.stabilization_level or lv.n == 0:
                    continue
                if lv.nabla != nabla_closed(lam, mu, lv.n, prime=p):
                    failures.append((combo, lv.n, lv.nabla))
            max_c = max(_MAX_C[k] for k in combo)
            for n in range(1, 5):
                if p ** (n - 1) >= lam + max_c:
                    want = nabla_closed(lam, mu, n, prime=p)
                    if rep.level(n).nabla != want:
                        failures.append((combo, "threshold", n))
    # spot grid at p = 5 (precision 12 keeps every divisor far from the margin)
    p5, prec5 = 5, 12
    pool5 = _generator_pool(p5, prec5, 5**3 + 8)
    spots = [("p",), ("phi0",), ("phi1",), ("x+p",), ("p*phi1",),
             ("p", "phi1"), ("x+p", "x2+p"), ("phi0", "phi1", "p")]
    for combo in spots:
        m = ElementaryModule(p5, tuple(pool5[k] for k in combo))
        lam, mu = m.lambda_mu()
        rep = tower_report(m, 3)
        if rep.stabilization_level is None:
            failures.append((combo, "p5 no stabilization"))
            continue
        for lv in rep.levels:
            if lv.n > rep.stabilization_level and lv.n >= 1:
                if lv.nabla != nabla_closed(lam, mu, lv.n, prime=p5):
                    failures.append((combo, "p5", lv.n))
    report(2, "nabla_brute == nabla_closed past stabilization, 164-module "
              "grid at p=3 (n<=4) plus p=5 spot grid (n<=3), exact",
           failures, started)


def test_criterion_3_mw_shaped_rank_sum():
    started = time.monotonic()
    failures = []
    p, precision, n0 = 3, 24, 2
    cap = p**4 + 8
    for mult in itertools.product(range(3), repeat=3):
        if sum(mult) == 0:
            continue
        c_list = [c for c, k in enumerate(mult) for _ in range(k)]
        gens = tuple(phi(c, prime=p, precision=precision, degree_cap=cap)
                     for c in c_list)
        m = ElementaryModule(p, gens)
        want = sum(rank_phi_omega(c, n0, prime=p) for c in c_list if c <= n0)
        for n in (3, 4):
            got = nabla_brute(m, n)
            if got != want:
                failures.append((tuple(c_list), n, got, want))
    report(3, "MW-shaped modules (c in {0,1,2}, mult <= 2): brute nabla at "
              "n in {3,4} equals the rank sum at n0 = 2, exact",
           failures, started)


def test_criterion_4_rank_phi_omega_oracle():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    cap = p**4 + 8
    for c in range(5):
        for n in range(1, 5):
            m = ElementaryModule(p, (phi(c, prime=p, precision=precision,
                                         degree_cap=cap),))
            free, _ = module_invariants(quotient_presentation(m, n))
            if free != rank_phi_omega(c, n, prime=p):
                failures.append((c, n, free))
    report(4, "rank_phi_omega closed form == SNF oracle for 0<=c<=4, "
              "1<=n<=4, p=3 (including c > n finite cases)", failures, started)


def _scenarios(p, precision, cap):
    def mk(coeffs):
        return IwasawaSeries.make(p, precision, coeffs, cap)

    def ph(c):
        return phi(c, prime=p, precision=precision, degree_cap=cap)

    xp = mk([p, 1])
    x2p = mk([p, 0, 1])
    return [
        (ElementaryModule(p, (ph(1) * xp,)), MWShape((1,))),
        (ElementaryModule(p, (mk([p]),)), MWShape(())),
        (ElementaryModule(p, (ph(0),)), MWShape((0,))),
        (ElementaryModule(p, (xp,)), MWShape(())),
        (ElementaryModule(p, (ph(1) * p, xp)), MWShape((1,))),
        (ElementaryModule(p, (ph(2) * x2p,)), MWShape((2,))),
        (ElementaryModule(p, (ph(0) * xp,)), MWShape((0,))),
        (ElementaryModule(p, (ph(1) * xp, ph(2))), MWShape((1, 2))),
        (ElementaryModule(p, (ph(0), ph(1))), MWShape((0, 1))),
        (ElementaryModule(p, (ph(1) * xp, ph(1) * x2p)), MWShape((1, 1))),
        (ElementaryModule(p, (mk([p]) * xp,)), MWShape(())),
        (ElementaryModule(p, (ph(1) * ph(2) * xp,)), MWShape((1, 2))),
    ]


def test_criterion_5_end_to_end_increments():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    cap = p**4 + 8
    scenarios = _scenarios(p, precision, cap)
    assert len(scenarios) >= 10
    for idx, (selmer, shape) in enumerate(scenarios):
        rep = synthetic_tower_verify(selmer, shape, 4)
        if rep.non_finite_levels:
            failures.append((idx, "non-finite", rep.non_finite_levels))
            continue
        if rep.stabilization_level is None:
            failures.append((idx, "no stabilization"))
            continue
        inv = SelmerInvariants(rep.lambda_invariant, rep.mu_invariant)
        for lv in rep.levels:
            if lv.n <= max(rep.stabilization_level, rep.n0):
                continue
            want = final_increment(inv, shape, lv.n, rep.n0, prime=p)
            if lv.nabla != want:
                failures.append((idx, lv.n, lv.nabla, want))
    # the CLI run exits 5 on a post-stabilization mismatch
    scn = ROOT / "scenarios" / "growth_pure_mu.json"
    ok = subprocess.run([sys.executable, "-m", "iwkit", "--no-timestamp",
                         "growth", str(scn)], capture_output=True, cwd=ROOT)
    if ok.returncode != 0:
        failures.append(("cli", ok.returncode))
    report(5, f"{len(scenarios)} synthetic towers: observed s_n - s_(n-1) == "
              "final increment past stabilization (n <= 4, p = 3), exact",
           failures, started)


def test_criterion_6_logmatrix_identities():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    frob = FrobeniusData.elliptic(p, precision)
    cap = p**4 + 8
    for n in range(1, 5):
        lhs = h_n(frob, n, degree_cap=cap)
        rhs = c_n(frob, n, degree_cap=cap).matmul(
            h_n(frob, n - 1, degree_cap=cap))
        if not lhs.congruent(rhs):
            failures.append(("telescoping", n))
    h2 = h_n(frob, 2, degree_cap=cap)
    h4 = h_n(frob, 4, degree_cap=cap)

    def ph(c):
        return phi(c, prime=p, precision=precision, degree_cap=cap)

    if not (h2.entry(0, 0).congruent(-ph(1)) and h2.entry(1, 1).congruent(-ph(2))
            and h2.entry(0, 1).is_zero() and h2.entry(1, 0).is_zero()):
        failures.append("H_2 alternation")
    if not (h4.entry(0, 0).congruent(ph(1) * ph(3))
            and h4.entry(1, 1).congruent(ph(2) * ph(4))
            and h4.entry(0, 1).is_zero() and h4.entry(1, 0).is_zero()):
        failures.append("H_4 alternation")
    # determinant formula det H_n = (prod Phi_k)^g det(C_p)^{-n}
    rng = random.Random(66)
    for g, n_top in ((1, 4), (2, 2)):
        while True:
            rows = [[rng.randrange(p**precision) for _ in range(2 * g)]
                    for _ in range(2 * g)]
            try:
                fr = FrobeniusData(g, p, precision, rows)
                break
            except Exception:
                continue
        cp_inv = mat_det(padic_matrix(p, precision, fr.c_p)).inverse()
        for n in range(1, n_top + 1):
            det, denom = h_n(fr, n, degree_cap=cap).det()
            want = IwasawaSeries.constant(1, p, precision, cap)
            for k in range(1, n + 1):
                for _ in range(g):
                    want = want * ph(k)
            for _ in range(n):
                want = want * cp_inv
            if denom != 0 or not det.congruent(want):
                failures.append(("det", g, n))
    report(6, "telescoping H_n = C_n H_(n-1) (n<=4), elliptic alternation "
              "H_2/H_4, determinant formula for g in {1,2}, exact at N=24",
           failures, started)


def test_criterion_7_change_of_basis_invariance():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    q = p**precision
    rng = random.Random(77)
    total = 0
    for g in (1, 2, 3):
        # block anti-diagonal Frobenius to satisfy the lemma's hypothesis
        while True:
            rows = [[0] * (2 * g) for _ in range(2 * g)]
            for i in range(g):
                for j in range(g):
                    rows[i][g + j] = rng.randrange(q)
                    rows[g + i][j] = rng.randrange(q)
            try:
                frob = FrobeniusData(g, p, precision, rows)
                break
            except Exception:
                continue

        def unit_block():
            while True:
                b = [[rng.randrange(q) for _ in range(g)] for _ in range(g)]
                if mat_det(padic_matrix(p, precision, b)).is_unit():
                    return padic_matrix(p, precision, b)

        trials = 17 if g < 3 else 16
        for _ in range(trials):
            total += 1
            vecs = []
            for _ in range(3):
                fz, lz = rng.random() < 0.5, rng.random() < 0.5
                vec = []
                for i in range(2 * g):
                    zero = fz if i < g else lz
                    vec.append(IwasawaSeries.zero(p, precision, 6) if zero else
                               IwasawaSeries.make(
                                   p, precision,
                                   [1 + p * rng.randrange(p**8),
                                    rng.randrange(q)], 6))
                vecs.append(vec)
            if not change_basis_check(frob, unit_block(), unit_block(), vecs):
                failures.append((g, "pattern broken"))
    assert total == 50
    report(7, "50 random block-diagonal base changes at g in {1,2,3}: "
              "zero patterns preserved, conjugated C_p stays anti-diagonal",
           failures, started)


def test_criterion_8_rk_solver_enumeration():
    started = time.monotonic()
    failures = []
    for e0 in range(7):
        opts = rk_solver([e0])
        if opts[0].pairs != ((e0, e0),):
            failures.append(("e0", e0))
    for ek in range(7):
        opts = rk_solver([0, ek])
        a = max(0, ek - 1)
        brute = {(rp, rm) for rp in range(2 * ek + 2) for rm in range(2 * ek + 2)
                 if min(rp, rm) >= a and rp + rm == ek + a}
        if set(opts[1].pairs) != brute:
            failures.append(("set", ek))
        if len(opts[1].pairs) != ek - a + 1:
            failures.append(("cardinality", ek))
    report(8, "rk_solver matches exhaustive enumeration for e_k <= 6 and the "
              "cardinality law e_k - a_k + 1", failures, started)


def test_criterion_9_character_evaluation():
    started = time.monotonic()
    failures = []
    p, precision = 3, 24
    q = p**precision
    cap = p**4 + 8
    for n in range(5):
        wn = omega(n, prime=p, precision=precision, degree_cap=cap)
        for m in range(5):
            ev = cyclo_eval(wn, m)
            if ev.is_zero() != (m <= n):
                failures.append(("pattern", n, m))
            # independent oracle: plain-integer reduction mod Phi_m
            _, rem = ip_divmod(ip_omega(p, n), ip_phi(p, m))
            want = ip_reduce_mod(rem, q)
            got = list(ev.coeffs)
            if got[:len(want)] != want or any(got[len(want):]):
                failures.append(("oracle", n, m))
    frob = FrobeniusData.elliptic(p, precision)
    one = IwasawaSeries.constant(1, p, precision, 30)
    zero = IwasawaSeries.zero(p, precision, 30)
    if condition_character(frob, 2, [zero, zero]) != (False, precision):
        failures.append("char zero columns")
    if condition_character(frob, 2, [one, one], 2) != (True, 0):
        failures.append("char unit columns")
    phi2 = phi(2, prime=p, precision=precision, degree_cap=30)
    if condition_character(frob, 2, [phi2, zero], 2) != (False, precision):
        failures.append("char Phi_2 column")
    report(9, "cyclo_eval(omega_n, m) == 0 iff m <= n (n,m <= 4, p=3) vs the "
              "exact-integer oracle; character condition golden cases, exact",
           failures, started)

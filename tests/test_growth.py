"""Increment formulas, rank ledgers and the synthetic tower verifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwkit import (
    ElementaryModule,
    InputError,
    IwasawaSeries,
    MWShape,
    PrecisionExhaustedError,
    RankLedger,
    SelmerInvariants,
    elliptic_increment,
    final_increment,
    module_invariants,
    phi,
    quotient_presentation,
    rk_solver,
    synthetic_tower_verify,
)
from iwkit.modules import _mult_matrix_rows
from iwkit.padic import _invariants_raw
from iwkit.series import divide_distinguished

P, N, CAP = 3, 24, 89


def phi_gen(c, cap=CAP):
    return phi(c, prime=P, precision=N, degree_cap=cap)


def series(coeffs, cap=CAP):
    return IwasawaSeries.make(P, N, coeffs, cap)


def xp():
    return series([3, 1])


class TestFinalIncrement:
    def test_empty_shape(self):
        inv = SelmerInvariants(2, 0)
        for n in (1, 2, 3):
            assert final_increment(inv, MWShape(()), n, 0, prime=3) == 2

    def test_shape_zero(self):
        assert final_increment(SelmerInvariants(1, 0), MWShape((0,)), 2, 1,
                               prime=3) == 0

    def test_mixed_shape(self):
        got = final_increment(SelmerInvariants(10, 1), MWShape((1, 2)), 4, 2,
                              prime=3)
        assert got == 10 + 54 - (2 + 6)

    def test_domain_errors(self):
        inv = SelmerInvariants(1, 0)
        with pytest.raises(InputError):
            final_increment(inv, MWShape((1,)), 1, 1, prime=3)
        with pytest.raises(InputError):
            final_increment(inv, MWShape((2,)), 3, 1, prime=3)


class TestEllipticIncrement:
    def test_no_multiplicities(self):
        assert elliptic_increment(SelmerInvariants(3, 0), [], 2, 0, prime=3) == 3

    def test_r0_cancels(self):
        assert elliptic_increment(SelmerInvariants(2, 0), [2], 1, 0, prime=3) == 0

    def test_r1(self):
        assert elliptic_increment(SelmerInvariants(5, 0), [0, 1], 2, 1,
                                  prime=3) == 3

    def test_coincides_with_final_increment(self):
        inv = SelmerInvariants(7, 1)
        r_seq = [1, 0, 2]
        shape = MWShape((0, 2, 2))
        for n in (3, 4):
            assert elliptic_increment(inv, r_seq, n, 2, prime=3) == \
                final_increment(inv, shape, n, 2, prime=3)

    def test_multiplicity_means_summands_not_ideal_powers(self):
        """rank of r summands Lambda/Phi_k mod omega_{n0} is r * rank of one;
        the ideal quotient Lambda/(Phi_k^r, omega_{n0}) is NOT that."""
        two_copies = ElementaryModule(P, (phi_gen(1), phi_gen(1)))
        free, _ = module_invariants(quotient_presentation(two_copies, 1))
        assert free == 4  # 2 * rank_phi_omega(1, 1)

        phi1_sq = phi_gen(1) * phi_gen(1)
        ideal_power = ElementaryModule(P, (phi1_sq,))
        free_ideal, _ = module_invariants(quotient_presentation(ideal_power, 1))
        assert free_ideal == 2  # the literal ideal quotient stays at one copy


class TestRkSolver:
    def test_zero_level(self):
        opts = rk_solver([0, 0])
        assert opts[1].pairs == ((0, 0),)

    def test_enumeration_example(self):
        opts = rk_solver([0, 3])
        assert opts[1].a == 2
        assert set(opts[1].pairs) == {(2, 3), (3, 2)}

    def test_level0_forced(self):
        opts = rk_solver([2])
        assert opts[0].pairs == ((2, 2),)

    @settings(max_examples=60, deadline=None)
    @given(e=st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_against_exhaustive_enumeration(self, e):
        opts = rk_solver(e)
        for k, ek in enumerate(e):
            if k == 0:
                assert opts[0].pairs == ((ek, ek),)
                continue
            a = max(0, ek - 1)
            brute = {
                (rp, rm)
                for rp in range(0, 2 * ek + 2)
                for rm in range(0, 2 * ek + 2)
                if min(rp, rm) >= a and rp + rm == ek + a
            }
            assert set(opts[k].pairs) == brute
            assert len(opts[k].pairs) == ek - a + 1


def ledger_rule(e, a, r_plus, r_minus) -> bool:
    """The signed rank-ledger rule, level by level: level 0 has
    a_0 = r+_0 = r-_0 = e_0; level k > 0 has a_k = max(0, e_k - 1),
    min(r+_k, r-_k) >= a_k and r+_k + r-_k = e_k + a_k."""
    for k, (ek, ak, rp, rm) in enumerate(zip(e, a, r_plus, r_minus)):
        if k == 0:
            ok = ak == rp == rm == ek
        else:
            ok = (ak == max(0, ek - 1) and min(rp, rm) >= ak
                  and rp + rm == ek + ak)
        if not ok:
            return False
    return True


@st.composite
def ledger_candidates(draw):
    """(e, a, r+, r-) with e in 0..5, at most 4 levels, and every other
    entry in -1..7: each entry either arbitrary or the value the rule asks
    for, so that admissible and nearly admissible ledgers both occur."""
    e = draw(st.lists(st.integers(0, 5), max_size=4))
    entry = st.integers(-1, 7)
    a, r_plus, r_minus = [], [], []
    for k, ek in enumerate(e):
        lo = ek if k == 0 else max(0, ek - 1)
        a.append(draw(st.one_of(st.just(lo), entry)))
        r_plus.append(draw(st.one_of(st.integers(lo, ek), entry)))
        rest = ek + a[-1] - r_plus[-1]
        r_minus.append(draw(st.one_of(st.just(rest), entry)
                            if -1 <= rest <= 7 else entry))
    return tuple(e), tuple(a), tuple(r_plus), tuple(r_minus)


class TestRankLedger:
    def test_from_ranks(self):
        # ranks 2, 2, 2: zero increments beyond e_0
        led = RankLedger.from_ranks([2, 2, 2], prime=3)
        assert led.e == (2, 0, 0)
        assert led.r_plus[0] == led.r_minus[0] == 2

    def test_integrality_enforced(self):
        with pytest.raises(InputError):
            RankLedger.from_ranks([0, 1], prime=3)  # jump 1 not divisible by 2

    def test_invalid_assignment_rejected(self):
        with pytest.raises(InputError):
            RankLedger(e=(1, 3), a=(1, 2), r_plus=(1, 1), r_minus=(1, 4))

    def test_valid_assignment(self):
        RankLedger(e=(1, 3), a=(1, 2), r_plus=(1, 2), r_minus=(1, 3))

    @settings(max_examples=300, deadline=None)
    @given(case=ledger_candidates())
    def test_accepts_exactly_the_rule(self, case):
        e, a, r_plus, r_minus = case
        try:
            RankLedger(e, a, r_plus, r_minus)
        except InputError:
            accepted = False
        else:
            accepted = True
        assert accepted == ledger_rule(e, a, r_plus, r_minus)

    @given(p=st.sampled_from([3, 5, 7]),
           e=st.lists(st.integers(0, 5), min_size=1, max_size=4))
    def test_from_ranks_accepts_every_integral_sequence(self, p, e):
        # rank jumps of e_n (p^n - p^{n-1}) at every level n >= 1
        ranks = [e[0]]
        for n, en in enumerate(e[1:], 1):
            ranks.append(ranks[-1] + en * (p**n - p ** (n - 1)))
        # the ledger of rk_solver's a and, per level, the admissible pair
        # where r+ takes the larger share
        options = rk_solver(e)
        best = [max(opt.pairs) for opt in options]
        assert RankLedger.from_ranks(ranks, prime=p) == RankLedger(
            tuple(e), tuple(opt.a for opt in options),
            tuple(rp for rp, _ in best), tuple(rm for _, rm in best))


class TestSyntheticTower:
    def test_phi1_times_xp(self):
        rep = synthetic_tower_verify(
            ElementaryModule(P, (phi_gen(1) * xp(),)), MWShape((1,)), 4)
        assert [lv.finite_length for lv in rep.levels] == [1, 2, 3, 4, 5]
        assert [lv.nabla for lv in rep.levels][1:] == [1, 1, 1, 1]
        assert rep.stabilization_level == 1
        assert rep.non_finite_levels == ()

    def test_pure_mu(self):
        rep = synthetic_tower_verify(
            ElementaryModule(P, (series([3]),)), MWShape(()), 4)
        assert [lv.finite_length for lv in rep.levels] == [1, 3, 9, 27, 81]
        for lv in rep.levels[1:]:
            assert lv.nabla == 2 * 3 ** (lv.n - 1)
            assert lv.predicted == lv.nabla

    def test_shape_equals_module(self):
        rep = synthetic_tower_verify(
            ElementaryModule(P, (phi_gen(0),)), MWShape((0,)), 3)
        assert all(lv.finite_length == 0 for lv in rep.levels)
        assert all(lv.nabla == 0 for lv in rep.levels[1:])
        assert rep.stabilization_level == 0

    def test_non_finite_reported(self):
        sq = phi_gen(1) * phi_gen(1)
        rep = synthetic_tower_verify(
            ElementaryModule(P, (sq,)), MWShape((1,)), 3)
        assert rep.non_finite_levels != ()
        assert 2 in rep.non_finite_levels

    def test_unmatchable_shape_rejected(self):
        with pytest.raises(InputError):
            synthetic_tower_verify(
                ElementaryModule(P, (phi_gen(1) * phi_gen(1) * xp(),)),
                MWShape((1, 1)), 3)

    def test_two_generators_two_copies(self):
        s = ElementaryModule(P, (phi_gen(1) * xp(), phi_gen(1) * series([3, 0, 1])))
        rep = synthetic_tower_verify(s, MWShape((1, 1)), 4)
        assert rep.stabilization_level is not None
        lam = rep.lambda_invariant
        assert lam == 2 + 1 + 2 + 2
        for lv in rep.levels:
            if lv.n > rep.stabilization_level:
                assert lv.nabla == lv.predicted

    def test_min_valid_n0_reported(self):
        rep = synthetic_tower_verify(
            ElementaryModule(P, (phi_gen(1) * xp(),)), MWShape((1,)), 4)
        assert rep.min_valid_n0 == 1

    def test_p5_grid_matches_final_increment(self):
        p, prec, cap = 5, 12, 5**3 + 8
        phi1 = phi(1, prime=p, precision=prec, degree_cap=cap)
        xp5 = IwasawaSeries.make(p, prec, [5, 1], cap)
        cases = [
            (ElementaryModule(p, (phi1 * xp5,)), MWShape((1,))),
            (ElementaryModule(p, (IwasawaSeries.make(p, prec, [5], cap),)),
             MWShape(())),
            (ElementaryModule(p, (phi1 * xp5, xp5)), MWShape((1,))),
        ]
        for selmer, shape in cases:
            rep = synthetic_tower_verify(selmer, shape, 3)
            assert rep.non_finite_levels == ()
            assert rep.stabilization_level is not None
            inv = SelmerInvariants(rep.lambda_invariant, rep.mu_invariant)
            for lv in rep.levels:
                if lv.n > max(rep.stabilization_level, rep.n0):
                    assert lv.nabla == final_increment(inv, shape, lv.n,
                                                       rep.n0, prime=p)


def _brute_levels(sel, shape, n_max, margin):
    """(rank, length) per level of coker((+)Lambda/Phi_c -> S) from the
    block matrices [mult(f_j) | mult(q_1) | ... ] on Z_p[X]/omega_n, with
    q_i = f_j / Phi_{c_i} matched as synthetic_tower_verify matches them."""
    p, prec = sel.prime, sel.precision
    cofactors = {j: [] for j in range(len(sel.generators))}
    used = set()
    for c in sorted(shape.c_list, reverse=True):
        phic = phi(c, prime=p, precision=prec)
        for j, f in enumerate(sel.generators):
            quot, rem = divide_distinguished(f, phic)
            if (j, c) not in used and rem.is_zero() and not quot.is_zero():
                used.add((j, c))
                cofactors[j].append(quot)
                break
    out = []
    for n in range(n_max + 1):
        rank = length = 0
        for j, f in enumerate(sel.generators):
            rows = _mult_matrix_rows(f, n)
            for quot in cofactors[j]:
                rows = [r + e for r, e in zip(rows, _mult_matrix_rows(quot, n))]
            r, l = _invariants_raw(rows, p, prec, margin)
            rank, length = rank + r, length + l
        out.append((rank, length))
    return out


@st.composite
def collapse_cases(draw):
    """An ambient module whose first generator is p^mu * h * Phi_{c_1} [*
    Phi_{c_2}], with one or two cofactors, optionally beside a second
    generator, at p = 3, N = 12, n_max = 3."""
    prec, cap, n_max = 12, 3**3 + 8, 3
    c_list = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2,
                           unique=True))
    mu = draw(st.integers(0, 2))
    h = draw(st.lists(st.integers(0, 3**prec - 1), min_size=1, max_size=4))
    h[draw(st.integers(0, len(h) - 1))] = draw(st.integers(1, 2))
    f = IwasawaSeries.make(P, prec, [c * 3**mu for c in h], cap)
    for c in c_list:
        f = f * phi(c, prime=P, precision=prec, degree_cap=cap)
    gens = [f]
    if draw(st.booleans()):
        gens.append(IwasawaSeries.make(P, prec, draw(st.sampled_from(
            [[3, 1], [9], [6, 3, 0, 1]])), cap))
    margin = draw(st.integers(0, 5))
    return ElementaryModule(P, tuple(gens)), MWShape(tuple(c_list)), n_max, margin


class TestCofactorCollapse:
    """(f_j, q_1, ..., q_k) = (q_1, ..., q_k): the engine's summand with
    relations q_1, ..., q_k against the brute-force [mult(f_j) | mult(q_i)]."""

    @settings(max_examples=60, deadline=None)
    @given(case=collapse_cases())
    def test_matches_brute_force(self, case):
        sel, shape, n_max, margin = case

        def outcome(fn):
            try:
                return fn()
            except PrecisionExhaustedError as exc:
                return str(exc)

        got = outcome(lambda: [
            (lv.zp_rank, lv.finite_length) for lv in
            synthetic_tower_verify(sel, shape, n_max, margin=margin).levels])
        assert got == outcome(lambda: _brute_levels(sel, shape, n_max, margin))

    def test_one_and_two_cofactors(self):
        one = ElementaryModule(P, (phi_gen(1) * series([9, 3]),))
        two = ElementaryModule(P, (phi_gen(1) * phi_gen(2) * xp(),))
        for sel, shape in ((one, MWShape((1,))), (two, MWShape((1, 2)))):
            rep = synthetic_tower_verify(sel, shape, 3)
            assert [(lv.zp_rank, lv.finite_length) for lv in rep.levels] == \
                _brute_levels(sel, shape, 3, 4)

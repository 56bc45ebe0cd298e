"""The logarithmic matrix tower attached to a Frobenius matrix.

Given C_p in GL_{2g}(Z_p) on a basis whose first g vectors span the filtered
piece (a Hodge-compatible ordering), the tower consists of

    C_phi   = C_p * diag(I_g, (1/p) I_g)
    C_n     = diag(I_g, Phi_n I_g) * C_p^{-1}          (n >= 1)
    H_n     = C_n * C_{n-1} * ... * C_1                (H_0 = I)
    M_n     = C_phi^{n+1} * H_n

Matrices with p in the denominator are kept exact as (integral entries,
global denominator exponent) pairs, normalized so the exponent is minimal.
Minor tables, character evaluation of minor sums, and change-of-basis
invariance checks for block-diagonal base changes live here too.

H_n, its (I, J)-minor tables and the character row all come from one kernel,
``WedgeTower``.  C_k = D_k C_p^{-1} with D_k = diag(I_g, Phi_k I_g), so by
Cauchy-Binet the r x r minors of H_n form

    wedge^r H_n = E_n W E_{n-1} W ... E_1 W,   W = wedge^r(C_p^{-1}),
    E_k = wedge^r D_k = diag(Phi_k^{e_I}),   e_I = #(I meet {g+1..2g}):

n constant square matrices (the r-minors of C_p^{-1}, computed once) between
diagonal powers of Phi_k, with no determinant of series anywhere.  ``h_n``
answers from the first exterior power (r = 1, W = C_p^{-1}) and ``minors``
from the g-th; a run that asks for both shares one ``WedgeTower``.
``condition_character`` answers in Z/p^N[X]/(Phi_theta(1+X)), with no
degree cap: there Phi_k is p for k > theta (Washington, Introduction to
Cyclotomic Fields), 0 for k = theta and itself for k < theta, so row
I0 = {1..g} of the g-th power is the same word pushed with those values.
Its entries are exact polynomials of degree at most
g (p^{min(theta - 1, n)} - 1); each is multiplied by its column value
exactly, and the sum is reduced mod Phi_theta once.
The word is pushed on packed ints (Kronecker substitution, one byte slot per
coefficient): every vector entry stays one int from the first step to the
last, each step is whole-int products, and ``series._slot_reducer`` then
brings every slot of an entry back below 4 p^N at once by Barrett steps.
The full power starts from W^T, which is W applied to the identity, the
character row from W's first row (E_n leaves e_1 alone), and W comes from
one Laplace recurrence over rank-indexed subsets (``_compound``).  At the
end each vector is unpacked by one ``series._unpack`` call on the
little-endian bytes of all its entries, read by byte planes.
M_n = p^{-(n+1)} A^{n+1} H_n with the integer matrix A = C_p diag(p I_g, I_g),
so ``m_n`` is one constant combination of the entries of H_n.  ``c_n``
builds series matrices directly, and ``LogMatrix.matmul`` and
``LogMatrix.det`` (``_series_det``) multiply them mod X^{cap+1}
(``_mul_mod_cap``); the tests build their oracle for the kernel from them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import combinations, zip_longest
from operator import mul

from ._value import Value
from .config import is_odd_prime, level_power
from .cyclotomic import cyclo_eval
from .errors import InputError, PrecisionExhaustedError
from .padic import (
    PadicInt,
    _inverse_rows,
    _mat_mul_mod,
    mat_det,  # noqa: F401  perfbench/spans.py rebinds it here by name
    mat_inv,
    mat_mul,
    padic_matrix,
)
from .series import (_SLOT_BOUND, IwasawaSeries, _conv, _pack, _slot_reducer,
                     _strip, _unpack, deg_phi, phi, require_cap)


class FrobeniusData(Value):
    """A 2g x 2g Frobenius matrix C_p, invertible over Z_p, with the columns
    ordered Hodge-compatibly (first g spanning the filtered piece).  ``c_p``
    holds its rows as residues mod p^N, however the given ints lie."""

    # the __dict__ holds _inverse_residues, C_p^{-1} mod p^N as residues
    __slots__ = ("g", "prime", "precision", "c_p", "__dict__")

    def __init__(self, g: int, prime: int, precision: int,
                 c_p: Sequence[Sequence[int]]):
        if not is_odd_prime(prime):
            raise InputError(f"prime must be an odd prime, got {prime}")
        if precision < 1:
            raise InputError(f"precision must be >= 1, got {precision}")
        d = 2 * g
        if g < 1 or len(c_p) != d or any(len(r) != d for r in c_p):
            raise InputError(f"C_p must be {d}x{d}")
        q = prime**precision
        super().__init__(g, prime, precision,
                         tuple(tuple(x % q for x in row) for row in c_p))
        # one elimination both refuses a non-unit determinant and gives the
        # inverse that every tower of this matrix starts from
        try:
            inv = _inverse_rows(self.c_p, prime, precision)
        except InputError:
            raise InputError(
                "C_p must be invertible over Z_p (unit determinant)") from None
        object.__setattr__(self, "_inverse_residues", inv)

    @classmethod
    def elliptic(cls, prime: int, precision: int) -> "FrobeniusData":
        """The g = 1 supersingular shape with trace zero: C_p = [[0,-1],[1,0]]."""
        return cls(1, prime, precision, [[0, -1], [1, 0]])

    def block_anti_diagonal(self) -> bool:
        return _is_block_anti_diagonal(self.c_p, self.g)


class LogMatrix(Value):
    """A matrix p^{-denom_exponent} * entries over the series ring, with the
    exponent normalized to be minimal."""

    __slots__ = ("entries", "denom_exponent")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def normalized(cls, entries: Sequence[Sequence[IwasawaSeries]],
                   denom_exponent: int = 0) -> "LogMatrix":
        if denom_exponent < 0:
            raise InputError("denominator exponent must be >= 0")
        rows = [list(r) for r in entries]
        strip = min(denom_exponent,
                    min(e.min_valuation() for row in rows for e in row))
        if strip > 0:
            rows = [[e.exact_div_p_power(strip) for e in row] for row in rows]
            denom_exponent -= strip
        return cls(tuple(tuple(r) for r in rows), denom_exponent)

    def matmul(self, other: "LogMatrix") -> "LogMatrix":
        """self * other mod X^{cap+1}, every product by ``_mul_mod_cap``."""
        if other.size != self.size:
            raise InputError("size mismatch")
        rows = []
        for a in self.entries:
            row = []
            for b in zip(*other.entries):
                acc = _mul_mod_cap(a[0], b[0])
                for x, y in zip(a[1:], b[1:]):
                    acc = acc + _mul_mod_cap(x, y)
                row.append(acc)
            rows.append(row)
        return LogMatrix.normalized(rows, self.denom_exponent + other.denom_exponent)

    def det(self) -> tuple[IwasawaSeries, int]:
        """(series, d): det mod X^{cap+1} is p^{-d} * series, normalized."""
        d = _series_det([list(r) for r in self.entries])
        total = self.size * self.denom_exponent
        strip = min(total, d.min_valuation())
        if strip:
            d = d.exact_div_p_power(strip)
            total -= strip
        return d, total

    def entry(self, i: int, j: int) -> IwasawaSeries:
        return self.entries[i][j]

    def congruent(self, other: "LogMatrix") -> bool:
        if self.size != other.size or self.denom_exponent != other.denom_exponent:
            return False
        return all(a.congruent(b) for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))


def _mul_mod_cap(a: IwasawaSeries, b: IwasawaSeries) -> IwasawaSeries:
    """a * b mod (p^N, X^{cap+1}), N and cap the smaller of a's and b's: the
    one product of two series that drops the terms above the cap."""
    n, cap, q = a._binop_params(b)
    return IwasawaSeries._reduced(a.prime, n, _strip(
        _conv(a.coeffs, b.coeffs, cap + 1, q)), cap)


def _series_det(rows: list[list[IwasawaSeries]]) -> IwasawaSeries:
    """Laplace expansion along the first row, mod X^{cap+1}."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor_rows = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = _mul_mod_cap(rows[0][j], _series_det(minor_rows))
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _default_cap(frob: FrobeniusData, n: int, *, minors_of_h: bool = False) -> int:
    base = level_power(frob.prime, max(n, 1))
    return (frob.g * base + 8) if minors_of_h else (base + 8)


def c_n(frob: FrobeniusData, n: int, *, degree_cap: int | None = None) -> LogMatrix:
    """C_n = diag(I_g, Phi_n I_g) * C_p^{-1}; p-integral, denominator 0."""
    if n < 1:
        raise InputError("level must be >= 1")
    cap = degree_cap if degree_cap is not None else _default_cap(frob, n)
    p, prec = frob.prime, frob.precision
    phin = phi(n, prime=p, precision=prec, degree_cap=cap)
    rows = [[IwasawaSeries.constant(x, p, prec, cap) for x in row]
            for row in frob._inverse_residues]
    return LogMatrix.normalized(
        rows[:frob.g] + [[e * phin for e in row] for row in rows[frob.g:]], 0)


def _compound(a: Sequence[Sequence[int]], r: int, q: int) -> list[list[int]]:
    """wedge^r of a square int matrix mod q: every r x r minor, rows and
    columns indexed by the r-subsets in lexicographic order.  Laplace
    expansion along the first row of each row set, each smaller minor
    computed once: the s-subsets are indexed by their rank in a list, and
    one table per level gives the rank of each subset with its t-th element
    dropped, so a minor reads its cofactors by two list lookups."""
    d = len(a)
    minor = [[1]]
    rank: dict[tuple[int, ...], int] = {(): 0}
    for s in range(1, r + 1):
        subsets = list(combinations(range(d), s))
        drop = [[rank[c[:t] + c[t + 1:]] for t in range(s)] for c in subsets]
        # column j at an odd position t of its subset reads -a[i][j], kept
        # at index j + d of the signed head row
        signed = [[j + d * (t & 1) for t, j in enumerate(c)] for c in subsets]
        nxt = []
        for rows, dr in zip(subsets, drop):
            head = a[rows[0]]
            get_h = (list(head) + [-x for x in head]).__getitem__
            get_m = minor[dr[0]].__getitem__
            nxt.append([sum(map(mul, map(get_h, cs), map(get_m, dc))) % q
                        for cs, dc in zip(signed, drop)])
        minor = nxt
        rank = {c: i for i, c in enumerate(subsets)}
    return minor


def _w_step(vecs: list[list[int]], mat: Sequence[Sequence[int]],
            reduce: Callable[[int], int]) -> None:
    """v -> (sum_K v_K mat[J][K])_J on every packed vector, in place."""
    for v in vecs:
        v[:] = [reduce(sum(map(mul, v, row))) for row in mat]


def _e_step(vecs: list[list[int]], exps: Sequence[int], phik: Sequence[int],
            length: int, q: int, sb: int,
            reduce: Callable[[int], int]) -> None:
    """Entry K of every packed vector times Phi_k^{e_K} mod X^length, in
    place: Phi_k^e packed once per e, each product cut by one mask."""
    trunc = (1 << (8 * sb * length)) - 1
    power, packed = phik, [0, _pack(phik, sb)]
    for _ in range(2, max(exps) + 1):
        power = _conv(power, phik, min(len(power) + len(phik) - 1, length), q)
        packed.append(_pack(power, sb))
    for v in vecs:
        for j, e in enumerate(exps):
            if e and v[j]:
                v[j] = reduce(v[j] * packed[e] & trunc)


class WedgeTower:
    """The exterior powers of H_n for one Frobenius matrix, each built at
    most once (the product E_n W ... E_1 W of the module docstring), and the
    character row.  Every push shares the Phi_k mod p^N made once per object
    and the C_p^{-1} made once per matrix.  One object serves one run:
    ``h_n``, ``minors`` and ``condition_character`` take it as ``tower=``,
    and without it each call builds its own, so nothing is kept beyond the
    run that made it.
    """

    def __init__(self, frob: FrobeniusData):
        self.frob = frob
        self._phis: list[tuple[int, ...]] = []
        self._powers: dict[tuple[int, int, int],
                           list[list[IwasawaSeries]]] = {}

    def power(self, r: int, n: int, cap: int) -> list[list[IwasawaSeries]]:
        """wedge^r H_n mod (p^N, X^{cap+1}), rows and columns indexed by the
        r-subsets of {1..2g} in lexicographic order."""
        key = (r, n, cap)
        if key not in self._powers:
            self._powers[key] = self._build(r, n, cap)
        return self._powers[key]

    def _build(self, r: int, n: int, cap: int) -> list[list[IwasawaSeries]]:
        frob = self.frob
        p = frob.prime
        # the same DegreeOverflowError, in the same order, as building C_1..C_n
        for k in range(1, n + 1):
            require_cap(f"Phi_{k}", deg_phi(p, k), cap)
        # no entry has degree above max e_K (p^n - 1), max e_K = min(r, g)
        length = min(cap + 1, min(r, frob.g) * (p**n - 1) + 1)
        return [[IwasawaSeries._reduced(p, frob.precision, _strip(cs), cap)
                 for cs in row]
                for row in zip(*self._push(r, n, length, None))]

    def character_row(self, n: int, theta: int) -> list[list[int]]:
        """Row I0 = {1..g} of wedge^g H_n (n >= 1), each Phi_k replaced by p
        for k > theta, 0 for k = theta: exact coefficient lists mod p^N of
        g (p^t - 1) + 1 terms, t = min(theta - 1, n) (0 when theta <= 1)."""
        t = max(0, min(theta - 1, n))
        length = self.frob.g * (self.frob.prime**t - 1) + 1
        return self._push(self.frob.g, n, length, theta)[0]

    def _push(self, r: int, n: int, length: int,
              theta: int | None) -> list[list[list[int]]]:
        """Row vectors pushed from the left through a word in the E_k and a
        constant matrix, then unpacked: per vector, the coefficient lists of
        its entries.  Every entry is one packed int (``_pack``) throughout.
        v -> v M is the combination sum_K v_K M_{K,J} (``_w_step``); entry K
        times Phi_k^{e_K} is one product with Phi_k^e, packed once per
        (k, e) and cut to ``length`` slots by a mask (``_e_step``).  After
        every step ``_slot_reducer`` brings each slot back below 4q, so a
        slot only ever sums max(m, length) products of a reduced slot and a
        residue mod q.

        With ``theta`` None, wedge^r H_n is read off its transpose
        W^T E_1 W^T E_2 ... W^T E_n, which meets the long Phi_n^{e_K} last
        and starts from W^T (W^T applied to the identity).  Otherwise the
        row e_1 E_n W ... E_1 W of ``character_row`` is pushed; e_I0 = 0,
        so it starts from W's first row.  Each vector is unpacked by one
        ``_unpack`` call on its entries' joined little-endian bytes, reading
        only the low bytes of a slot that can hold a value below 4q.
        """
        frob = self.frob
        p = frob.prime
        q = p**frob.precision
        exps = [sum(i >= frob.g for i in s)
                for s in combinations(range(2 * frob.g), r)]
        m = len(exps)
        # an entry no int can hold is refused here, before any Phi_k is built
        sb, reduce = _slot_reducer(q, max(m, length), length)
        live = n if theta is None else max(0, min(theta - 1, n))
        while len(self._phis) < live:
            self._phis.append(phi(len(self._phis) + 1, prime=p,
                                  precision=frob.precision).coeffs)
        w = _compound(frob._inverse_residues, r, q)
        if theta is not None:
            # Phi_k mod Phi_theta(1+X): itself, 0 at k = theta, p above it
            phis = [self._phis[k - 1] if k < theta
                    else [p % q if k > theta else 0] for k in range(1, n + 1)]
            w_cols = list(zip(*w))
            word = [x for k in range(n - 1, 0, -1) for x in (k, w_cols)]
            vecs = [list(w[0])]
        elif n:
            phis = self._phis
            word = [x for k in range(1, n) for x in (k, w)] + [n]
            vecs = [list(col) for col in zip(*w)]
        else:
            phis, word = [], []
            vecs = [[int(j == i) for j in range(m)] for i in range(m)]
        for step in word:
            if isinstance(step, int):
                _e_step(vecs, exps, phis[step - 1], length, q, sb, reduce)
            else:
                _w_step(vecs, step, reduce)
        nbytes = sb * length
        vb = ((_SLOT_BOUND * q - 1).bit_length() + 7) // 8
        out = []
        for v in vecs:
            cs = _unpack(b"".join([x.to_bytes(nbytes, "little") for x in v]),
                         len(v) * length, sb, q, vb)
            out.append([cs[i:i + length] for i in range(0, len(cs), length)])
        return out


def _tower_for(frob: FrobeniusData, tower: WedgeTower | None) -> WedgeTower:
    if tower is None:
        return WedgeTower(frob)
    if tower.frob is not frob:
        raise InputError("the tower was built for another Frobenius matrix")
    return tower


def h_n(frob: FrobeniusData, n: int, *, degree_cap: int | None = None,
        tower: WedgeTower | None = None) -> LogMatrix:
    """H_n = C_n C_{n-1} ... C_1, with H_0 the identity (empty product):
    the first exterior power of ``WedgeTower``."""
    if n < 0:
        raise InputError("level must be >= 0")
    cap = degree_cap if degree_cap is not None else _default_cap(frob, n)
    rows = _tower_for(frob, tower).power(1, n, cap)
    return LogMatrix(tuple(tuple(r) for r in rows), 0)


def m_n(frob: FrobeniusData, n: int, *, degree_cap: int | None = None) -> LogMatrix:
    """M_n = C_phi^{n+1} * H_n, normalized.  C_phi = p^{-1} A with the
    integer matrix A = C_p * diag(p I_g, I_g), so M_n is
    p^{-(n+1)} (A^{n+1} mod p^N) H_n: one constant combination of the
    entries of H_n from ``WedgeTower``.  Raises PrecisionExhaustedError
    when that product is 0 mod p^N and n + 1 >= N: p^{-(n+1)} times it has
    no digit left."""
    if n < 1:
        raise InputError("level must be >= 1")
    cap = degree_cap if degree_cap is not None else _default_cap(frob, n)
    p, prec = frob.prime, frob.precision
    # A = C_p * diag(p I_g, I_g): C_p with its first g columns times p
    a = a_pow = [[x * p if j < frob.g else x for j, x in enumerate(row)]
                 for row in frob.c_p]
    for _ in range(n):
        a_pow = _mat_mul_mod(a_pow, a, p**prec)
    h_cols = list(zip(*h_n(frob, n, degree_cap=cap).entries))
    rows = [[IwasawaSeries(p, prec, tuple(
                sum(map(mul, coefs, cs))
                for cs in zip_longest(*(e.coeffs for e in col), fillvalue=0)),
                cap)
             for col in h_cols]
            for coefs in a_pow]
    if n + 1 >= prec and all(e.is_zero() for row in rows for e in row):
        raise PrecisionExhaustedError(
            f"A^{n + 1} H_{n} is 0 mod {p}^{prec}: M_{n} at level {n} has "
            f"no digit left at precision N = {prec}")
    return LogMatrix.normalized(rows, n + 1)


def index_sets(g: int) -> list[tuple[int, ...]]:
    """All g-element subsets of {1..2g}, lexicographically ordered."""
    return [tuple(s) for s in combinations(range(1, 2 * g + 1), g)]


class MinorTable(Value):
    """All (I, J)-minors of H_n for g-element row/column index sets."""

    __slots__ = ("n", "g", "prime", "precision", "values")

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> IwasawaSeries:
        return self.values[(tuple(sorted(rows)), tuple(sorted(cols)))]


def _require_table(frob: FrobeniusData, n: int) -> None:
    if n < 1:
        raise InputError("level must be >= 1")
    if frob.g > 3:
        raise InputError("minor tables are limited to g <= 3")


def minors(frob: FrobeniusData, n: int, *, degree_cap: int | None = None,
           tower: WedgeTower | None = None) -> MinorTable:
    """Tabulate every (I, J)-minor of H_n; needs g <= 3 to keep the table sane.

    The table is wedge^g H_n, computed from the g-minors of C_p^{-1} by the
    Cauchy-Binet recurrence wedge^g H_k = diag(Phi_k^{e_I}) wedge^g(C_p^{-1})
    wedge^g H_{k-1} (see ``WedgeTower``).  At g = 1 it is H_n itself, read
    off ``tower`` when ``h_n`` already built it at the same cap.
    """
    _require_table(frob, n)
    cap = degree_cap if degree_cap is not None else _default_cap(
        frob, n, minors_of_h=True)
    sets = index_sets(frob.g)
    power = _tower_for(frob, tower).power(frob.g, n, cap)
    values = {(rows_set, cols_set): v
              for rows_set, row in zip(sets, power)
              for cols_set, v in zip(sets, row)}
    return MinorTable(n, frob.g, frob.prime, frob.precision, values)


def _checked_columns(frob: FrobeniusData,
                     col_values: Sequence[IwasawaSeries]) -> list[IwasawaSeries]:
    """The column values, in ``index_sets`` order, each a series at p."""
    sets, p = index_sets(frob.g), frob.prime
    vals = list(col_values)
    if len(vals) != len(sets):
        raise InputError(f"need {len(sets)} column values, got {len(vals)}")
    if not all(isinstance(v, IwasawaSeries) and v.prime == p for v in vals):
        raise InputError(f"column values must be series at p = {p}")
    return vals


def condition_character(frob: FrobeniusData, n: int,
                        col_values: Sequence[IwasawaSeries],
                        theta_level: int | None = None, *,
                        margin: int = 4,
                        tower: WedgeTower | None = None) -> tuple[bool, int]:
    """Evaluate sum_J H_{I0,J,n} * col_J at a character of level theta.

    ``col_values`` supplies the caller's column determinants, one per
    g-element index set J in ``index_sets`` (lexicographic) order, each
    read as the polynomial its coefficients hold.  The sum is answered in
    Z/p^N[X]/(Phi_theta(1+X)) with no degree cap: the exact row of
    ``WedgeTower.character_row`` times the columns, summed as one
    Kronecker dot product and reduced once by ``cyclo_eval``.  Returns
    (is_nonzero mod p^N, minimal coefficient valuation), N the least
    precision of C_p and the columns.  Raises PrecisionExhaustedError when
    every coefficient survives only inside the margin band.
    """
    vals = _checked_columns(frob, col_values)
    _require_table(frob, n)
    p = frob.prime
    level = n if theta_level is None else theta_level
    deg_phi(p, level)  # a level below 0 or past sys.maxsize: before any push
    row = _tower_for(frob, tower).character_row(n, level)
    cols = [v.coeffs for v in vals]
    la, lc = len(row[0]), max(1, *map(len, cols))
    # a slot of the dot product sums len(row) * min(la, lc) products
    top = max(frob.precision, *(v.precision for v in vals))
    sb = (2 * (p**top).bit_length()
          + (len(row) * min(la, lc)).bit_length() + 7) // 8
    prec = min(frob.precision, *(v.precision for v in vals))
    acc = _unpack(sum(_pack(a, sb) * _pack(b, sb) for a, b in zip(row, cols)),
                  la + lc - 1, sb, p**prec)
    ev = cyclo_eval(IwasawaSeries._reduced(p, prec, _strip(acc), len(acc) - 1),
                    level)
    val = ev.min_valuation()
    if val >= ev.precision:
        return False, ev.precision
    if val >= ev.precision - margin:
        raise PrecisionExhaustedError(
            f"character value has valuation {val} within margin {margin} of "
            f"precision {ev.precision}"
        )
    return True, val


def _block_diag(b11: Sequence[Sequence[PadicInt]],
                b22: Sequence[Sequence[PadicInt]], g: int,
                prime: int, precision: int) -> list[list[PadicInt]]:
    zero = PadicInt(prime, 0, precision)
    out = [[zero] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        for j in range(g):
            out[i][j] = b11[i][j]
            out[g + i][g + j] = b22[i][j]
    return out


def _is_block_anti_diagonal(mat: Sequence[Sequence[int]], g: int) -> bool:
    """Whether both diagonal g x g blocks of a residue matrix are 0."""
    return not any(mat[i][j] or mat[g + i][g + j]
                   for i in range(g) for j in range(g))


def change_basis_check(frob: FrobeniusData,
                       b11: Sequence[Sequence[PadicInt]],
                       b22: Sequence[Sequence[PadicInt]],
                       vectors: Sequence[Sequence[IwasawaSeries]]) -> bool:
    """For block-diagonal B_p = diag(B11, B22) acting on column vectors of
    series, check that the vanishing pattern of the first g and last g
    components is preserved both ways, and that conjugating a block
    anti-diagonal C_p by B_p stays block anti-diagonal."""
    g, p, prec = frob.g, frob.prime, frob.precision
    if not frob.block_anti_diagonal():
        raise InputError("change-of-basis check requires block anti-diagonal C_p")
    b11 = [list(r) for r in b11]
    b22 = [list(r) for r in b22]
    for blk in (b11, b22):
        if len(blk) != g or any(len(r) != g for r in blk):
            raise InputError(f"blocks must be {g}x{g}")
        mat_inv(blk)  # raises InputError when not invertible
    bp = _block_diag(b11, b22, g, p, prec)
    conj = mat_mul(mat_mul(bp, padic_matrix(p, prec, frob.c_p)), mat_inv(bp))
    if not _is_block_anti_diagonal([[x.residue for x in row] for row in conj],
                                   g):
        return False
    for v in vectors:
        if len(v) != 2 * g:
            raise InputError(f"vectors must have {2 * g} components")
        image = []
        for i in range(2 * g):
            acc = v[0] * bp[i][0]
            for j in range(1, 2 * g):
                acc = acc + v[j] * bp[i][j]
            image.append(acc)
        for lo, hi in ((0, g), (g, 2 * g)):
            before = all(v[i].is_zero() for i in range(lo, hi))
            after = all(image[i].is_zero() for i in range(lo, hi))
            if before != after:
                return False
    return True

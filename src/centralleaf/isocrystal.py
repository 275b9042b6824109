"""Complete slope divisibility of a lattice under a rational Frobenius
matrix, decided with certificates in both directions.

The isocrystal records and the slope readings live in ``slopes``, which
this module imports from, so a caller that only reads slopes (leaf
reports, the Witt self check) compiles none of the certificate.

The slope factors of the characteristic polynomial come from one p-adic
Hensel lift (``_slope_factors_mod``); whether they lie in Q[x] is read off
that lift, so no factorisation over Q is needed.  Each split of the lift
is x^u * h mod p with h(0) a unit; Newton's iteration lifts only the
factor of degree u, doubling the precision at each step: for u = 1 as the
root r of x - r, on integers, and otherwise from the truncated inverse
h^-1 mod x^u, so no Euclid over F_p[x] is run.  Exact integer polynomial
products and divisions by monic polynomials serve the lift and the check
that the candidate factors over Q multiply back to the characteristic
polynomial.  That lift is skipped when a slope is simple and the
polynomial has no root modulo one of 2, 3, 5, 7 (other than p): its
linear slope factor cannot then lie in Q[x].  When the factors do not lie
in Q[x], the slope pieces are kernels mod p^k, lifted only at the
precisions of ``_HENSEL_SCHEDULE`` whose windows can exceed 2
(``_least_deciding_precision``, a bound read off the multiplicities of
the slopes and the p-denominators of the normalised Frobenius).  The
saturated slope pieces are exact in the first case and p-adic
approximations otherwise; either way one decision (``_slope_report``)
checks that they grade the lattice and reads the period off an orbit
walk of the normalised Frobenius on each piece.

M = a/d is cleared of denominators once, t = a^r0 is carried over the
denominator t_den = d^r0 (r0 the least common denominator of the slopes),
and the slopes are read off one characteristic polynomial of M.  For
r0 = 1, rescaled, it is also the polynomial whose slope factors are
lifted; for r0 > 1 that of t is computed as well.  Its coefficients are
Fractions, which the lift embeds into Z/p^k and the Q[x] check clears to
a monic integer model.  Exact pieces are saturated kernels of integer
polynomials in t, found by one integer elimination
(``linalg.saturated_kernel``) and given in column Hermite form, so they
depend only on the input.  A p-adic piece is found by one elimination
over Z/p^k (``linalg.eliminate_mod_prime_power``), whose pivot valuations
are the window test and whose transform's unpivoted columns are the piece,
saturated since the transform is invertible; it is put in reduced echelon
form (``linalg.echelon_mod_prime_power``) and reported modulo p^margin,
which depends only on the true piece.  Either way the coordinates of a
piece's images are read off the unimodular map s that comes with its
basis, and the orbit walk and the index of the pieces run on Python ints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import ConsistencyError, DatumMismatchError, InconclusiveError
from .slopes import (Matrix, MonomialIsocrystal, RationalIsocrystal, charpoly_and_slopes,
                     newton_polygon_slopes)


# ---------------------------------------------------------------------------
# complete slope divisibility

class SlopeDivisibilityReport(NamedTuple):
    divisible: bool
    slopes: Tuple[Fraction, ...]
    period: Optional[int]
    pieces: Tuple[Matrix, ...]
    reason: str

    def __bool__(self):
        return self.divisible


def _csd_monomial(m: MonomialIsocrystal) -> SlopeDivisibilityReport:
    """The period, the slopes and the pieces, in one pass over the cycles."""
    period, by_slope = 1, {}
    for cycle in m.cycles():
        length = len(cycle) * m.frobenius_power
        period = lcm(period, length)
        by_slope.setdefault(Fraction(sum(m.exponents[j] for j in cycle), length),
                            []).extend(cycle)
    slopes, pieces = [], []
    for s in sorted(by_slope, reverse=True):
        idxs = sorted(by_slope[s])
        slopes += [s] * len(idxs)
        pieces.append(linalg.freeze(
            tuple(1 if i == j else 0 for j in idxs) for i in range(m.size)))
    return SlopeDivisibilityReport(
        True, tuple(slopes), period, tuple(pieces),
        "monomial datum: cycle basis splits the lattice and the decency "
        "equation certifies the slope grading")


def _rational_slope_pieces(t: Matrix, t_den: int, p: int, expected: dict, shift: int,
                           coeffs: Sequence[Fraction]) -> Optional[dict]:
    """Slope pieces when every slope factor of the characteristic polynomial
    lies in Q[x]: {slope: (saturated basis columns, s)} as returned by
    ``linalg.saturated_kernel``, the basis in column Hermite form, or None
    when one does not.

    ``t`` is an integer matrix and t / t_den = M^r0.  ``coeffs`` is the
    charpoly chi of p^shift * t / t_den, p-integral with slopes >= 0.  With
    D the (p-prime) common denominator of its coefficients,
    chi~(y) = D^n chi(y/D) is monic in Z[y].  A slope factor of chi~ that
    lies in Q[y] lies in Z[y] with coefficients of absolute value at most
    2^n ||chi~||_2 (Landau-Mignotte), so it is the symmetric residue of its
    Hensel lift mod p^k once p^k exceeds twice that.  The candidates are
    accepted only when each is isoclinic and their product is chi~; by the
    uniqueness of the slope factorisation over Z_p they are then the slope
    factors, so both answers are certified.  A slope of multiplicity one
    would have the factor y - r with r an integer root of chi~, so when
    chi~ has no root modulo a small prime other than p the answer is None
    before any lift.
    """
    n = len(t)
    den = lcm(*(c.denominator for c in coeffs))
    model = [c.numerator * (den ** (n - i) // c.denominator) for i, c in enumerate(coeffs)]
    if 1 in expected.values() and any(
            all(sum(c * pow(r, i, ell) for i, c in enumerate(model)) % ell
                for r in range(ell))
            for ell in (2, 3, 5, 7) if ell != p):
        return None
    bound = 2 ** (n + 1) * (isqrt(sum(c * c for c in model)) + 1)
    prec = next(k for k in itertools.count(1) if p ** k > bound)
    q = p ** prec
    candidates = {}
    for level, fac in _slope_factors_mod(model, p, prec + n * (max(expected) + shift + 1)):
        # fac lives in y / p^level; undo the substitution, then lift
        cand = [c * p ** (level * (len(fac) - 1 - i)) % q for i, c in enumerate(fac)]
        candidates[level - shift] = [c - q if 2 * c > q else c for c in cand]
    if {s: len(c) - 1 for s, c in candidates.items()} != expected:
        raise ConsistencyError("Hensel slope factors disagree with polygon slopes")
    product = [1]
    for cand in candidates.values():
        product = _poly_mul(product, cand)
    if product != model or any(
            set(newton_polygon_slopes(cand, p)) != {slope + shift}
            for slope, cand in candidates.items()):
        return None
    # the kernel of chi~_s(D p^shift t / t_den) is the slope-s generalised
    # eigenspace; an integer multiple of that matrix has the same kernel
    g = gcd(den * p ** shift, t_den)
    pieces = {}
    for slope, cand in candidates.items():
        pieces[slope] = linalg.saturated_kernel(
            _poly_of_matrix(cand, t, den * p ** shift // g, t_den // g))
        if len(pieces[slope][0]) != expected[slope]:
            raise ConsistencyError("kernel dimension disagrees with multiplicity")
    return pieces


def _poly_of_matrix(coeffs: Sequence[int], t: Matrix, num: int, den: int) -> Matrix:
    """den^k * f(num/den * t) for an integer matrix t and an integer
    polynomial f of degree k (constant term first), by Horner's rule."""
    n = len(t)
    lead, *rest = reversed(coeffs)
    step = linalg.mat_scale(num, t)
    result = [[lead * (i == j) for j in range(n)] for i in range(n)]
    for k, c in enumerate(rest, 1):
        # the first product is by the scalar matrix lead * I
        product = linalg.mat_scale(lead, step) if k == 1 else linalg.mat_mul(result, step)
        result = [list(row) for row in product]
        for i in range(n):
            result[i][i] += c * den ** k
    return linalg.freeze(result)


_HENSEL_SCHEDULE = (6, 12, 24, 48)
_ORBIT_HARD_CAP = 100_000


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Exact product of two integer polynomials (constant term first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a: Sequence[int], f: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of an integer polynomial by a monic one."""
    u = len(f) - 1
    rem, quot = list(a), [0] * max(len(a) - u, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + u]
        if c:
            for j in range(u):
                rem[i + j] -= c * f[j]
    return quot, rem[:u]


def _hensel_split(coeffs: List[int], u: int, p: int, prec: int):
    """Split a monic polynomial chi mod p^prec as F*H with F monic of degree
    u, F = x^u mod p, and H a unit at 0, by quadratic Hensel lifting of F
    alone (von zur Gathen-Gerhard, *Modern Computer Algebra*, 15.4).

    For u = 1, F = x - r and the split runs on integers: Newton's root
    iteration r - chi(r) / chi'(r) from r = 0 doubles the precision of the
    root at each step, with chi(r) and chi'(r) read by Horner's rule mod
    p^k.  Otherwise, mod p, chi is x^u * h_bar with h_bar(0) a unit, so for
    F = x^u the truncated power series s = h_bar^-1 mod x^u inverts
    H = chi div F modulo (F, p).  While F divides chi mod p^k and s inverts
    H modulo (F, p^k), F + (chi mod F) * s mod F divides chi mod p^2k, and
    s * (2 - s * H) mod F inverts the new H modulo p^2k (Newton's
    iteration).  Either way H is the exact quotient chi div F, reduced at
    the end.
    """
    q = p ** prec
    if u == 1:
        r, k = 0, 1
        while k < prec:
            k = min(2 * k, prec)
            mod = p ** k
            value = slope = 0
            for c in reversed(coeffs):
                slope = (slope * r + value) % mod
                value = (value * r + c) % mod
            r = (r - value * pow(slope, -1, mod)) % mod
        f = [-r % q, 1]
        h, rest = _poly_divmod(coeffs, f)
        if rest[0] % q:
            raise ConsistencyError("Hensel invariant violated")
        return f, [c % q for c in h]
    h_bar = [c % p for c in coeffs[u:]]
    inv0 = pow(h_bar[0], -1, p)
    s = [inv0]
    for k in range(1, u):
        s.append(-inv0 * sum(h_bar[j] * s[k - j]
                             for j in range(1, min(k + 1, len(h_bar)))) % p)
    f, k = [0] * u + [1], 1
    h, rest = _poly_divmod(coeffs, f)
    while k < prec:
        k = min(2 * k, prec)
        mod = p ** k
        delta = _poly_divmod(_poly_mul(rest, s), f)[1]
        f = [(x + c) % mod for x, c in zip(f, delta)] + [1]
        h, rest = _poly_divmod(coeffs, f)
        if k < prec:
            sh = _poly_divmod(_poly_mul(s, h), f)[1]
            ssh = _poly_divmod(_poly_mul(s, sh), f)[1]
            s = [(2 * a - b) % mod for a, b in zip(s, ssh)]
    if any(c % q for c in rest):
        raise ConsistencyError("Hensel invariant violated")
    return f, [c % q for c in h]


def _slope_factors_mod(coeffs_frac: Sequence[Fraction], p: int, prec: int):
    """Factor a p-integral monic polynomial by integer slopes, mod p^prec.

    Returns [(slope, coeff list mod p^prec)] covering the full degree; the
    slope-k factor is in the variable y / p^k, and each of the k slope
    levels stripped before it costs at most n digits of its precision.
    """
    q = p ** prec

    def embed(c: Fraction) -> int:
        num, den = c.numerator, c.denominator
        if den % p == 0:
            raise ConsistencyError("polynomial is not p-integral")
        return num * pow(den, -1, q) % q

    work = [embed(c) for c in coeffs_frac]
    factors = []
    offset = 0
    while True:
        d = len(work) - 1
        if d == 0:
            break
        u = next((i for i, c in enumerate(work) if c % p != 0), d)
        if u == 0:
            factors.append((offset, work))
            break
        if u < d:
            f, h = _hensel_split(work, u, p, prec)
            factors.append((offset, h))
            work = f
            d = u
        # strip one slope level: W(y) = work(p*y) / p^d
        new = []
        for k, c in enumerate(work):
            shift = d - k
            if c % (p ** min(shift, prec)) != 0 and shift > 0:
                raise ConsistencyError("slope stripping hit a non-divisible coefficient")
            new.append((c // (p ** shift)) % q if shift > 0 else c % q)
        work = new
        offset += 1
    return factors


def _least_deciding_precision(expected: dict, omegas: dict) -> int:
    """The least precision at which ``_approx_slope_pieces`` can decide.

    For a slope s of multiplicity m its window is prec - (m + 2) * omega_s
    - 1 - emax with emax >= 0 (den_val cancels), and it must exceed 2."""
    return max((m + 2) * omegas[s] + 4 for s, m in expected.items())


def _approx_slope_pieces(t: Matrix, t_den: int, p: int, expected: dict, shift: int,
                         coeffs: Sequence[Fraction],
                         prec: int) -> Optional[Tuple[dict, int]]:
    """Approximate slope pieces when the slope subspaces are not Q-rational.

    Hensel slope factorisation mod p^prec of ``coeffs``, the charpoly of
    p^shift * t / t_den, yields approximate saturated lattice pieces, one
    elimination over Z/p^window each, in reduced echelon form modulo that
    power.  Returns ({slope: (basis columns, s)}, margin), the pieces
    agreeing with the true ones modulo p^margin, or None to retry when the
    margin is not above 2; below ``_least_deciding_precision`` none is lifted.
    The Newton polygon fixes the split degrees at the padded precision, so
    factors whose degrees are not ``expected`` are a fault, not a retry.
    """
    n = len(t)
    t_val = linalg.valuation(t_den, p)
    least = min(linalg.valuation(x, p) for row in t for x in row if x)
    # the slope-s factor is taken at u = p^-s t / t_den, whose entries have
    # p-denominators up to p^omegas[s]
    omegas = {s: max(t_val + s - least, 0) for s in expected}
    if prec < _least_deciding_precision(expected, omegas):
        return None
    slopes_desc = sorted(expected, reverse=True)
    prec_pad = prec + n * (max(slopes_desc) + shift + 1)
    factors = _slope_factors_mod(coeffs, p, prec_pad)
    by_slope = {offset - shift: fac for offset, fac in factors}
    if {s: len(fac) - 1 for s, fac in by_slope.items()} != expected:
        raise ConsistencyError("Hensel slope factors disagree with polygon slopes")

    pieces = {}
    margin = prec  # every window is below prec
    for slope in slopes_desc:
        fac = by_slope[slope]
        # factors live in the substituted variable y = x / p^slope, so the
        # slope factor is taken at u; fac(u) = h / u_den^deg
        omega = omegas[slope]
        u_den = t_den * p ** max(slope, 0)
        h = _poly_of_matrix(fac, t, p ** max(-slope, 0), u_den)
        common = gcd(u_den ** (len(fac) - 1), *(x for row in h for x in row))
        # fac(u) with its denominators cleared: the least integer multiple
        scaled = [[x // common for x in row] for row in h]
        den_val = linalg.valuation(u_den ** (len(fac) - 1) // common, p)
        # entries of `scaled` approximate the true matrix with error
        # valuation at least `approx_window`
        approx_window = prec - len(fac) * omega + den_val
        if approx_window <= 4:
            return None
        # the pivots below the window are the genuine invariant factors; the
        # kernel directions show up as junk of valuation at least the window
        vals, t_cols, t_inv = linalg.eliminate_mod_prime_power(scaled, p, approx_window)
        kernel = [j for j in range(n) if vals[j] is None]
        if len(kernel) != expected[slope]:
            return None
        pivots = [j for j in range(n) if vals[j] is not None]
        emax = max((vals[j] for j in pivots), default=0)
        # the piece agrees with the true one modulo p^window
        window = approx_window - 1 - emax - omega - den_val
        if window <= 2:
            return None
        margin = min(margin, window)
        pieces[slope] = linalg.echelon_mod_prime_power(
            [t_cols[j] for j in kernel], [t_inv[j] for j in kernel + pivots], p, approx_window)
    return pieces, margin


def _piece_frobenius(t: Matrix, t_den: int, p: int, slope: int, piece,
                     q: Optional[int] = None):
    """(c, x) for a piece (basis, s), s * basis the leading identity
    columns as ``linalg.saturated_kernel`` gives (modulo q, as
    ``linalg.echelon_mod_prime_power`` gives, when q is given): u =
    p^-slope * t / t_den is the normalised Frobenius, c the least exponent
    >= 0 making the images of the basis under p^c * u p-integral, and x the
    integer matrix, in the basis, of p^c * u up to a p-adic unit factor.

    s carries the images to their coordinates, all at once.  The basis is
    saturated, so that matrix is p-integral.  With q None the piece is exact
    and x is p^c * u with its p-prime denominators cleared; otherwise the
    basis is approximate and x is read modulo q.  None when the images leave
    the span (modulo q).
    """
    basis, s = piece
    k = len(basis)
    images = linalg.mat_mul(t, linalg.transpose(basis))
    excess = linalg.valuation(t_den, p) + slope
    c = max([0] + [excess - linalg.valuation(v, p) for row in images for v in row if v])
    # p^c * u * basis = images * num / den, with the p-part of den dividing
    # every entry of images * num
    num, den = p ** max(c - slope, 0), t_den * p ** max(slope - c, 0)
    coords = [[v * num for v in row] for row in linalg.mat_mul(s, images)]
    if q is None:
        common = gcd(den, *(v for row in coords for v in row))
        coords = [[v // common for v in row] for row in coords]
    else:
        p_part = p ** linalg.valuation(den, p)
        unit = pow(den // p_part, -1, q)
        coords = [[v // p_part * unit % q for v in row] for row in coords]
    if any(v for row in coords[k:] for v in row):
        return None
    return c, linalg.freeze(coords[:k])


def _orbit_period(x: Matrix, p: int, c: int) -> int:
    """Least k >= 1 with (x / p^c)^k in GL(Z_p), for an exact integer matrix
    x whose charpoly has the one slope c: the orbit walk of the lattice L.

    The Z_p[u]-span H = L + uL + ... + u^(m-1)L of u = x / p^c is u-stable
    (the charpoly of u is p-integral) and u is a unit on it, so u^k L = L
    exactly when u^k L lies in L, and by pigeonhole some k up to the number
    of sublattices of H of L's index does it.  The columns of
    p^(c(m-1)-ci) x^i span p^(c(m-1)) H; their Smith form S * cols * T =
    diag(p^a) gives a basis B (the leading columns of cols * T) with S B =
    diag(p^a), in which u is U = diag(p^-a) S u B, in GL_m(Z_p).  Then u^k
    is integral exactly when p^(a_j - a_i) divides (U^k)_ij, so the walk
    reads U^k modulo p^(max a - min a), and every step has that size.
    """
    m = len(x)
    cols = []
    power = linalg.identity(m)
    for i in range(m):
        cols += [[v * p ** (c * (m - 1 - i)) for v in col]
                 for col in linalg.transpose(power)]
        power = linalg.mat_mul(power, x)
    gens = linalg.transpose(cols)
    index_exp = m * c * (m - 1) - sum(linalg.local_exponents(gens, p))
    if index_exp < 0:
        raise ConsistencyError("lattice hull has negative index exponent")
    if not index_exp:
        return 1  # L is its own hull, so uL = L
    # crude subgroup-count bound for (Z/p^index_exp)^m
    bound = 1
    for _ in range(m):
        bound = min(bound * (index_exp + 1) * p ** (index_exp * (m - 1)), _ORBIT_HARD_CAP)
    divisors, s, t = linalg.smith_full(gens)
    a = [linalg.valuation(d, p) for d in divisors]
    image = linalg.mat_mul(linalg.mat_mul(s, x), linalg.mat_mul(gens, [row[:m] for row in t]))
    if any(v % p ** (a[i] + c) for i, row in enumerate(image) for v in row):
        raise ConsistencyError("normalised Frobenius does not preserve the lattice hull")
    q = p ** (max(a) - min(a))
    step = power = [[v // p ** (a[i] + c) % q for v in row] for i, row in enumerate(image)]
    checks = [(i, j, p ** (a[j] - a[i])) for i in range(m) for j in range(m) if a[j] > a[i]]
    for k in range(1, bound + 1):
        if all(power[i][j] % d == 0 for i, j, d in checks):
            return k
        power = [[v % q for v in row] for row in linalg.mat_mul(power, step)]
    raise (InconclusiveError("orbit walk exceeded the hard cap") if bound >= _ORBIT_HARD_CAP
           else ConsistencyError("orbit of the lattice outran its sublattice count"))


def _orbit_return_steps(x: Matrix, p: int, c: int, margin: int) -> Optional[int]:
    """Least k with x^k == 0 mod p^(ck) and x^k / p^(ck) invertible mod p,
    i.e. (x / p^c)^k in GL(Z_p), for an integer matrix x known modulo
    p^margin; only k with ck < margin, and at most margin of them, can be
    read off.  None when no such k is found."""
    q = p ** margin
    power = x
    for k in range(1, margin + 1):
        unit = p ** (c * k)
        if c * k >= margin:
            break
        if (all(v % unit == 0 for row in power for v in row) and linalg.local_exponents(
                [[v // unit for v in row] for row in power], p).count(0) == len(x)):
            return k
        power = [[v % q for v in row] for row in linalg.mat_mul(power, x)]
    return None


def _slope_report(t: Matrix, t_den: int, p: int, r0: int, slopes, pieces: dict,
                  margin: Optional[int] = None) -> Optional[SlopeDivisibilityReport]:
    """Decide slope divisibility from the saturated slope pieces of
    t / t_den = M^r0, t an integer matrix.

    Exact pieces (``margin`` None) are first certified isoclinic; the answer
    is False when the pieces do not grade the lattice, else True with the
    period of an orbit walk of the normalised Frobenius on every piece.
    Pieces certified modulo p^margin only yield answers that this precision
    decides, and None asks for a retry.
    """
    ordered = sorted(pieces, reverse=True)
    frobenius = {}
    if margin is None:
        for s in ordered:
            frobenius[s] = _piece_frobenius(t, t_den, p, s, pieces[s])
            if frobenius[s] is None or set(newton_polygon_slopes(
                    linalg.charpoly(frobenius[s][1]), p)) != {frobenius[s][0]}:
                raise ConsistencyError("rational slope pieces failed certification")
    # the index of the stacked pieces, or None when they are dependent
    exps = linalg.local_exponents(
        linalg.transpose([col for s in ordered for col in pieces[s][0]]), p)
    det_val = sum(exps) if len(exps) == len(t) else None
    if det_val is None and margin is None:
        raise ConsistencyError("slope pieces of distinct slopes are dependent")
    if det_val is None or margin is not None and det_val >= margin // 2:
        return None
    q = None if margin is None else p ** margin
    piece_matrices = tuple(linalg.transpose(
        [[v % q for v in col] for col in pieces[s][0]] if q else pieces[s][0]) for s in ordered)
    if det_val > 0:
        return SlopeDivisibilityReport(
            False, slopes, None, piece_matrices,
            f"the saturated slope sublattices only span an index-p^{det_val} " + (
                "sublattice, so no slope grading of the standard lattice exists"
                if margin is None else
                f"sublattice (certified at p-adic precision {margin})"))

    if margin is not None:
        frobenius = {s: _piece_frobenius(t, t_den, p, s, pieces[s], q) for s in ordered}
        if None in frobenius.values():
            return None
    period = r0
    for c, x in frobenius.values():
        k = _orbit_period(x, p, c) if margin is None else _orbit_return_steps(x, p, c, margin)
        if k is None:
            return None
        period = lcm(period, k * r0)
    return SlopeDivisibilityReport(
        True, slopes, period, piece_matrices,
        "standard lattice splits into saturated isoclinic summands with the "
        "normalised Frobenius power acting invertibly on each" if margin is None else
        f"lattice splits into isoclinic summands with invertible normalised "
        f"Frobenius (p-adic certificates at precision {margin})")


def _csd_rational(m: RationalIsocrystal) -> SlopeDivisibilityReport:
    p = m.prime
    chi, slopes = charpoly_and_slopes(m)
    r0 = lcm(*(s.denominator for s in slopes))
    expected = {}
    for s in slopes:
        scaled = s.numerator * (r0 // s.denominator)
        expected[scaled] = expected.get(scaled, 0) + 1
    # M = a / d with a integral; from here on t / t_den = M^r0
    d = lcm(*(x.denominator for row in m.matrix for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.matrix]
    t, t_den = linalg.mat_pow(a, r0), d ** r0
    n = len(t)

    if len(expected) == 1:
        identity = linalg.identity(n)
        return _slope_report(t, t_den, p, r0, slopes,
                             {next(iter(expected)): (list(identity), identity)})
    shift = -min(min(expected), 0)
    # the charpoly of p^shift * t / t_den; for r0 = 1 that is chi of
    # p^shift * M, whose x^i coefficient is chi_i * p^(shift * (n - i))
    coeffs = (tuple(c * p ** (shift * (n - i)) for i, c in enumerate(chi)) if r0 == 1 else
              tuple(Fraction(c.numerator * p ** (shift * (n - i)), t_den ** (n - i))
                    for i, c in enumerate(linalg.charpoly(t))))
    pieces = _rational_slope_pieces(t, t_den, p, expected, shift, coeffs)
    if pieces is not None:
        return _slope_report(t, t_den, p, r0, slopes, pieces)
    # slope subspaces are not Q-rational: windowed mod-p^k decision
    for prec in _HENSEL_SCHEDULE:
        approx = _approx_slope_pieces(t, t_den, p, expected, shift, coeffs, prec)
        report = approx and _slope_report(t, t_den, p, r0, slopes, *approx)
        if report is not None:
            return report
    raise InconclusiveError(
        "slope pieces could not be certified within the precision schedule")


def is_completely_slope_divisible(m, *, memo=None) -> SlopeDivisibilityReport:
    """Decide complete slope divisibility with an exact certificate.

    The definition decided is the split one: True exactly when the standard
    lattice L is the direct sum of saturated sublattices L_lambda of the
    slope spaces, with p^(-lambda P) M^P mapping each L_lambda onto itself
    for some P >= 1; the report's period is the least such P.  Oort and
    Zink define complete slope divisibility by a filtration with such
    steps instead (*J. Algebraic Geom.* 11, 2002).  For a Dieudonne lattice,
    with p^-lo M and p^(lo+1) M^-1 integral (slopes in [lo, lo + 1]), the
    two agree, since over a perfect field a completely slope divisible
    p-divisible group is a product of isoclinic ones; every census point
    is such a lattice.  Outside that range they differ: ((4, 1), (0, 2))
    at p = 2 has the filtration Z_2 e1 in L, slope 2 then slope 1, and is
    answered False, its slope lines spanning an index-p sublattice.

    Monomial inputs are always divisible (cycle splitting plus the decency
    equation).  Rational inputs are decided by computing the saturated
    lattice piece of every slope (exactly when the slope factors lie in
    Q[x], p-adically otherwise), checking that the pieces grade the
    standard lattice and walking the orbit of each piece under the
    normalised Frobenius for the period.  Both the True and False answers
    are certified; InconclusiveError means only that a budget ran out: the
    precision schedule before the p-adic pieces decided the answer, or the
    orbit walk's hard cap.

    ``memo`` is an optional dict owned by the caller: a rational input
    whose (matrix, prime) it already holds gets the stored report, and a
    new one is decided and stored.  The report is the same with or
    without it.
    """
    if isinstance(m, MonomialIsocrystal):
        return _csd_monomial(m)
    if isinstance(m, RationalIsocrystal):
        if memo is None:
            return _csd_rational(m)
        key = (m.matrix, m.prime)
        report = memo.get(key)
        if report is None:
            report = memo[key] = _csd_rational(m)
        return report
    raise DatumMismatchError("expected a monomial or rational isocrystal")

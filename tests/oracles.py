"""Reference implementations that the tests compare the library against.

None of these is on a path of the library or its CLI; each is a second,
slower derivation of something the library computes another way:

* ``bruhat_leq``: the Bruhat order by the subword recursion; a window
  filtered by it re-derives the admissible set;
* ``permissible_set``: the mu-permissible set of Kottwitz-Rapoport, read
  from the action on the base alcove's vertices and the dominance order,
  with no Bruhat order;
* ``decent_representative``: the monomial lift of x with the least period
  at which the decency equation holds, verified symbolically in p;
* ``slopes_via_restriction``: slopes as the Newton polygon of the
  characteristic polynomial of the restriction-of-scalars expansion;
* ``replay_slope_certificate``: an exact slope-divisibility report checked
  from the input matrix, p and the report alone, with Fraction
  determinants, solves and matrix powers (no Smith form, Hensel lift or
  kernel);
* ``canonical_span_mod``: the reduced column echelon form modulo p^m of a
  saturated summand, from any spanning set, by plain integer steps.
"""

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from centralleaf import linalg
from centralleaf.affine import (_SIGMA_ORDER_CAP, AffineElement, NewtonPoint,
                                _lift, _same_datum, affine_generators,
                                compose, identity_element, invert, kottwitz, length,
                                newton_point, omega_and_word, translation_element)
from centralleaf.errors import (ConsistencyError, DatumMismatchError,
                               UnsupportedOperationError)
from centralleaf.rootdata import RootDatum, dominance_leq, dominant_rep
from centralleaf.slopes import (MonomialIsocrystal, RationalIsocrystal,
                                restriction_of_scalars, slopes_charpoly)

Matrix = Tuple[Tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Bruhat order

def bruhat_leq(x: AffineElement, y: AffineElement) -> bool:
    """Bruhat order on the extended affine Weyl group.

    Elements in different length-zero cosets are incomparable (False).
    The test runs the subword recursion against one fixed reduced word of
    y's affine part; the result is independent of the chosen word.
    """
    _same_datum(x, y)
    tau_x, _ = omega_and_word(x)
    tau_y, word_y = omega_and_word(y)
    if tau_x != tau_y:
        return False
    u = compose(invert(tau_x), x)
    gens = affine_generators(x.datum)
    memo: Dict = {}

    def recurse(u_elem: AffineElement, suffix: Tuple[int, ...]) -> bool:
        if length(u_elem) == 0:
            # inside the affine Weyl group only the identity has length zero
            return u_elem == identity_element(x.datum)
        if not suffix:
            return False
        key = (u_elem, suffix)
        hit = memo.get(key)
        if hit is not None:
            return hit
        s = gens[suffix[0]]
        su = compose(s, u_elem)
        if length(su) < length(u_elem):
            result = recurse(su, suffix[1:])
        else:
            result = recurse(u_elem, suffix[1:])
        memo[key] = result
        return result

    if length(u) == 0:
        return u == identity_element(x.datum)
    return recurse(u, word_y)


# ---------------------------------------------------------------------------
# permissible sets

def alcove_vertices(datum: RootDatum) -> Tuple[Tuple[Fraction, ...], ...]:
    """The vertices of the base alcove {<alpha_i, v> >= 0, <theta, v> <= 1}
    modulo the centre, for an irreducible root system with highest root
    theta = sum_i c_i alpha_i: 0 and, for each i, the point of the coroot
    span with <alpha_j, v> = delta_ij / c_i."""
    coords = dict(zip(datum.positive_roots, datum.positive_coordinates))
    theta = max(datum.positive_roots, key=lambda chi: sum(coords[chi]))
    cartan = [[datum.pair(alpha, check) for alpha in datum.simple_roots]
              for check in datum.simple_coroots]
    vertices = [(Fraction(0),) * datum.cochar_rank]
    for i, c in enumerate(coords[theta]):
        target = [Fraction(int(i == j)) / c for j in range(datum.rank)]
        ys = linalg.solve_columns(cartan, target)
        vertices.append(tuple(sum(Fraction(y) * check[k] for y, check
                                  in zip(ys, datum.simple_coroots))
                              for k in range(datum.cochar_rank)))
    return tuple(vertices)


def permissible_set(datum: RootDatum, mu) -> FrozenSet[AffineElement]:
    """Perm(mu): the x = t^lambda w in the Kottwitz class of t^mu with
    x(a) - a = lambda + w a - a in Conv(W mu) for every vertex a of the base
    alcove (Kottwitz-Rapoport).  v lies in Conv(W mu) exactly when its
    dominant representative is below mu in the dominance order.  The vertex
    a = 0 asks lambda itself to lie in the hull, which prunes the window to
    the box of the orbit W mu first."""
    mu = tuple(int(v) for v in mu)
    orbit = [linalg.mat_vec(w, mu) for w in datum.weyl_elements]
    lo, hi = min(map(min, orbit)), max(map(max, orbit))

    def in_hull(v):
        return dominance_leq(datum, dominant_rep(datum, v), mu)

    target = kottwitz(translation_element(datum, mu))
    vertices = alcove_vertices(datum)[1:]
    out = set()
    for lam in itertools.product(range(lo, hi + 1), repeat=datum.cochar_rank):
        if not in_hull(lam) or kottwitz(translation_element(datum, lam)) != target:
            continue
        for w, finite in enumerate(datum.weyl_elements):
            if all(in_hull(tuple(l + m - v for l, m, v in zip(lam, linalg.mat_vec(finite, a), a)))
                   for a in vertices):
                out.add(AffineElement(datum, lam, w))
    return frozenset(out)


# ---------------------------------------------------------------------------
# decent lifts

def monomial_identity(n: int) -> MonomialIsocrystal:
    return MonomialIsocrystal(n, tuple(range(n)), (0,) * n)


def monomial_compose(a: MonomialIsocrystal, b: MonomialIsocrystal) -> MonomialIsocrystal:
    """Product a*b of the underlying monomial matrices (frobenius_power 1)."""
    if a.size != b.size:
        raise DatumMismatchError("monomial sizes differ")
    perm = tuple(a.permutation[b.permutation[j]] for j in range(a.size))
    exps = tuple(b.exponents[j] + a.exponents[b.permutation[j]] for j in range(a.size))
    return MonomialIsocrystal(a.size, perm, exps)


class DecentLift(NamedTuple):
    period: int
    matrix: MonomialIsocrystal
    nu: NewtonPoint


def _sigma_on_weights(datum: RootDatum, sigma: Optional[Matrix]) -> Tuple[int, ...]:
    """The index of sigma chi = sigma^-T chi in ``rep_weights`` for each
    weight chi, found by search; UnsupportedOperationError unless sigma
    permutes the weights."""
    weights = datum.rep_weights
    if sigma is None:
        return tuple(range(len(weights)))
    on_chars = linalg.transpose(linalg.mat_inv(sigma))
    images = [linalg.mat_vec(on_chars, chi) for chi in weights]
    if len(set(weights)) != len(weights) or sorted(images) != sorted(weights):
        raise UnsupportedOperationError(
            "automorphism does not permute the representation weights")
    return tuple(map(weights.index, images))


def decent_representative(x: AffineElement,
                          sigma: Optional[Matrix] = None) -> DecentLift:
    """The monomial lift b of x in the attached representation, with the
    least period r at which (b sigma)^r = p^{r nu} sigma^r holds exactly.

    At the Newton period, (w sigma)^r = 1 on X_*; decency also needs
    sigma^r to fix the weight lines, so r runs over the multiples of that
    period, capped like the loop of ``newton_point``.  The verification is
    symbolic in p: both sides are monomial matrices whose permutation and
    exponent data are compared directly.
    """
    datum = x.datum
    nu = newton_point(x, sigma)
    lift = _lift(datum, datum.rep_weights, datum.weyl_actions[x.w].weights, x.translation)
    n = lift.size
    s_mono = MonomialIsocrystal(n, _sigma_on_weights(datum, sigma), (0,) * n)
    r = nu.period
    nu_exps = []
    for chi in datum.rep_weights:
        e = Fraction(datum.pair(chi, nu.vector)) * r
        if e.denominator != 1:
            raise ConsistencyError("r*nu pairing is not integral")
        nu_exps.append(int(e))
    twisted = monomial_compose(lift, s_mono)
    step, s_step = monomial_identity(n), monomial_identity(n)
    for _ in range(r):
        step = monomial_compose(step, twisted)
        s_step = monomial_compose(s_step, s_mono)
    power = s_power = monomial_identity(n)
    for k in range(1, _SIGMA_ORDER_CAP // r + 1):
        power, s_power = monomial_compose(power, step), monomial_compose(s_power, s_step)
        target = monomial_compose(MonomialIsocrystal(
            n, tuple(range(n)), tuple(k * e for e in nu_exps)), s_power)
        if power == target:
            return DecentLift(k * r, lift, nu)
    raise ConsistencyError("decency equation failed for the monomial lift")


# ---------------------------------------------------------------------------
# slopes

def slopes_via_restriction(m: MonomialIsocrystal, p: int) -> Tuple[Fraction, ...]:
    """Char-poly slopes of the restriction-of-scalars expansion, with
    multiplicities divided back by the twisting degree r."""
    r = m.frobenius_power
    expanded = restriction_of_scalars(m)
    slopes = slopes_charpoly(RationalIsocrystal(expanded.rational_matrix(p), p))
    if r == 1:
        return slopes
    out = []
    i = 0
    while i < len(slopes):
        run = [s for s in slopes if s == slopes[i]]
        if len(run) % r != 0:
            raise ConsistencyError("expanded multiplicities not divisible by r")
        out.extend([slopes[i]] * (len(run) // r))
        i += len(run)
    return tuple(out)


# ---------------------------------------------------------------------------
# slope-divisibility certificates

def _on_span(matrix, cols) -> Optional[Matrix]:
    """The matrix of ``matrix`` on the Q-span of ``cols``, in that basis
    (rows), or None when the span is not stable."""
    coords = [linalg.solve_columns(cols, linalg.mat_vec(matrix, c)) for c in cols]
    return None if None in coords else linalg.transpose(coords)


def _minor_valuation(rows, p: int) -> Optional[int]:
    """v_p of the gcd of the maximal minors of a tall matrix (rows), None
    when they all vanish."""
    k = len(rows[0])
    vals = [linalg.valuation(linalg.det([rows[i] for i in idx]), p)
            for idx in itertools.combinations(range(len(rows)), k)]
    return min((v for v in vals if v is not None), default=None)


def _isoclinic(x, p: int, slope: Fraction) -> bool:
    """Whether the Newton polygon of det(yI - x) is the line of ``slope``:
    the sum e_j of the principal j-minors has valuation >= j * slope, and
    the determinant exactly k * slope."""
    k = len(x)
    for j in range(1, k + 1):
        e_j = sum(linalg.det([[x[a][b] for b in idx] for a in idx])
                  for idx in itertools.combinations(range(k), j))
        v = linalg.valuation(e_j, p)
        if j == k and v != k * slope or v is not None and v < j * slope:
            return False
    return True


def _normalised_power_is_unit(power, cols, p: int, slope: Fraction, steps: int) -> bool:
    """Whether p^-(slope * steps) * power maps the Z_p-span of ``cols`` onto
    itself: the span is stable and the matrix on it lies in GL_k(Z_p)."""
    e = slope * steps
    x = _on_span(power, cols)
    if e.denominator != 1 or x is None:
        return False
    # one division by p^e per entry, not one valuation step per digit: the
    # entries of a long period's power have tens of thousands of digits
    normalised = [[v / Fraction(p) ** int(e) for v in row] for row in x]
    if any(v.denominator % p == 0 for row in normalised for v in row):
        return False
    d = linalg.det(normalised)
    return d != 0 and d.numerator % p != 0 and d.denominator % p != 0


def replay_slope_certificate(matrix, p: int, report) -> Optional[str]:
    """Replay an exact ``SlopeDivisibilityReport`` of the rational Frobenius
    matrix M from M, p and the report alone; None when it holds, else the
    first check that fails.

    Piece i (the pieces come in descending slope order) must be an integer
    basis of rank the multiplicity of the i-th distinct slope lambda_i.
    Only Fraction ``det``, ``solve_columns`` and matrix powers are used.

    * True, with period P: the stacked pieces have unit determinant (they
      grade the lattice); each piece is stable under M^P with
      p^(-lambda_i P) M^P in GL_k(Z_p) on it (so it is isoclinic of slope
      lambda_i, and the slopes are the reported ones); and no proper
      divisor of P does the same.
    * False: each piece is M-stable, p-saturated (its maximal minors have
      a unit gcd) and isoclinic of slope lambda_i; slope spaces are
      unique, so these are the slope sublattices, and the stacked
      determinant has the positive valuation the reason states.
    """
    n = len(matrix)
    distinct = sorted(set(report.slopes), reverse=True)
    if len(report.slopes) != n or len(report.pieces) != len(distinct):
        return "the slopes or pieces do not cover the rank"
    pieces = [tuple(zip(*piece)) for piece in report.pieces]  # columns
    for cols, slope in zip(pieces, distinct):
        if len(cols) != report.slopes.count(slope) or any(len(c) != n for c in cols):
            return f"the slope-{slope} piece has the wrong shape"
        if any(Fraction(v).denominator % p == 0 for c in cols for v in c):
            return f"the slope-{slope} piece is not p-integral"
    index = linalg.valuation(linalg.det(linalg.transpose(
        [c for cols in pieces for c in cols])), p)
    if index is None:
        return "the pieces are dependent"
    if not report.divisible:
        for cols, slope in zip(pieces, distinct):
            x = _on_span(matrix, cols)
            if x is None:
                return f"the slope-{slope} piece is not M-stable"
            if _minor_valuation(linalg.transpose(cols), p) != 0:
                return f"the slope-{slope} piece is not saturated"
            if not _isoclinic(x, p, slope):
                return f"the slope-{slope} piece is not isoclinic of its slope"
        if index == 0 or f"index-p^{index} " not in report.reason:
            return f"the pieces span an index-p^{index} sublattice, against the reason"
        return None
    period = report.period
    if index != 0:
        return f"the pieces span an index-p^{index} sublattice of a True report"

    def works(steps: int) -> bool:
        power = linalg.mat_pow(matrix, steps)
        return all(_normalised_power_is_unit(power, cols, p, slope, steps)
                   for cols, slope in zip(pieces, distinct))

    if not isinstance(period, int) or period < 1 or not works(period):
        return f"the normalised Frobenius power at period {period} is not a unit"
    shorter = next((d for d in range(1, period) if period % d == 0 and works(d)), None)
    if shorter is not None:
        return f"period {period} is not minimal: {shorter} works"
    return None


def canonical_span_mod(cols, p: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """The canonical basis (columns) modulo p^m of the span of ``cols``, a
    spanning set of a saturated summand of (Z/p^m)^n.

    Rows are taken from the bottom up.  At each row the first column not
    yet placed with a unit entry there is scaled to make it 1, and every
    other column, placed or not, is cleared there.  So each column has a 1
    at its pivot row (its lowest unit entry), every other column is 0 at
    that row, and the entries lie in [0, p^m); the columns come by rising
    pivot row.  The pivot rows are those of the span modulo p, and a vector
    of a summand is fixed by its entries at them, so a summand has one such
    basis: this depends only on the span.  A column left nonzero without a
    unit pivot means the span is no summand: that raises ConsistencyError.
    """
    q = p ** m
    work = [[x % q for x in col] for col in cols]
    height = len(work[0]) if work else 0
    live, placed = list(range(len(work))), []
    for i in range(height - 1, -1, -1):
        k = next((j for j in live if work[j][i] % p), None)
        if k is None:
            continue
        live.remove(k)
        unit = pow(work[k][i], -1, q)
        work[k] = [x * unit % q for x in work[k]]
        for j in range(len(work)):
            f = work[j][i]
            if j != k and f:
                work[j] = [(x - f * y) % q for x, y in zip(work[j], work[k])]
        placed.append(k)
    if any(x for j in live for x in work[j]):
        raise ConsistencyError("the columns do not span a saturated summand")
    return tuple(tuple(work[j]) for j in reversed(placed))

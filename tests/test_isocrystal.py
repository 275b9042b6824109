import hashlib
import importlib.util
import itertools
import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from centralleaf import isocrystal, lattices, linalg
from centralleaf.affine import (adjoint_lift, element, enumerate_elements,
                                newton_point, rep_lift)
from centralleaf.errors import (ConfigurationError, ConsistencyError,
                               InconclusiveError, PreconditionError,
                               SingularInputError)
from centralleaf.isocrystal import is_completely_slope_divisible
from centralleaf.lattices import adlv_points
from centralleaf.rootdata import build_classical
from centralleaf.serialize import element_from_doc
from centralleaf.slopes import (MonomialIsocrystal, RationalIsocrystal, WeightedRep,
                                adjoint_rep, monomial_from_rational,
                                newton_polygon_slopes, restriction_of_scalars,
                                slopes_charpoly, slopes_monomial, slopes_via_weights,
                                standard_rep)

from oracles import decent_representative, replay_slope_certificate, slopes_via_restriction

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
GSP4 = build_classical("GSp", 4)


def test_slopes_monomial_examples():
    assert slopes_monomial(MonomialIsocrystal(2, (1, 0), (1, 0))) == (F(1, 2), F(1, 2))
    assert slopes_monomial(MonomialIsocrystal(2, (0, 1), (1, 0))) == (1, 0)
    assert slopes_monomial(MonomialIsocrystal(3, (1, 2, 0), (1, 1, 0))) == (F(2, 3),) * 3


def test_slopes_charpoly_examples():
    assert slopes_charpoly(RationalIsocrystal(((0, 1), (2, 0)), 2)) == (F(1, 2), F(1, 2))
    assert slopes_charpoly(RationalIsocrystal(((2, 0), (0, 1)), 2)) == (1, 0)
    assert slopes_charpoly(RationalIsocrystal(((2, 1), (0, 1)), 2)) == (1, 0)
    with pytest.raises(SingularInputError):
        slopes_charpoly(RationalIsocrystal(((1, 1), (1, 1)), 2))


def test_monomial_validation():
    with pytest.raises(ConfigurationError, match="not a bijection"):
        MonomialIsocrystal(2, (0, 0), (0, 0))
    with pytest.raises(ConfigurationError, match="wrong length"):
        MonomialIsocrystal(2, (0, 1), (0,))
    with pytest.raises(ConfigurationError, match="frobenius_power must be positive"):
        MonomialIsocrystal(size=2, permutation=(0, 1), exponents=(0, 0), frobenius_power=0)
    assert MonomialIsocrystal(2, (1, 0), (1, 0)).frobenius_power == 1
    with pytest.raises(ConfigurationError, match="weight of wrong length"):
        WeightedRep(GL2, "short", ((1, 0), (1,)))


def _random_monomial(rng, max_n=4, max_r=2, span=2):
    n = rng.randint(1, max_n)
    perm = list(range(n))
    rng.shuffle(perm)
    exps = tuple(rng.randint(-span, span) for _ in range(n))
    r = rng.randint(1, max_r)
    return MonomialIsocrystal(n, tuple(perm), exps, r)


def test_oracle_equivalence_exhaustive_small():
    # all monomials with n <= 3, exponents in [-1, 1], r <= 2, both primes
    for n in (1, 2, 3):
        for perm in itertools.permutations(range(n)):
            for exps in itertools.product((-1, 0, 1), repeat=n):
                for r in (1, 2):
                    m = MonomialIsocrystal(n, perm, exps, r)
                    expected = slopes_monomial(m)
                    for p in (2, 3):
                        assert slopes_via_restriction(m, p) == expected


def test_oracle_equivalence_random_large():
    rng = random.Random(314)
    for _ in range(60):
        m = _random_monomial(rng, max_n=5, max_r=3)
        assert slopes_via_restriction(m, 2) == slopes_monomial(m)


def test_slopes_sum_matches_exponents():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_monomial(rng)
        slopes = slopes_monomial(m)
        assert sum(slopes) == F(sum(m.exponents), m.frobenius_power)


def test_slopes_via_weights_examples():
    assert slopes_via_weights(adjoint_rep(GL2), (1, 0)) == (1, 0, 0, -1)
    assert slopes_via_weights(standard_rep(GL2), (F(1, 2), F(1, 2))) == (F(1, 2), F(1, 2))
    # central nu pairs to a constant on any rep
    rep = standard_rep(GL3)
    assert slopes_via_weights(rep, (2, 2, 2)) == (2, 2, 2)


@pytest.mark.parametrize("nu", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_slopes_via_weights_refuses_a_vector_of_the_wrong_length(nu):
    # used to raise DatumMismatchError, the error for an element of another datum
    with pytest.raises(PreconditionError, match="length"):
        slopes_via_weights(adjoint_rep(GL3), nu)


def test_weight_consistency_with_decent_lifts():
    # standard-rep pairings of nu agree with the cycle slopes of the lift
    rng = random.Random(99)
    for n in (2, 3, 4):
        datum = build_classical("GL", n)
        window = enumerate_elements(datum, 2, 2)
        rep = standard_rep(datum)
        for _ in range(500 // 3):
            x = rng.choice(window)
            nu = newton_point(x)
            lift = decent_representative(x)
            assert slopes_via_weights(rep, nu.vector) == slopes_monomial(lift.matrix)


def _positive_adjoint_slopes(x, sigma=None):
    return sum(s for s in slopes_monomial(adjoint_lift(x, sigma)) if s > 0)


def test_adjoint_negative_part_counts_leaf_dimension():
    # the negative part of the weight pairings against nu equals the positive
    # part of the slopes read off the cycles of the adjoint monomial lift
    rng = random.Random(42)
    for datum in (GL2, GL3, GSP4):
        window = enumerate_elements(datum, 2, 2)
        for _ in range(40):
            x = rng.choice(window)
            nu_dom = newton_point(x).dominant
            adjoint = slopes_via_weights(adjoint_rep(datum), nu_dom)
            neg_weight = -sum(s for s in adjoint if s < 0)
            assert neg_weight == _positive_adjoint_slopes(x)


def test_adjoint_lift_oracle_examples():
    # Newton points (1,0), (1,0,0) and (1/2,1/2) give leaf dimensions 1, 2, 3
    sp4 = build_classical("Sp", 4)
    assert _positive_adjoint_slopes(element(GL2, (1, 0))) == 1
    assert _positive_adjoint_slopes(element(GL3, (1, 0, 0))) == 2
    x = element(sp4, (1, 0), sp4.simple_reflections[0])
    assert newton_point(x).dominant == (F(1, 2), F(1, 2))
    assert _positive_adjoint_slopes(x) == 3


def test_tensor_square_additivity():
    rng = random.Random(6)
    for _ in range(30):
        m = _random_monomial(rng, max_n=3, max_r=1, span=1)
        base = slopes_monomial(m)
        rep_slopes = sorted((a + b for a in base for b in base), reverse=True)
        expanded = restriction_of_scalars(m)
        mat = expanded.rational_matrix(2)
        n = expanded.size
        tensor = [[mat[i1][j1] * mat[i2][j2]
                   for j1 in range(n) for j2 in range(n)]
                  for i1 in range(n) for i2 in range(n)]
        assert list(slopes_charpoly(RationalIsocrystal(tensor, 2))) == rep_slopes


def test_csd_monomial_always_true():
    basic = is_completely_slope_divisible(MonomialIsocrystal(2, (1, 0), (1, 0)))
    assert basic.divisible
    assert (basic.period, basic.slopes) == (2, (F(1, 2), F(1, 2)))
    rng = random.Random(21)
    for _ in range(50):
        m = _random_monomial(rng)
        report = is_completely_slope_divisible(m)
        assert report.divisible
        assert report.slopes == slopes_monomial(m)


def test_csd_rational_examples():
    assert is_completely_slope_divisible(
        RationalIsocrystal(((2, 0), (0, 1)), 2)).divisible
    report = is_completely_slope_divisible(RationalIsocrystal(((0, 1), (2, 0)), 2))
    assert report.divisible and report.period == 2
    assert report.slopes == (F(1, 2), F(1, 2))


def test_csd_upper_triangular_splits():
    # [[p,1],[0,1]] splits rationally: the slope-0 line (1, 1-p) complements
    # the slope-1 line e1 with unit index, so the answer is True (the spec's
    # worked example claims False, contradicting its own splitting
    # criterion; see the n=2 brute-force oracle below)
    report = is_completely_slope_divisible(RationalIsocrystal(((2, 1), (0, 1)), 2))
    assert report.divisible
    assert _brute_force_two_slope_split(((F(2), F(1)), (F(0), F(1))), 2, (1, 0))


def _brute_force_two_slope_split(matrix, p, slopes_int):
    """Search rank-1 eigen-lines mod p^6 whose stacked determinant is a
    unit; independent oracle for 2x2 distinct-integer-slope matrices."""
    q = p ** 6
    den = 1
    from math import lcm as _lcm
    for row in matrix:
        for x in row:
            den = _lcm(den, F(x).denominator)
    scaled = [[int(x * den) for x in row] for row in matrix]
    shift = linalg.valuation(den, p)
    lines = []
    for a, b in [(1, t) for t in range(q)] + [(t * p, 1) for t in range(q // p)]:
        image = (scaled[0][0] * a + scaled[0][1] * b,
                 scaled[1][0] * a + scaled[1][1] * b)
        cross = image[0] * b - image[1] * a
        if cross % q == 0:
            eig = None
            for coord, vec in ((image[0], a), (image[1], b)):
                if vec % p != 0:
                    eig = F(coord, vec)
            if eig is None or eig == 0:
                continue
            val = linalg.valuation(eig, p) - shift
            lines.append(((a, b), val))
    for (v1, s1), (v2, s2) in itertools.combinations(lines, 2):
        det = v1[0] * v2[1] - v1[1] * v2[0]
        if det % p != 0 and {s1, s2} == set(slopes_int):
            return True
    return False


def test_csd_certified_false():
    # diag(4,1) conjugated by an index-2 change of basis: the saturated
    # slope pieces only span an index-p sublattice
    a = ((1, 1), (0, 2))
    d = ((4, 0), (0, 1))
    m = linalg.mat_mul(linalg.mat_mul(a, d), linalg.mat_inv(a))
    report = is_completely_slope_divisible(RationalIsocrystal(m, 2))
    assert not report.divisible
    assert "index-p^1" in report.reason
    assert not _brute_force_two_slope_split(m, 2, (2, 0))


@pytest.mark.parametrize("p,u,v", [(2, 1, 1), (2, -1, 1), (2, 1, 5), (2, 7, -7),
                                   (3, 1, 1), (3, -1, -1), (3, 1, 7), (3, 5, -1)])
def test_csd_mod_pk_certified_false(p, u, v):
    # companion matrix of x^2 + p u x + p^3 v: eigenvalues of valuation 1 and
    # 2 differ by valuation 1, so the slope pieces span an index-p sublattice;
    # the discriminant is not a square, so the pieces are not Q-rational
    disc = (p * u) ** 2 - 4 * p ** 3 * v
    assert disc < 0 or math.isqrt(disc) ** 2 != disc
    m = ((0, -p ** 3 * v), (1, -p * u))
    report = is_completely_slope_divisible(RationalIsocrystal(m, p))
    assert not report.divisible
    assert "precision" in report.reason
    assert not _brute_force_two_slope_split(m, p, (2, 1))
    if (p, u, v) == (2, 1, 1):
        assert report.reason == ("the saturated slope sublattices only span an "
                                 "index-p^1 sublattice (certified at p-adic precision 5)")


def test_csd_irrational_slope_spaces():
    # chi = x^2 + x + 2 over Q_2: slope pieces are 2-adically irrational
    report = is_completely_slope_divisible(RationalIsocrystal(((0, -2), (1, -1)), 2))
    assert report.divisible
    assert _brute_force_two_slope_split(((F(0), F(-2)), (F(1), F(-1))), 2, (1, 0))


def test_hensel_factors_of_other_degrees_are_a_fault():
    # the Newton polygon fixes the split degrees at the padded precision, so
    # slopes that disagree with the factors raise instead of retrying
    t = ((0, -2), (1, -1))
    coeffs = tuple(F(c) for c in linalg.charpoly(t))
    assert isocrystal._approx_slope_pieces(t, 1, 2, {1: 1, 0: 1}, 0, coeffs, 12)[1] == 8
    for expected in ({0: 1, 2: 1}, {0: 2}):
        with pytest.raises(ConsistencyError, match="disagree with polygon slopes"):
            isocrystal._approx_slope_pieces(t, 1, 2, expected, 0, coeffs, 12)


def test_exhausted_precision_is_inconclusive(monkeypatch):
    # companion(x^2 + x + 2) at p = 2 is decided at p^12, with margin 8
    m = RationalIsocrystal(((0, -2), (1, -1)), 2)
    assert "precision 8" in is_completely_slope_divisible(m).reason
    monkeypatch.setattr(isocrystal, "_HENSEL_SCHEDULE", (6,))
    with pytest.raises(InconclusiveError, match="precision schedule"):
        is_completely_slope_divisible(m)


def test_csd_refuses_a_singular_matrix():
    with pytest.raises(SingularInputError, match="^isocrystal matrix is not invertible$"):
        is_completely_slope_divisible(RationalIsocrystal(((1, 1), (1, 1)), 2))


def test_mod_pk_input_lifts_once_at_its_first_deciding_precision():
    # chi = x^2 + x + 2 has no root mod 3, so no rational slope factor is
    # lifted; at p^6 the slope-1 window is at most 6 - 3 - 1, so the one lift
    # is at p^12, padded by n * (max slope + 1) = 4 digits
    m = RationalIsocrystal(((0, -2), (1, -1)), 2)
    with mock.patch.object(isocrystal, "_slope_factors_mod",
                           wraps=isocrystal._slope_factors_mod) as lift:
        report = is_completely_slope_divisible(m)
    assert "precision 8" in report.reason
    assert [c.args[2] for c in lift.call_args_list] == [16]


# g diag(4, 2, 1) g^-1 with g in GL3(Z): slopes 2, 1, 0 at p = 2, Q-rational
_DIAGONAL_SPLIT = linalg.mat_mul(linalg.mat_mul(
    ((1, 2, 0), (0, 1, -1), (1, 2, 1)), ((4, 0, 0), (0, 2, 0), (0, 0, 1))),
    linalg.mat_inv(((1, 2, 0), (0, 1, -1), (1, 2, 1))))


def test_rational_input_makes_only_the_landau_mignotte_lift():
    with mock.patch.object(isocrystal, "_slope_factors_mod",
                           wraps=isocrystal._slope_factors_mod) as lift:
        report = is_completely_slope_divisible(RationalIsocrystal(_DIAGONAL_SPLIT, 2))
    assert report.divisible and report.slopes == (2, 1, 0)
    assert "precision" not in report.reason
    assert lift.call_count == 1


@pytest.mark.parametrize("m,r0", [
    (_DIAGONAL_SPLIT, 1),
    # companion(x^3 + x^2 + 2) at p = 2: slopes 1/2, 1/2, 0, so t = M^2
    (((0, 0, -2), (1, 0, 0), (0, 1, -1)), 2)])
def test_the_slopes_and_the_lift_share_one_characteristic_polynomial(m, r0):
    # for r0 = 1 the slopes' charpoly is also the one lifted; otherwise the
    # charpoly of M^r0 is computed as well.  The pieces' own charpolys are
    # of smaller matrices.
    with mock.patch.object(linalg, "charpoly", wraps=linalg.charpoly) as charpoly:
        is_completely_slope_divisible(RationalIsocrystal(m, 2))
    assert sum(len(c.args[0]) == len(m) for c in charpoly.call_args_list) == r0


def test_skipped_precisions_cannot_decide():
    # the mod-p^k route lifts nothing below _least_deciding_precision; with
    # that bound lifted, each precision below it must still ask for a retry
    rng = random.Random(39)
    inputs = _mod_pk_inputs()
    while len(inputs) < 1000:
        p, n = rng.choice((2, 3, 5)), rng.choice((2, 3))
        m = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, p))) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(m) != 0 and len(set(slopes_charpoly(RationalIsocrystal(m, p)))) > 1:
            inputs.append((m, p))
    approx, least = isocrystal._approx_slope_pieces, isocrystal._least_deciding_precision
    skipped = 0
    for m, p in inputs:
        calls, floors = [], []

        def approx_spy(*args):
            calls.append(args[:-1])
            return approx(*args)

        def least_spy(*args):
            floors.append(least(*args))
            return floors[-1]

        with mock.patch.object(isocrystal, "_approx_slope_pieces", approx_spy), \
                mock.patch.object(isocrystal, "_least_deciding_precision", least_spy):
            try:
                is_completely_slope_divisible(RationalIsocrystal(m, p))
            except InconclusiveError:
                pass
        if not calls:
            continue
        with mock.patch.object(isocrystal, "_least_deciding_precision", lambda *args: 0):
            for prec in (k for k in isocrystal._HENSEL_SCHEDULE if k < floors[0]):
                assert approx(*calls[0], prec) is None, (m, p, prec)
                skipped += 1
    assert skipped > 500


def test_csd_single_slope_orbit_walk():
    # [[0,4],[1,0]]: isoclinic slope 1, normalised square is the identity
    report = is_completely_slope_divisible(RationalIsocrystal(((0, 4), (1, 0)), 2))
    assert report.divisible and report.period == 2
    # unipotent unit part with entry 1/p: returns after p steps
    report2 = is_completely_slope_divisible(
        RationalIsocrystal(((1, F(1, 2)), (0, 1)), 2))
    assert report2.divisible


def test_csd_mod_pk_unit_denominator_is_not_certified_false():
    # [[0,1/2],[2,0]] (+) companion(x^2+x+2) at p=2: the normalised Frobenius
    # of the slope-0 piece has a 1/2 entry, yet its square returns the
    # lattice, so a False answer here would be wrong; the orbit walk on the
    # approximate pieces finds the period 2
    m = ((0, F(1, 2), 0, 0), (2, 0, 0, 0), (0, 0, 0, -2), (0, 0, 1, -1))
    report = is_completely_slope_divisible(RationalIsocrystal(m, 2))
    assert report.divisible and report.period == 2
    assert "precision" in report.reason
    # the same first summand next to diag(1, 2) is Q-rational: True, period 2
    m2 = ((0, F(1, 2), 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
    report = is_completely_slope_divisible(RationalIsocrystal(m2, 2))
    assert report.divisible and report.period == 2


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_valuation(c, p):
    """v_p of a nonzero sympy Rational."""
    return sympy.multiplicity(p, c.p) - sympy.multiplicity(p, c.q)


def sympy_slope_kernels(t, p, expected):
    """Oracle, in sympy alone: for each slope, the kernel (``nullspace``) at
    t of the product of the Q-irreducible factors (``factor_list``) of that
    slope, when every irreducible factor is isoclinic; None when one is
    not.  A monic factor of degree d is isoclinic when its Newton polygon
    is the line from (0, v_p(c_0)) to (d, 0)."""
    x = sympy.Symbol("x")
    tm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                       for row in t])
    grouped = {}
    for f, mult in sympy.factor_list(tm.charpoly(x).as_expr(), x)[1]:
        coeffs = sympy.Poly(f, x).monic().all_coeffs()[::-1]
        d, low = len(coeffs) - 1, _sympy_valuation(coeffs[0], p)
        if any(c != 0 and _sympy_valuation(c, p) * d < (d - i) * low
               for i, c in enumerate(coeffs)):
            return None
        slope = sympy.Rational(low, d)
        assert slope.q == 1
        grouped[int(slope)] = grouped.get(int(slope), 1) * f ** mult
    assert {s: sympy.degree(g, x) for s, g in grouped.items()} == expected
    kernels = {}
    for slope, g in grouped.items():
        value = sympy.zeros(len(t))
        for c in sympy.Poly(g, x).all_coeffs():
            value = value * tm + c * sympy.eye(len(t))
        kernels[slope] = value.nullspace()
    return kernels


def _companion(coeffs):
    """Companion matrix of the monic x^n + sum_i coeffs[i] x^i."""
    n = len(coeffs)
    return [[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)]


@st.composite
def isoclinic_block(draw, p):
    """Coefficients of a Q-irreducible isoclinic polynomial: x - p^a u,
    x^2 + p^a b x + p^(2a) c with b^2 - 4c not a square (slope a), or
    x^2 - p^(2a+1) u (slope a + 1/2); u and c are p-adic units."""
    a = draw(st.integers(-1, 2))
    scale = F(p) ** a
    unit = draw(st.sampled_from((1, -1, p + 1, -p - 1, 2 * p + 1)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return [-scale * unit]
    if kind == 1:
        b = draw(st.integers(-2, 2))
        disc = b * b - 4 * unit
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        return [scale * scale * unit, scale * b]
    return [-scale * scale * p * unit, 0]


@st.composite
def rational_matrices(draw, q_rational):
    """(matrix, p): g D g^-1 with D block diagonal of isoclinic Q-irreducible
    companions and g rational, or a random rational matrix."""
    p = draw(st.sampled_from((2, 3, 5)))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 1, 2, p)))
    if q_rational:
        blocks = draw(st.lists(isoclinic_block(p), min_size=2, max_size=3))
        n = sum(map(len, blocks))
        assume(n <= 4)
        d = [[F(0)] * n for _ in range(n)]
        off = 0
        for block in blocks:
            for i, row in enumerate(_companion(block)):
                d[off + i][off:off + len(block)] = row
            off += len(block)
        g = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        assume(linalg.det(g) != 0)
        return linalg.mat_mul(linalg.mat_mul(g, d), linalg.mat_inv(g)), p
    n = draw(st.integers(2, 4))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(linalg.det(m) != 0)
    return m, p


@pytest.mark.parametrize("q_rational", [True, False], ids=["q_rational", "random"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_rational_slope_pieces_match_sympy_factorisation(q_rational, data):
    m, p = data.draw(rational_matrices(q_rational))
    slopes = slopes_charpoly(RationalIsocrystal(m, p))
    r0 = math.lcm(*(s.denominator for s in slopes))
    expected = dict(Counter(int(s * r0) for s in slopes))
    assume(len(expected) > 1)
    t = linalg.mat_pow(RationalIsocrystal(m, p).matrix, r0)
    shift = -min(min(expected), 0)
    coeffs = linalg.charpoly(linalg.mat_scale(F(p) ** shift, t))
    oracle = sympy_slope_kernels(t, p, expected)
    if q_rational:
        assert oracle is not None
    # the library takes t as an integer matrix over a denominator
    t_den = math.lcm(*(x.denominator for row in t for x in row))
    t_int = [[int(x * t_den) for x in row] for row in t]
    pieces = isocrystal._rational_slope_pieces(t_int, t_den, p, expected, shift, coeffs)
    assert (pieces is None) == (oracle is None)
    # each piece spans the oracle's kernel, is saturated (its Smith
    # invariants are 1), is its own Hermite form, and s is unimodular with
    # s * basis the leading identity columns
    assert pieces is None or pieces.keys() == oracle.keys()
    for slope, (basis, s) in (pieces or {}).items():
        n, k = len(t), len(basis)
        b = sympy.Matrix(basis).T
        kernel = sympy.Matrix.hstack(*oracle[slope])
        assert b.rank() == k == kernel.shape[1] == sympy.Matrix.hstack(b, kernel).rank()
        assert list(invariant_factors(b)) == [1] * k
        assert hermite_normal_form(b) == b
        s = sympy.Matrix(s)
        assert s.det() in (1, -1) and s * b == sympy.eye(n)[:, :k]


def _slope_zero_blocks(p):
    """Slope-0 blocks with the number of steps after which their normalised
    Frobenius first returns the lattice: 2, p, 3 and 1."""
    q = F(1, p)
    return (([[0, q], [p, 0]], 2), ([[1, q], [0, 1]], p),
            ([[0, 0, 1], [p, 0, 0], [0, q, 0]], 3), ([[-1]], 1))


@st.composite
def split_or_glued(draw):
    """(T, p, period): T = g (B0 (+) p^s B1) g^-1 with slope-0 blocks B0, B1
    and g in GL_n(Z), whose known answer is True with the lcm of the block
    periods; or the same composed with an index-p gluing of the two pieces,
    with no known answer (period -1)."""
    p = draw(st.sampled_from((2, 3, 5)))
    (b0, k0), (b1, k1) = draw(st.lists(st.sampled_from(_slope_zero_blocks(p)),
                                       min_size=2, max_size=2))
    s = draw(st.integers(1, 2))
    n0, n = len(b0), len(b0) + len(b1)
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n0):
        d[i][:n0] = b0[i]
    for i in range(n - n0):
        d[n0 + i][n0:] = [p ** s * v for v in b1[i]]
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    period = math.lcm(k0, k1)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n0 - 1)), draw(st.integers(n0, n - 1))
        g = linalg.mat_mul(g, [[p if (a, b) == (j, j) else int(a == b or (a, b) == (i, j))
                                for b in range(n)] for a in range(n)])
        period = -1
    return linalg.mat_mul(linalg.mat_mul(g, d), linalg.mat_inv(g)), p, period


@settings(max_examples=100, deadline=None)
@given(case=split_or_glued())
def test_mod_pk_route_agrees_with_exact_route(case):
    # the slope pieces of these inputs are Q-rational; hiding that forces the
    # mod-p^k route, which must reach the exact route's answer and period
    m, p, period = case
    iso = RationalIsocrystal(m, p)
    exact = is_completely_slope_divisible(iso)
    assert "precision" not in exact.reason
    if period > 0:
        assert exact.divisible and exact.period == period
    with mock.patch.object(isocrystal, "_rational_slope_pieces", lambda *args: None):
        approx = is_completely_slope_divisible(iso)
    assert "precision" in approx.reason
    assert (approx.divisible, approx.period) == (exact.divisible, exact.period)


@st.composite
def hensel_inputs(draw):
    """(chi, u, p, prec): a monic chi of degree <= 8 mod p^prec whose low u
    coefficients are divisible by p and whose x^u coefficient is a unit.
    Precision 1 makes no lifting step, and most precisions are not powers
    of two, so the doubling overshoots them."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degree = draw(st.integers(2, 8))
    u = draw(st.integers(1, degree - 1))
    prec = draw(st.integers(1, 64))
    q = p ** prec
    low = [p * c for c in draw(st.lists(st.integers(0, q // p - 1), min_size=u, max_size=u))]
    unit = draw(st.integers(0, q - 1).filter(lambda c: c % p))
    high = draw(st.lists(st.integers(0, q - 1), min_size=degree - u - 1,
                         max_size=degree - u - 1))
    return low + [unit] + high + [1], u, p, prec


@settings(max_examples=300, deadline=None)
@given(case=hensel_inputs())
@example(case=([10, 3, 7, 1], 1, 2, 37))  # u = 1: Newton's root iteration
@example(case=([3, 6, 18, 4, 1], 3, 3, 50))  # u = degree - 1
@example(case=([5, 2, 1], 1, 5, 1))  # precision 1: no lifting step
def test_hensel_split_defining_properties(case):
    # F monic of degree u with F = x^u mod p, H = chi / x^u mod p and
    # F * H = chi mod p^prec determine the split uniquely (Hensel's lemma);
    # both factors come as residues in [0, p^prec)
    chi, u, p, prec = case
    f, h = isocrystal._hensel_split(chi, u, p, prec)
    assert all(0 <= c < p ** prec for c in f + h)
    assert len(f) == u + 1 and f[u] == 1 and all(c % p == 0 for c in f[:u])
    assert len(h) == len(chi) - u and all((a - b) % p == 0 for a, b in zip(h, chi[u:]))
    assert all((a - b) % p ** prec == 0 for a, b in zip(_poly_mul(f, h), chi))


def _certificate_digest(reports):
    """(count, sha256) of every report's (divisible, slopes, period, pieces,
    reason), in order."""
    rows = [[r.divisible, [str(s) for s in r.slopes], r.period,
             [[[str(v) for v in row] for row in piece] for piece in r.pieces],
             r.reason]
            for r in reports]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(blob).hexdigest()


def _census_certificate_digest(censuses):
    """(count, sha256) of every point's certificate, in census and point order."""
    return _certificate_digest(pt.slope_divisible for census in censuses
                               for pt in census.points)


def _pinned_censuses():
    """The GL2 criterion-5 grid and the GL3 depth-1 ordinary and basic
    candidates."""
    censuses = [adlv_points(rep_lift(x), (1, 0), p, depth)
                for x in enumerate_elements(GL2, 2, 2) for p in (2, 3) for depth in (1, 2)]
    censuses += [adlv_points(rep_lift(element_from_doc(GL3, {"lambda": lam, "w": w})),
                             (1, 0, 0), p, 1)
                 for w in ("e", "s1*s2", "s2*s1")
                 for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for p in (2, 3)]
    return censuses


def test_census_certificates_pinned():
    # Pinned from the Fraction implementation of the certificate: the GL2
    # criterion-5 grid and the GL3 depth-1 ordinary and basic candidates.
    assert _census_certificate_digest(_pinned_censuses()) == (
        638, "0180457ca7329eb37ce7fdabb6a14d3e0b71679a39371811ad0fffbea2827d84")


def _load_certify_cases():
    """``certify_cases`` of the benchmark's workload module, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.certify_cases


def _replay_exact(inputs):
    """Replay every exact report of (matrix, p, report) triples; the counts
    of True and False reports replayed."""
    counts = Counter()
    for m, p, report in inputs:
        if "precision" in report.reason:
            continue  # p-adic pieces are approximations: not replayed
        fault = replay_slope_certificate(m, p, report)
        assert fault is None, (m, p, report, fault)
        counts[report.divisible] += 1
    return counts


def test_certify_family_certificates_replay():
    certify_cases = _load_certify_cases()
    inputs = []
    for seed in range(1, 6):
        for _, _, p, matrix, _, _ in certify_cases(random.Random(seed)):
            iso = RationalIsocrystal(matrix, p)
            inputs.append((iso.matrix, p, is_completely_slope_divisible(iso)))
    assert _replay_exact(inputs) == {True: 240, False: 120}


def test_census_certificates_replay():
    # the censuses of test_census_certificates_pinned, with each point's
    # certified matrix recorded beside its report
    recorded = []
    original = lattices.is_completely_slope_divisible

    def record(m, **kwargs):
        report = original(m, **kwargs)
        recorded.append((m.matrix, m.prime, report))
        return report

    with mock.patch.object(lattices, "is_completely_slope_divisible", record):
        censuses = _pinned_censuses()
    assert [r for _, _, r in recorded] == [pt.slope_divisible for census in censuses
                                           for pt in census.points]
    assert _replay_exact(recorded) == {True: 638}


def test_random_exact_certificates_replay():
    # g T g^-1 with T upper triangular with p-power diagonal and g an
    # integer matrix (splittings, gluings and periods up to 49 at this
    # seed), beside plain random rational matrices
    rng = random.Random(4101)
    inputs = []
    while len(inputs) < 300:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 4)
        if rng.random() < 0.7:
            t = [[p ** rng.randrange(3) * rng.choice((1, -1)) if i == j else
                  rng.randint(-1, 1) * (i < j) for j in range(n)] for i in range(n)]
            g = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            if linalg.det(g) == 0:
                continue
            m = linalg.mat_mul(linalg.mat_mul(g, t), linalg.mat_inv(g))
        else:
            m = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, p))) for _ in range(n)]
                 for _ in range(n)]
        iso = RationalIsocrystal(m, p)
        try:
            report = is_completely_slope_divisible(iso)
        except (SingularInputError, InconclusiveError):
            continue
        inputs.append((iso.matrix, p, report))
    counts = _replay_exact(inputs)
    assert counts[True] > 100 and counts[False] > 30


def test_the_split_definition_outside_the_dieudonne_range():
    # M = ((4, 1), (0, 2)) at p = 2 has the filtration Z_2 e1 inside the
    # lattice, slope 2 then slope 1 with the normalised Frobenius a unit on
    # each step, so it is completely slope divisible in Oort-Zink's sense.
    # p^-1 M is not integral, so this is no Dieudonne lattice of slopes in
    # [1, 2]; the slope-2 line e1 and the slope-1 line (1, -2) span an
    # index-2 sublattice, and the split definition answers False
    report = is_completely_slope_divisible(RationalIsocrystal(((4, 1), (0, 2)), 2))
    assert not report.divisible and report.slopes == (2, 1)
    assert "index-p^1 " in report.reason
    assert replay_slope_certificate(((4, 1), (0, 2)), 2, report) is None


# fixed unimodular conjugators, two per size
_UNIMODULAR = {2: (((2, 1), (1, 1)), ((1, -2), (0, 1))),
               3: (((1, 2, 0), (0, 1, -1), (1, 2, 1)), ((0, 1, 0), (1, 1, 1), (2, 0, 1)))}


def _mod_pk_inputs():
    """The companions of test_csd_mod_pk_certified_false (False), then the
    companion_unit shapes of the certify benchmark (True): x^2 +- x + p and
    x^3 + b x^2 + a x + p without integer roots, conjugated by fixed
    unimodular matrices."""
    inputs = [(((0, -p ** 3 * v), (1, -p * u)), p)
              for p, u, v in [(2, 1, 1), (2, -1, 1), (2, 1, 5), (2, 7, -7),
                              (3, 1, 1), (3, -1, -1), (3, 1, 7), (3, 5, -1)]]
    shapes = [[p, b] for p in (2, 3) for b in (1, -1)]
    shapes += [[p, a, b] for p in (2, 3) for a in (1, -1, 0) for b in (1, -1)]
    for i, coeffs in enumerate(shapes):
        p, n = coeffs[0], len(coeffs)
        if any(sum(c * r ** k for k, c in enumerate(coeffs)) + r ** n == 0
               for r in (1, -1, p, -p)):
            continue
        g = _UNIMODULAR[n][i % 2]
        m = linalg.mat_mul(linalg.mat_mul(g, _companion(coeffs)), linalg.mat_inv(g))
        inputs.append((m, p))
    return inputs


def test_mod_pk_certificates_pinned():
    # Pinned before the quadratic Hensel lift and the mod-p^k elimination:
    # every input takes the mod-p^k route, with both answers.
    reports = [is_completely_slope_divisible(RationalIsocrystal(m, p))
               for m, p in _mod_pk_inputs()]
    assert all("precision" in r.reason for r in reports)
    assert {r.divisible for r in reports} == {True, False}
    assert _certificate_digest(reports) == (
        21, "e75ab568dcc3b0e6af25633006241792a5edf1fba7a21ba89a11653b3f7eba24")


def test_monomial_from_rational_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        m = _random_monomial(rng, max_r=1)
        back = monomial_from_rational(m.rational_matrix(3), 3)
        assert back == m
    with pytest.raises(ConfigurationError):
        monomial_from_rational(((1, 1), (0, 1)), 2)


def test_monomial_from_rational_refuses_a_non_square_matrix():
    # ((0, 1, 5), (2, 0, 7)) at p = 2 used to give a size-2 datum, its third
    # column dropped
    for matrix in (((0, 1, 5), (2, 0, 7)), ((0, 1), (2, 0, 7)), ((0, 1), (2,))):
        with pytest.raises(ConfigurationError, match="square"):
            monomial_from_rational(matrix, 2)


# p = 1 used to loop forever in the valuation loops, and the other
# non-primes were accepted
NOT_PRIMES = (1, 4, -2, 0)


@pytest.mark.parametrize("p", NOT_PRIMES)
def test_rational_isocrystal_refuses_a_non_prime(p):
    with pytest.raises(PreconditionError, match="prime"):
        RationalIsocrystal(((1, 0), (0, 2)), p)


@pytest.mark.parametrize("p", NOT_PRIMES)
def test_monomial_from_rational_refuses_a_non_prime(p):
    with pytest.raises(PreconditionError, match="prime"):
        monomial_from_rational(((0, 1), (2, 0)), p)


@pytest.mark.parametrize("p", NOT_PRIMES)
def test_newton_polygon_slopes_refuses_a_non_prime(p):
    with pytest.raises(PreconditionError, match="prime"):
        newton_polygon_slopes((2, 0, 1), p)


def test_rational_isocrystal_refuses_a_non_square_or_empty_matrix():
    # ((1, 2),) used to be reported divisible with slopes (0,), and the
    # empty matrix ended in a ValueError from min()
    for matrix in (((1, 2),), (), ((1, 0), (0,))):
        with pytest.raises(ConfigurationError, match="square"):
            RationalIsocrystal(matrix, 2)

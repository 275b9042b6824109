"""Integration properties that tie the subsystems together."""

import random
from fractions import Fraction as F

from centralleaf import linalg
from centralleaf.affine import (admissible_set, enumerate_elements, length,
                                newton_point, rep_lift, translation_element)
from centralleaf.isocrystal import is_completely_slope_divisible
from centralleaf.leaves import leaf_report, neutral_acceptable
from centralleaf.rootdata import build_classical
from centralleaf.slopes import (MonomialIsocrystal, RationalIsocrystal,
                                slopes_charpoly, slopes_monomial)

from oracles import bruhat_leq

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
SP4 = build_classical("Sp", 4)


def _random_unimodular(rng, n):
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
              for j in range(n)] for i in range(n)]
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
              for j in range(n)] for i in range(n)]
    return linalg.mat_mul(upper, lower)


def test_slope_divisibility_is_unimodular_invariant():
    # conjugating by GL_n(Z) changes nothing: same lattice up to basis
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        exps = tuple(rng.randint(-1, 1) for _ in range(n))
        b = MonomialIsocrystal(n, tuple(perm), exps)
        base = b.rational_matrix(2)
        g = _random_unimodular(rng, n)
        conj = linalg.mat_mul(linalg.mat_mul(g, base), linalg.mat_inv(g))
        report = is_completely_slope_divisible(RationalIsocrystal(conj, 2))
        assert report.divisible
        assert report.slopes == slopes_monomial(b)


def test_slopes_ignore_prime_to_p_units():
    m = ((F(1, 3), 0), (0, F(10)))
    assert slopes_charpoly(RationalIsocrystal(m, 2)) == (1, 0)
    assert slopes_charpoly(RationalIsocrystal(m, 3)) == (0, -1)


def test_admissible_elements_are_neutral_acceptable():
    # the Kottwitz-Rapoport containment direction of Mazur's inequality
    for datum, mus in ((GL2, [(1, 0), (1, 1), (2, 0)]),
                       (GL3, [(1, 0, 0), (1, 1, 0)])):
        for mu in mus:
            for x in admissible_set(datum, mu, "iwahori"):
                assert neutral_acceptable(datum, x, mu)


def test_admissible_sp4_two_derivations_agree():
    mu = (1, 0)
    adm = admissible_set(SP4, mu, "iwahori")
    bound = SP4.pair(SP4.two_rho, mu)
    targets = [translation_element(
        SP4, tuple(int(v) for v in linalg.mat_vec(w, mu)))
        for w in SP4.weyl_elements]
    window = enumerate_elements(SP4, bound, 2)
    oracle = {x for x in window if any(bruhat_leq(x, t) for t in targets)}
    assert adm == oracle
    assert all(length(x) <= bound for x in adm)


def test_leaf_dimension_bounds_admissible_newton_points():
    # nu <= mu in dominance forces <2rho, nu> <= <2rho, mu>
    for mu in ((1, 1, 0), (2, 1, 0)):
        cap = GL3.pair(GL3.two_rho, mu)
        for x in admissible_set(GL3, mu, "iwahori"):
            report = leaf_report(GL3, x)
            assert 0 <= report.leaf_dim <= cap


def test_lift_slopes_match_leaf_reports():
    rng = random.Random(83)
    window = enumerate_elements(GL3, 2, 2)
    for _ in range(50):
        x = rng.choice(window)
        lift = rep_lift(x)
        assert sorted(slopes_monomial(lift), reverse=True) == \
            sorted(newton_point(x).dominant, reverse=True)

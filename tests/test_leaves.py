import itertools
import random
from fractions import Fraction as F

import pytest

from centralleaf.affine import (adjoint_lift, element, enumerate_elements,
                                enumerate_sigma_classes, newton_point,
                                sigma_conjugate, simple_element,
                                translation_element)
from centralleaf.errors import DatumMismatchError, PreconditionError
from centralleaf.leaves import (cross_check_dimension, leaf_report, mu_average,
                                neutral_acceptable)
from centralleaf.rootdata import RootDatum, build_classical, dominant_rep
from centralleaf.slopes import adjoint_rep, slopes_monomial, slopes_via_weights

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
SP4 = build_classical("Sp", 4)
GSP4 = build_classical("GSp", 4)
# PGL3 with cocharacters in the fundamental-coweight basis
PGL3 = RootDatum("PGL3", [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
                 [(2, -1), (-2, 1), (-1, 2), (1, -2), (1, 1), (-1, -1)], [0, 2], 2)
ROTATION = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
ROTATION_INVERSE = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
# -w0 on each datum: the twist of a unitary group
GL2_DUAL = ((0, -1), (-1, 0))
GL3_DUAL = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
GSP4_DUAL = ((1, 0, -1), (0, 1, -1), (0, 0, -1))
PGL3_DUAL = ((0, 1), (1, 0))

# (name, datum, sigma): the windows of the adjoint-lift oracle
ORACLE_WINDOWS = [(f"{tag}{n}", build_classical(tag, n), None) for tag, n in (
    ("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("SL", 3), ("Sp", 4), ("GSp", 4),
    ("GSp", 6))] + [("PGL3", PGL3, None), ("GL2 dual", GL2, GL2_DUAL),
                    ("GL3 rotation", GL3, ROTATION),
                    ("GL3 inverse rotation", GL3, ROTATION_INVERSE),
                    ("GL3 dual", GL3, GL3_DUAL), ("GSp4 dual", GSP4, GSP4_DUAL),
                    ("PGL3 dual", PGL3, PGL3_DUAL)]


def test_leaf_report_examples():
    t10 = translation_element(GL2, (1, 0))
    r = leaf_report(GL2, t10)
    assert r.nu_dominant == (1, 0)
    assert (r.leaf_dim, r.jb_dim, r.basic) == (1, 2, False)

    xs = element(GL2, (1, 0), simple_element(GL2, 1).finite)
    r2 = leaf_report(GL2, xs)
    assert r2.nu_dominant == (F(1, 2), F(1, 2))
    assert (r2.leaf_dim, r2.jb_dim, r2.basic) == (0, 4, True)
    assert r2.adjoint_slopes == (0, 0, 0, 0)

    ordinary = leaf_report(GSP4, translation_element(GSP4, (1, 1, 1)))
    assert ordinary.leaf_dim == 3 and not ordinary.basic

    supersingular = leaf_report(
        GSP4, element(GSP4, (1, 0, 1), GSP4.simple_reflections[0]))
    assert supersingular.leaf_dim == 0 and supersingular.basic
    assert supersingular.jb_dim == GSP4.cochar_rank + len(GSP4.roots)


def test_basic_iff_leaf_dim_zero():
    rng = random.Random(12)
    window = enumerate_elements(GL3, 2, 2)
    for _ in range(100):
        x = rng.choice(window)
        r = leaf_report(GL3, x)
        assert r.basic == (r.leaf_dim == 0)
        assert r.basic == all(GL3.pair(a, r.nu_dominant) == 0 for a in GL3.roots)


def test_leaf_dim_constant_on_sigma_blocks():
    partition = enumerate_sigma_classes(GL2, 1)
    for block in partition.blocks:
        dims = {leaf_report(GL2, x).leaf_dim for x in block}
        assert len(dims) == 1


def test_jb_dimension_bookkeeping():
    # for instances whose root pairings are all 0 or 1:
    # jb = dim G - 2 * leaf_dim
    for datum, x in ((GL2, translation_element(GL2, (1, 0))),
                     (GL3, translation_element(GL3, (1, 0, 0))),
                     (GL3, translation_element(GL3, (1, 1, 0)))):
        r = leaf_report(datum, x)
        pairings = {abs(datum.pair(a, r.nu_dominant)) for a in datum.roots}
        assert pairings <= {0, 1}
        dim_g = datum.cochar_rank + len(datum.roots)
        assert r.jb_dim == dim_g - 2 * r.leaf_dim


def test_neutral_acceptable_examples():
    xs = element(GL2, (1, 0), simple_element(GL2, 1).finite)
    assert neutral_acceptable(GL2, xs, (1, 0))
    assert not neutral_acceptable(GL2, translation_element(GL2, (2, -1)), (1, 0))
    assert neutral_acceptable(GL2, translation_element(GL2, (1, 0)), (1, 0))
    with pytest.raises(PreconditionError):
        neutral_acceptable(GL2, xs, (0, 1))


def test_neutral_acceptable_sigma_conjugation_invariant():
    rng = random.Random(31)
    window = enumerate_elements(GL2, 2, 2)
    for _ in range(200):
        g, x = rng.choice(window), rng.choice(window)
        y = sigma_conjugate(g, x)
        assert neutral_acceptable(GL2, x, (1, 0)) == neutral_acceptable(GL2, y, (1, 0))


def test_leaf_calculators_refuse_an_element_of_another_datum():
    # each takes a datum beside x; an x over another datum used to give
    # True, a ConsistencyError or a failing oracle row
    x = translation_element(GL3, (1, 0, 0))
    with pytest.raises(DatumMismatchError):
        neutral_acceptable(GSP4, x, (1, 0, 0))
    with pytest.raises(DatumMismatchError):
        leaf_report(GL2, x)
    with pytest.raises(DatumMismatchError):
        cross_check_dimension(GL2, [x])
    # a datum built again is another datum
    with pytest.raises(DatumMismatchError):
        leaf_report(build_classical("GL", 3), x)


@pytest.mark.parametrize("mu", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_a_mu_of_the_wrong_length_is_refused(mu):
    # on GL3, neutral_acceptable used to give True for (1, 0) and a bare
    # IndexError for a length-4 mu
    with pytest.raises(PreconditionError, match="length"):
        mu_average(GL3, mu)
    with pytest.raises(PreconditionError, match="length"):
        neutral_acceptable(GL3, translation_element(GL3, (1, 0, 0)), mu)


def test_neutral_acceptable_refuses_a_mu_that_is_not_integral():
    # (3/2, -1/2) used to be read as (1, 0), and answered True
    x = translation_element(GL2, (1, 0))
    with pytest.raises(PreconditionError, match="integral"):
        neutral_acceptable(GL2, x, (F(3, 2), F(-1, 2)))
    assert neutral_acceptable(GL2, x, (F(1), 0))


def test_mu_average_trivial_and_rotation():
    assert mu_average(GL2, (1, 0)) == (1, 0)
    rotation = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert mu_average(GL3, (1, 0, 0), rotation) == (F(1, 3),) * 3


def test_mu_average_for_trivial_sigma_walks_no_weyl_group(monkeypatch):
    # mu_average(GL9, (1, 0, ..., 0)) used to walk W and meet WEYL_CAP after 11 s
    walks = []
    walk = RootDatum._generate_weyl

    def record(datum):
        walks.append(datum)
        return walk(datum)

    monkeypatch.setattr(RootDatum, "_generate_weyl", record)
    for datum in (build_classical("GL", 9), build_classical("GSp", 12)):
        mu = (1,) + (0,) * (datum.cochar_rank - 1)
        average = mu_average(datum, mu)
        assert average == mu and all(type(v) is F for v in average)
    assert not walks


@pytest.mark.parametrize("datum", [build_classical("GL", n) for n in (2, 3, 4)] + [GSP4],
                         ids=["GL2", "GL3", "GL4", "GSp4"])
def test_mu_average_is_the_newton_point_of_t_mu(datum):
    for mu in itertools.product(range(-1, 2), repeat=datum.cochar_rank):
        assert mu_average(datum, mu) == newton_point(translation_element(datum, mu)).vector


def test_cross_check_examples():
    report = cross_check_dimension(GL3, enumerate_elements(GL3, 2, 2))
    assert report.all_pass and len(report.rows) > 0

    x = translation_element(SP4, (1, 0))
    rep = cross_check_dimension(SP4, [x])
    assert rep.rows[0].closed == rep.rows[0].oracle == 4

    zero = translation_element(SP4, (0, 0))
    rep0 = cross_check_dimension(SP4, [zero])
    assert rep0.rows[0].closed == rep0.rows[0].oracle == 0


@pytest.mark.parametrize("name, datum, sigma", ORACLE_WINDOWS,
                         ids=[case[0] for case in ORACLE_WINDOWS])
def test_adjoint_lift_slopes_are_the_root_pairings(name, datum, sigma):
    # the slopes read off the cycles of the lift of x sigma on the root lines,
    # with one zero per torus line, are the pairings <chi, nu> over the
    # adjoint weights; their positive part is the leaf dimension
    zeros = (F(0),) * datum.cochar_rank
    window = enumerate_elements(datum, 2, 1)
    assert window
    for x in window:
        nu_dom = newton_point(x, sigma).dominant
        cycles = tuple(sorted(slopes_monomial(adjoint_lift(x, sigma)) + zeros, reverse=True))
        assert cycles == slopes_via_weights(adjoint_rep(datum), nu_dom)
        report = leaf_report(datum, x, sigma)
        assert report.leaf_dim == sum(s for s in cycles if s > 0)


@pytest.mark.parametrize("name, datum, sigma", ORACLE_WINDOWS,
                         ids=[case[0] for case in ORACLE_WINDOWS])
def test_dominant_newton_point_is_the_walked_average(name, datum, sigma):
    # newton_point walks the integer orbit sum r nu and divides by r once;
    # the walk on nu itself, its old definition, is the oracle
    for x in enumerate_elements(datum, 2, 1):
        nu = newton_point(x, sigma)
        assert nu.dominant == dominant_rep(datum, nu.vector)
        assert all(type(c) is F for c in nu.dominant)

"""kappa under a twist: the Kottwitz class in pi_1(G)_sigma, read through
the datum's per-sigma presentation, and the tables a datum derives."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralleaf import linalg, serialize
from centralleaf.affine import (admissible_set, enumerate_elements,
                                enumerate_sigma_classes, kottwitz,
                                omega_and_word, sigma_conjugate,
                                translation_element)
from centralleaf.errors import ConfigurationError
from centralleaf.leaves import leaf_report, neutral_acceptable
from centralleaf.rootdata import RootDatum, build_classical

from oracles import bruhat_leq

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
GSP4 = build_classical("GSp", 4)


def pgl3():
    """PGL3 with cocharacters in the fundamental-coweight basis: pi_1 = Z/3."""
    return RootDatum("PGL3", [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
                     [(2, -1), (-2, 1), (-1, 2), (1, -2), (1, 1), (-1, -1)], [0, 2], 2)


PGL3 = pgl3()
ROTATION = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
ROTATION_INVERSE = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
# -w0 on each datum: the twist of a unitary group
GL2_DUAL = ((0, -1), (-1, 0))
GL3_DUAL = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
GSP4_DUAL = ((1, 0, -1), (0, 1, -1), (0, 0, -1))
PGL3_DUAL = ((0, 1), (1, 0))

# (name, datum, sigma, dominant mu, window of length <= 2)
CASES = [(name, datum, sigma, mu, enumerate_elements(datum, 2, 1))
         for name, datum, sigma, mu in (
             ("GL2", GL2, None, (1, 0)),
             ("GL2 dual", GL2, GL2_DUAL, (1, 0)),
             ("GL3 rotation", GL3, ROTATION, (1, 0, 0)),
             ("GL3 inverse rotation", GL3, ROTATION_INVERSE, (1, 0, 0)),
             ("GL3 dual", GL3, GL3_DUAL, (1, 0, 0)),
             ("GSp4", GSP4, None, (1, 1, 1)),
             ("GSp4 dual", GSP4, GSP4_DUAL, (1, 1, 1)),
             ("PGL3 dual", PGL3, PGL3_DUAL, (1, 0)))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_twisted_kappa_and_acceptability_are_sigma_conjugation_invariant(case, data):
    _, datum, sigma, mu, window = case
    g = data.draw(st.sampled_from(window))
    x = data.draw(st.sampled_from(window))
    y = sigma_conjugate(g, x, sigma)
    assert kottwitz(x, sigma) == kottwitz(y, sigma)
    assert neutral_acceptable(datum, x, mu, sigma) == neutral_acceptable(datum, y, mu, sigma)


def test_pgl3_dual_twist_has_one_basic_class():
    # pi_1(PGL3) = Z/3 and -w0 acts on it by -1, so pi_1(G)_sigma = 0
    pi1 = PGL3.sigma_table(PGL3_DUAL).pi1
    assert (pi1.free_rank, pi1.torsion) == (0, ())
    partition = enumerate_sigma_classes(PGL3, 0, sigma=PGL3_DUAL)
    assert [len(block) for block in partition.blocks] == [3]
    rows = serialize.class_rows(partition, PGL3, PGL3_DUAL)
    assert {row[4] for row in rows} == {"0"}


def test_identity_sigma_presents_pi1():
    data = [build_classical(tag, n) for tag, n in (
        ("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("SL", 2), ("SL", 3),
        ("Sp", 4), ("GSp", 4))] + [pgl3()]
    for datum in data:
        identity = tuple(tuple(int(i == j) for j in range(datum.cochar_rank))
                         for i in range(datum.cochar_rank))
        assert datum.sigma_table(identity).pi1 == datum.pi1
        assert datum.sigma_table(None).pi1 == datum.pi1


def test_unitary_twist_of_gl3():
    # -w0 acts on pi_1(GL3) = Z by -1, so pi_1(G)_sigma = Z/2: det valuation mod 2
    pi1 = GL3.sigma_table(GL3_DUAL).pi1
    assert (pi1.free_rank, pi1.torsion) == (0, (2,))
    partition = enumerate_sigma_classes(GL3, 0, sigma=GL3_DUAL)
    assert sorted(len(block) for block in partition.blocks) == [6, 7]
    kappas = [{kottwitz(x, GL3_DUAL) for x in block} for block in partition.blocks]
    assert all(len(k) == 1 for k in kappas) and kappas[0] != kappas[1]
    for block in partition.blocks:
        for x in block:
            assert kottwitz(x, GL3_DUAL).torsion == (sum(x.translation) % 2,)


def test_leaf_report_rows_read_back_under_a_twist():
    # under -w0, kappa of t^(1,0,0) is the class of 1 in pi_1(GL3)_sigma = Z/2
    report = leaf_report(GL3, translation_element(GL3, (1, 0, 0)), GL3_DUAL)
    row = serialize.leaf_report_row(report)
    assert row[3] == "1mod2"
    assert serialize.leaf_report_from_row(GL3, row, GL3_DUAL) == report
    for datum, sigma, lam in ((PGL3, PGL3_DUAL, (1, 0)), (GL2, GL2_DUAL, (1, 0)),
                              (PGL3, None, (1, 0)), (GL3, None, (1, 0, 0))):
        report = leaf_report(datum, translation_element(datum, lam), sigma)
        row = serialize.leaf_report_row(report)
        assert serialize.leaf_report_from_row(datum, row, sigma) == report
    # an untwisted row reads back as before, sigma left out
    assert serialize.leaf_report_from_row(GL3, row) == report
    assert serialize.parse_kappa(GL3, "1") == serialize.parse_kappa(GL3, "1", None)


@pytest.mark.parametrize("datum, sigma, text", [
    (GL3, None, "1,2"), (GL3, None, ""), (GL3, None, "1|1mod2"), (GL3, None, "x"),
    (GL3, GL3_DUAL, "3mod2"), (GL3, GL3_DUAL, "-1mod2"), (GL3, GL3_DUAL, "1mod3"),
    (GL3, GL3_DUAL, "1"), (GL3, GL3_DUAL, "1|1mod2"), (PGL3, None, "0"),
    (PGL3, None, "1mod3,1mod3"), (build_classical("SL", 2), None, "3mod2")])
def test_parse_kappa_refuses_text_kappa_str_does_not_write(datum, sigma, text):
    # each used to read back as a class of the wrong shape or out of range,
    # or to fail with a bare ValueError
    with pytest.raises(ConfigurationError):
        serialize.parse_kappa(datum, text, sigma)


def test_affine_stores_nothing_on_a_datum():
    for tag, n, sigma, mu in (("GL", 3, ROTATION, (1, 0, 0)),
                              ("GSp", 4, GSP4_DUAL, (1, 1, 1))):
        datum = build_classical(tag, n)
        before = set(vars(datum))
        tops = [translation_element(datum, linalg.mat_vec(w, mu)) for w in datum.weyl_elements]
        adm = admissible_set(datum, mu)
        assert all(any(bruhat_leq(x, t) for t in tops) for x in adm)
        assert all(omega_and_word(t)[0] == omega_and_word(tops[0])[0] for t in tops)
        enumerate_sigma_classes(datum, 0, sigma=sigma)
        neutral_acceptable(datum, translation_element(datum, mu), mu, sigma)
        added = set(vars(datum)) - before
        assert added
        for name in added:
            assert isinstance(vars(RootDatum).get(name), functools.cached_property), name

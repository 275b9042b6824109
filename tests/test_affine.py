import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralleaf import affine, linalg
from centralleaf.affine import (KottwitzClass, _newton_key, adjoint_lift, admissible_set,
                                compose, element, enumerate_elements,
                                enumerate_sigma_classes, identity_element,
                                invert, kottwitz, length, newton_point,
                                omega_and_word, rep_lift, sigma_apply,
                                sigma_conjugate, simple_element,
                                translation_element)
from centralleaf.errors import (BudgetExceededError, ConfigurationError,
                                ConsistencyError, DatumMismatchError,
                                PreconditionError, UnsupportedOperationError)
from centralleaf.rootdata import RootDatum, build_classical, dominant_rep, is_dominant
from centralleaf.slopes import (MonomialIsocrystal, monomial_from_rational,
                                slopes_monomial)

from oracles import bruhat_leq, decent_representative, monomial_compose, permissible_set

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
SL2 = build_classical("SL", 2)
SP4 = build_classical("Sp", 4)


def s(datum, i=1):
    return simple_element(datum, i)


def test_group_law_examples():
    t10 = translation_element(GL2, (1, 0))
    t01 = translation_element(GL2, (0, 1))
    assert compose(t10, t01).translation == (1, 1)
    g = s(GL2)
    x = translation_element(GL2, (1, 0))
    assert sigma_conjugate(g, x).translation == (0, 1)
    xs = element(GL2, (1, 0), s(GL2).finite)
    inv = invert(xs)
    assert inv.translation == (0, -1) and inv.finite == s(GL2).finite
    assert compose(xs, inv) == identity_element(GL2)


def test_group_axioms_random():
    rng = random.Random(11)
    sample = enumerate_elements(GL3, 2, 2)
    for _ in range(200):
        x, y, z = (rng.choice(sample) for _ in range(3))
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
        assert compose(x, invert(x)) == identity_element(GL3)


def test_mixed_datum_rejected():
    with pytest.raises(DatumMismatchError):
        compose(translation_element(GL2, (1, 0)),
                translation_element(build_classical("GL", 2), (0, 1)))


def test_element_refuses_a_matrix_outside_the_weyl_group():
    with pytest.raises(PreconditionError, match="not a Weyl group element"):
        element(GL2, (0, 0), ((2, 0), (0, 1)))


def rotation3():
    # cyclic coordinate rotation: an order-3 automorphism of GL3's lattice
    return ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_sigma_apply_is_automorphism():
    sigma = rotation3()
    rng = random.Random(5)
    sample = enumerate_elements(GL3, 2, 2)
    for _ in range(100):
        x, y = rng.choice(sample), rng.choice(sample)
        lhs = sigma_apply(compose(x, y), sigma)
        rhs = compose(sigma_apply(x, sigma), sigma_apply(y, sigma))
        assert lhs == rhs


def test_length_examples():
    assert length(translation_element(GL2, (1, 0))) == 1
    assert length(element(GL2, (1, 0), s(GL2).finite)) == 0
    assert length(translation_element(GL3, (1, 0, 0))) == 2


def test_length_of_dominant_translations():
    rng = random.Random(3)
    for datum in (GL2, GL3, SP4):
        for _ in range(50):
            lam = tuple(rng.randint(-3, 3) for _ in range(datum.cochar_rank))
            dom = tuple(int(v) for v in dominant_rep(datum, lam))
            expected = datum.pair(datum.two_rho, dom)
            assert length(translation_element(datum, lam)) == expected


def test_bruhat_examples():
    tau = element(GL2, (1, 0), s(GL2).finite)
    t10 = translation_element(GL2, (1, 0))
    t01 = translation_element(GL2, (0, 1))
    assert bruhat_leq(tau, t10)
    assert not bruhat_leq(t01, t10)
    assert bruhat_leq(t10, t10)


def _lower_set_by_subwords(y):
    """Independent oracle: products of subwords of one reduced word of y."""
    from centralleaf.affine import _subword_products
    tau, word = omega_and_word(y)
    return _subword_products(y.datum, tau, word)


@pytest.mark.parametrize("datum", [GL2, GL3], ids=["GL2", "GL3"])
def test_bruhat_against_subword_closure(datum):
    window = enumerate_elements(datum, 2, 2)
    rng = random.Random(17)
    ys = rng.sample(window, min(12, len(window)))
    for y in ys:
        lower = _lower_set_by_subwords(y)
        for x in window:
            expected = x in lower
            got = bruhat_leq(x, y)
            assert got == expected, (x, y)
            if got:
                assert length(x) <= length(y)


def test_newton_point_examples():
    xs = element(GL2, (1, 0), s(GL2).finite)
    np1 = newton_point(xs)
    assert np1.vector == (F(1, 2), F(1, 2)) and np1.period == 2
    np2 = newton_point(translation_element(GL2, (1, 0)))
    assert np2.vector == (1, 0) and np2.period == 1
    cyc = next(w for w in GL3.weyl_elements
               if linalg.mat_vec(w, (1, 0, 0)) == (0, 1, 0)
               and linalg.mat_vec(w, (0, 1, 0)) == (0, 0, 1))
    np3 = newton_point(element(GL3, (1, 1, 0), cyc))
    assert np3.vector == (F(2, 3),) * 3 and np3.period == 3


def test_newton_conjugation_invariance():
    # 1000 random (g, x) pairs at length <= 3 in GL3, exactly
    rng = random.Random(2026)
    window = enumerate_elements(GL3, 3, 3)
    for _ in range(1000):
        g, x = rng.choice(window), rng.choice(window)
        y = sigma_conjugate(g, x)
        assert newton_point(y).dominant == newton_point(x).dominant
        assert kottwitz(y) == kottwitz(x)


def test_newton_sigma_stability():
    # dominant representative is fixed by sigma and by the finite part
    sigma = rotation3()
    rng = random.Random(8)
    window = enumerate_elements(GL3, 2, 2)
    for _ in range(100):
        x = rng.choice(window)
        nu = newton_point(x, sigma)
        moved = tuple(linalg.mat_vec(sigma, nu.vector))
        assert dominant_rep(GL3, moved) == nu.dominant
        fixed = tuple(linalg.mat_vec(linalg.mat_mul(x.finite, sigma), nu.vector))
        assert tuple(fixed) == nu.vector


def test_kottwitz_examples_and_additivity():
    xs = element(GL2, (1, 0), s(GL2).finite)
    assert kottwitz(xs).free == (1,)
    for x in enumerate_elements(SL2, 1, 2)[:10]:
        k = kottwitz(x)
        assert k.free == () and k.torsion == ()
    for x in enumerate_elements(SP4, 1, 1)[:10]:
        k = kottwitz(x)
        assert k.free == () and k.torsion == ()
    rng = random.Random(4)
    window = enumerate_elements(GL3, 2, 2)
    for _ in range(100):
        x, y = rng.choice(window), rng.choice(window)
        assert kottwitz(compose(x, y)) == kottwitz(x) + kottwitz(y)


def test_kottwitz_determinant_oracle():
    # kappa equals the valuation of the determinant of the monomial lift
    rng = random.Random(9)
    window = enumerate_elements(GL3, 2, 2)
    for _ in range(50):
        x = rng.choice(window)
        lift = rep_lift(x)
        assert kottwitz(x).free == (sum(lift.exponents),)


def test_decent_representative_examples():
    xs = element(GL2, (1, 0), s(GL2).finite)
    # rep_lift is the matrix of s * t^(1,0); the decent lift is that of xs itself
    assert rep_lift(xs).rational_matrix(2) == ((0, 1), (2, 0))
    lift = decent_representative(xs)
    assert lift.period == 2
    assert lift.matrix.rational_matrix(2) == ((0, 2), (1, 0))
    square = linalg.mat_mul(lift.matrix.rational_matrix(2),
                            lift.matrix.rational_matrix(2))
    assert square == ((2, 0), (0, 2))

    t10 = translation_element(GL2, (1, 0))
    lift2 = decent_representative(t10)
    assert lift2.period == 1
    assert lift2.matrix.rational_matrix(2) == ((2, 0), (0, 1))

    cyc = next(w for w in GL3.weyl_elements
               if linalg.mat_vec(w, (1, 0, 0)) == (0, 1, 0)
               and linalg.mat_vec(w, (0, 1, 0)) == (0, 0, 1))
    x3 = element(GL3, (1, 1, 0), cyc)
    lift3 = decent_representative(x3)
    assert lift3.period == 3
    m = lift3.matrix.rational_matrix(3)
    cube = linalg.mat_mul(linalg.mat_mul(m, m), m)
    assert cube == tuple(tuple(9 if i == j else 0 for j in range(3)) for i in range(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decency_equation_all_small_elements(n):
    datum = build_classical("GL", n)
    for x in enumerate_elements(datum, 3, 2):
        lift = decent_representative(x)  # raises on failure
        assert sorted(slopes_monomial(lift.matrix), reverse=True) == \
            sorted(newton_point(x).dominant, reverse=True)


def test_decency_with_nontrivial_sigma():
    sigma = rotation3()
    x = translation_element(GL3, (1, 0, 0))
    lift = decent_representative(x, sigma)
    assert lift.nu.vector == (F(1, 3),) * 3
    assert lift.period == 3


@pytest.mark.parametrize("sigma", [rotation3(), linalg.mat_mul(rotation3(), rotation3())],
                         ids=["rot", "rot2"])
def test_every_window_element_is_decent_under_a_rotation(sigma):
    # on GL3 the rotation acts on the weight lines e_i by its own matrix, so
    # b sigma is the product of the lift with sigma, read here as a monomial
    s_mono = monomial_from_rational(sigma, 2)
    window = enumerate_elements(GL3, 2, 2)
    assert len(window) == 118
    periods = set()
    for x in window:
        lift = decent_representative(x, sigma)  # raises on failure
        assert lift.period % lift.nu.period == 0
        periods.add(lift.period // lift.nu.period)
        assert slopes_monomial(monomial_compose(lift.matrix, s_mono)) == \
            tuple(sorted(lift.nu.vector, reverse=True))
    # (w sigma)^r = 1 does not make sigma^r = 1: some lifts need three periods
    assert periods == {1, 3}


def test_admissible_examples():
    adm = admissible_set(GL2, (1, 0), "iwahori")
    assert len(adm) == 3
    expected = {translation_element(GL2, (1, 0)),
                translation_element(GL2, (0, 1)),
                element(GL2, (1, 0), s(GL2).finite)}
    assert adm == expected
    assert len(admissible_set(GL3, (1, 0, 0), "iwahori")) == 7
    assert admissible_set(GL2, (1, 0), "hyperspecial") == ((1, 0),)
    with pytest.raises(PreconditionError):
        admissible_set(GL2, (0, 1), "iwahori")


@pytest.mark.parametrize("n", range(2, 7))
def test_admissible_set_of_omega_1_on_gl_n(n):
    mu = (1,) + (0,) * (n - 1)
    assert len(admissible_set(build_classical("GL", n), mu)) == 2 ** n - 1


# Pinned from the loop over every Weyl index, before it ran over the
# distinct translations w mu only
@pytest.mark.parametrize("tag, n, mu, size, digest", [
    ("GSp", 8, (1, 1, 1, 1, 1), 633,
     "6395c4a58a9278d3d6b1ede778d637b0ad3b655d9da68826130204c73d2eb5cc"),
    ("GL", 6, (1, 1, 1, 0, 0, 0), 883,
     "5cfeb4b7bf27c28ff6f02a93c5ae77e3e4dbb3a3d2de0341faa93b4f99b2544b"),
], ids=["GSp8-Siegel", "GL6-(1,1,1,0,0,0)"])
def test_admissible_set_pins(tag, n, mu, size, digest):
    datum = build_classical(tag, n)
    adm = admissible_set(datum, mu)
    assert len(adm) == size
    encoded = json.dumps(_element_keys(adm), separators=(",", ":")).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest
    assert admissible_set(datum, mu, "hyperspecial") == (mu,)


def test_admissible_against_bruhat_oracle():
    # independent derivation: window enumeration filtered by bruhat_leq
    for datum, mu, window_bound in ((GL2, (1, 0), 2), (GL3, (1, 0, 0), 2)):
        targets = [translation_element(datum, tuple(int(v) for v in linalg.mat_vec(w, mu)))
                   for w in datum.weyl_elements]
        cap = max(length(t) for t in targets)
        window = enumerate_elements(datum, cap, window_bound)
        oracle = {x for x in window if any(bruhat_leq(x, t) for t in targets)}
        assert admissible_set(datum, mu, "iwahori") == oracle


def test_admissible_monotone_and_length_bound():
    span = range(-1, 3)
    dominants = [v for v in itertools.product(span, repeat=3)
                 if is_dominant(GL3, v) and GL3.pair(GL3.two_rho, v) <= 4]
    from centralleaf.rootdata import dominance_leq
    for mu in dominants:
        adm_mu = admissible_set(GL3, mu, "iwahori")
        bound = GL3.pair(GL3.two_rho, mu)
        assert all(length(x) <= bound for x in adm_mu)
        for mu_prime in dominants:
            if mu_prime != mu and dominance_leq(GL3, mu_prime, mu):
                assert admissible_set(GL3, mu_prime, "iwahori") <= adm_mu


def test_admissible_gsp4_two_derivations_agree():
    # the Siegel cocharacter; count derived twice, never asserted from
    # literature: subword-closure construction vs brute Bruhat filter
    gsp4 = build_classical("GSp", 4)
    mu = (1, 1, 1)
    adm = admissible_set(gsp4, mu, "iwahori")
    bound = gsp4.pair(gsp4.two_rho, mu)
    assert all(length(x) <= bound for x in adm)
    targets = [translation_element(
        gsp4, tuple(int(v) for v in linalg.mat_vec(w, mu)))
        for w in gsp4.weyl_elements]
    window = enumerate_elements(gsp4, bound, 2)
    oracle = {x for x in window if any(bruhat_leq(x, t) for t in targets)}
    assert adm == oracle
    hyper = admissible_set(gsp4, mu, "hyperspecial")
    assert hyper == ((1, 1, 1),)


def test_admissible_hyperspecial_matches_dominance_characterisation():
    from centralleaf.rootdata import dominance_leq
    for mu in ((1, 0), (1, 1), (2, 0)):
        got = admissible_set(GL2, mu, "hyperspecial")
        span = range(min(mu) - 1, max(mu) + 2)
        expected = tuple(sorted(
            v for v in itertools.product(span, repeat=2)
            if is_dominant(GL2, v) and sum(v) == sum(mu)
            and dominance_leq(GL2, v, mu)))
        assert got == expected


# minuscule mu, where Adm(mu) = Perm(mu) (Kottwitz-Rapoport, "Minuscule
# alcoves for GL_n and GSp_2n", Manuscripta Math. 102, 2000); Perm(mu) reads
# no Bruhat order
@pytest.mark.parametrize("tag, n, mu", [
    ("GL", 2, (1, 0)), ("GL", 3, (1, 0, 0)), ("GL", 3, (1, 1, 0)),
    ("GL", 4, (1, 0, 0, 0)), ("GL", 4, (1, 1, 0, 0)), ("GL", 4, (1, 1, 1, 0)),
    ("GSp", 4, (1, 1, 1)), ("GSp", 6, (1, 1, 1, 1)),
], ids=["GL2-(1,0)", "GL3-(1,0,0)", "GL3-(1,1,0)", "GL4-(1,0,0,0)", "GL4-(1,1,0,0)",
        "GL4-(1,1,1,0)", "GSp4-Siegel", "GSp6-Siegel"])
def test_admissible_set_is_the_permissible_set_for_minuscule_mu(tag, n, mu):
    datum = build_classical(tag, n)
    adm = admissible_set(datum, mu)
    assert adm == permissible_set(datum, mu)
    assert len(adm) > len({action.apply(mu) for action in datum.weyl_actions})


def test_sigma_class_examples():
    partition = enumerate_sigma_classes(GL2, 1)
    t10 = translation_element(GL2, (1, 0))
    t01 = translation_element(GL2, (0, 1))
    xs10 = element(GL2, (1, 0), s(GL2).finite)
    assert partition.block_of(t10) == partition.block_of(t01)
    assert partition.block_of(t10) != partition.block_of(xs10)
    for block in partition.blocks:
        assert len({newton_point(x).dominant for x in block}) == 1
        assert len({kottwitz(x) for x in block}) == 1
    # ((0,1), s) has length 2; the cap-2 window shows it merged with ((1,0), s)
    partition2 = enumerate_sigma_classes(GL2, 2)
    xs01 = element(GL2, (0, 1), s(GL2).finite)
    assert partition2.block_of(xs10) == partition2.block_of(xs01)


def test_sigma_class_block_check_fails_on_a_non_constant_newton_point(monkeypatch):
    # t^(1,-1) s and s are sigma-conjugate in GL2 but have distinct
    # translations, so a "Newton walk" returning the translation splits a block
    monkeypatch.setattr(affine, "_newton_walk", lambda x, sigma: (x.translation, 1))
    with pytest.raises(ConsistencyError):
        enumerate_sigma_classes(GL2, 1)


def test_sigma_class_budget(monkeypatch):
    from centralleaf import affine
    monkeypatch.setattr(affine, "_CLASS_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        enumerate_sigma_classes(GL3, 3, coord_bound=4)


def test_sigma_classes_with_twist():
    sigma = rotation3()
    partition = enumerate_sigma_classes(GL3, 2, sigma=sigma, coord_bound=2)
    # twisted conjugation merges the whole translation Weyl orbit with the
    # rotation applied; invariants stay constant per block by construction
    t100 = translation_element(GL3, (1, 0, 0))
    t010 = translation_element(GL3, (0, 1, 0))
    assert partition.block_of(t100) == partition.block_of(t010)
    nu = newton_point(t100, sigma)
    assert nu.dominant == (F(1, 3),) * 3


# ---------------------------------------------------------------------------
# the coded group law against the matrix formulas

def _matrix_inverse(m):
    return linalg.freeze(tuple(int(v) for v in row) for row in linalg.mat_inv(m))


def matrix_compose(x, y):
    lam = tuple(a + b for a, b in zip(x.translation,
                                      linalg.mat_vec(x.finite, y.translation)))
    return element(x.datum, lam, linalg.mat_mul(x.finite, y.finite))


def matrix_invert(x):
    w_inv = _matrix_inverse(x.finite)
    return element(x.datum, tuple(-v for v in linalg.mat_vec(w_inv, x.translation)), w_inv)


def matrix_sigma_apply(x, sigma):
    w = linalg.mat_mul(linalg.mat_mul(sigma, x.finite), _matrix_inverse(sigma))
    return element(x.datum, linalg.mat_vec(sigma, x.translation), w)


def matrix_length(x):
    datum = x.datum
    w_chars = linalg.transpose(x.finite)
    positive = set(datum.positive_roots)
    total = 0
    for alpha in datum.positive_roots:
        pairing = datum.pair(alpha, x.translation)
        if linalg.mat_vec(w_chars, alpha) in positive:
            total += abs(pairing)
        else:
            total += abs(pairing - 1)
    return total


def matrix_newton_vector(x, sigma):
    w_sigma = x.finite if sigma is None else linalg.mat_mul(x.finite, sigma)
    ident = linalg.identity(x.datum.cochar_rank)
    power, total, r = w_sigma, list(x.translation), 1
    while power != ident:
        total = [a + b for a, b in zip(total, linalg.mat_vec(power, x.translation))]
        power = linalg.mat_mul(power, w_sigma)
        r += 1
    return tuple(F(t, r) for t in total), r


def matrix_generators(datum):
    """The simple affine generators with matrix finite parts: the simple
    reflections, then t^theta_check s_theta with s_theta built from the
    formula lam -> lam - <theta, lam> theta_check."""
    n = datum.cochar_rank
    gens = [element(datum, (0,) * n, s) for s in datum.simple_reflections]
    for theta_check, _ in datum.affine_reflections:
        theta = datum.roots[datum.coroots.index(theta_check)]
        columns = [tuple(e[i] - datum.pair(theta, e) * theta_check[i] for i in range(n))
                   for e in linalg.identity(n)]
        gens.append(element(datum, theta_check, linalg.transpose(columns)))
    return gens


def matrix_omega_and_word(x):
    """Greedy right descent on the matrix law, lowest generator first."""
    gens = matrix_generators(x.datum)
    current, letters = x, []
    while matrix_length(current) > 0:
        products = (matrix_compose(current, g) for g in gens)
        idx, current = next((idx, c) for idx, c in enumerate(products)
                            if matrix_length(c) < matrix_length(current))
        letters.append(idx)
    return current, tuple(reversed(letters))


GL4 = build_classical("GL", 4)
# (name, datum, sigma): sigma = None, the coordinate rotation of GL3, and
# lambda -> -w0 lambda on GL4
GL4_DUAL = tuple(tuple(-1 if i + j == 3 else 0 for j in range(4)) for i in range(4))
LAW_CASES = [
    ("GL2", GL2, None), ("GL3", GL3, None), ("GL4", GL4, None),
    ("SL3", build_classical("SL", 3), None), ("Sp4", SP4, None),
    ("GSp4", build_classical("GSp", 4), None), ("GL3 rotation", GL3, rotation3()),
    ("GL4 dual", GL4, GL4_DUAL),
]


@st.composite
def affine_elements(draw, datum):
    lam = tuple(draw(st.integers(-3, 3)) for _ in range(datum.cochar_rank))
    return element(datum, lam, draw(st.sampled_from(datum.weyl_elements)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LAW_CASES), st.data())
def test_coded_law_matches_matrix_law(case, data):
    _, datum, sigma = case
    x = data.draw(affine_elements(datum))
    y = data.draw(affine_elements(datum))
    assert (x == y) == ((x.translation, x.finite) == (y.translation, y.finite))
    twin = element(datum, x.translation, x.finite)
    assert twin == x and hash(twin) == hash(x)
    assert compose(x, y) == matrix_compose(x, y)
    assert invert(x) == matrix_invert(x)
    for w, action in zip(datum.weyl_elements, datum.weyl_actions):
        assert action.apply(y.translation) == linalg.mat_vec(w, y.translation)
    assert length(x) == matrix_length(x)
    assert omega_and_word(x) == matrix_omega_and_word(x)
    nu = newton_point(x, sigma)
    assert (nu.vector, nu.period) == matrix_newton_vector(x, sigma)
    if sigma is not None:
        assert sigma_apply(x, sigma) == matrix_sigma_apply(x, sigma)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAW_CASES), st.integers(0, 4), st.integers(0, 2),
       st.booleans())
def test_pruned_enumeration_matches_box_scan(case, cap, bound, shifted):
    _, datum, _ = case
    rank = datum.cochar_rank
    if rank > 3:
        bound = min(bound, 1)
    lo, hi = (-bound, bound + 1) if shifted else (-bound, bound)
    box = itertools.product(range(lo, hi + 1), repeat=rank)
    expected = [element(datum, lam, w) for lam in box
                for w in datum.weyl_elements
                if matrix_length(element(datum, lam, w)) <= cap]
    got = enumerate_elements(datum, cap, (lo, hi) if shifted else bound)
    assert got == expected


def test_negative_caps_and_bounds_are_refused():
    # a negative cap or bound used to be read as an empty window
    for cap, bound in ((-1, 2), (2, -1)):
        with pytest.raises(PreconditionError):
            enumerate_elements(GL2, cap, bound)
    for kwargs in ({"length_cap": -1}, {"length_cap": 1, "conjugator_cap": -4},
                   {"length_cap": 1, "coord_bound": -2}):
        with pytest.raises(PreconditionError):
            enumerate_sigma_classes(GL2, **kwargs)
    # a shifted window may lie below zero
    assert enumerate_elements(GL2, 0, (-2, -1))


def test_enumeration_window_budget(monkeypatch):
    # the budget counts (translation, Weyl element) pairs of the whole box,
    # before the length prune: GL3 with bound 2 holds 5^3 * 6 = 750
    from centralleaf import affine
    full = enumerate_elements(GL3, 2, 2)
    monkeypatch.setattr(affine, "_ELEMENT_BUDGET", 750)
    assert enumerate_elements(GL3, 2, 2) == full
    assert enumerate_elements(GL3, 2, (-2, 1))  # 4^3 * 6 = 384 pairs
    monkeypatch.setattr(affine, "_ELEMENT_BUDGET", 749)
    for cap, bound in ((2, 2), (0, 2), (2, (-2, 2))):
        with pytest.raises(BudgetExceededError):
            enumerate_elements(GL3, cap, bound)
    # the conjugators run over bound + 1: 162 elements, 750 conjugator pairs
    with pytest.raises(BudgetExceededError):
        enumerate_sigma_classes(GL3, 0, coord_bound=1)


def test_sigma_not_normalising_weyl_group_is_refused():
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ConfigurationError):
        sigma_apply(s(GL3), shear)
    with pytest.raises(ConfigurationError):
        enumerate_sigma_classes(GL3, 0, sigma=shear, coord_bound=1)


def test_sigma_outside_the_lattice_automorphisms_is_refused():
    # both normalise the Weyl group: 2*I on GL2, and a non-integral matrix of
    # determinant 1 on a rootless datum; unrefused, the Newton walk of a
    # translation runs to its order cap before it fails
    torus = RootDatum("T", [], [], [], 2)
    for datum, sigma in ((GL2, ((2, 0), (0, 2))), (torus, ((2, 0), (0, F(1, 2))))):
        with pytest.raises(ConfigurationError):
            newton_point(translation_element(datum, (1, 0)), sigma)
        with pytest.raises(ConfigurationError):
            sigma_apply(identity_element(datum), sigma)
        with pytest.raises(ConfigurationError):
            enumerate_sigma_classes(datum, 0, sigma=sigma, coord_bound=1)


def _element_keys(xs):
    """The sorted JSON keys (translation, finite part) of some elements."""
    return sorted(json.dumps([list(x.translation), [list(r) for r in x.finite]],
                             separators=(",", ":")) for x in xs)


def _partition_digest(partition):
    """sha256 of the partition: each block's element keys sorted, then the
    blocks sorted."""
    blocks = sorted(_element_keys(block) for block in partition.blocks)
    return hashlib.sha256(json.dumps(blocks, separators=(",", ":")).encode()).hexdigest()


# Pinned from the matrix implementation of the group law and sweep: windows
# the benchmark's classes workload does not cover.
@pytest.mark.parametrize("tag, n, cap, blocks, digest", [
    ("GL", 3, 2, 75, "a95ef95a40b20621df7a7722d1893fe1982f9bd1e2404842379161fbb9d0a8f3"),
    ("GSp", 4, 2, 41, "83a36098f8d3419e65436e94aea44fd2a5e8b9d90b4be55fdceda854976780c1"),
    ("GL", 4, 1, 50, "295b8a6847e547420fbceb9b2066f06070f4ea434cf9fe98cc5805992b5e72cb"),
], ids=["GL3-cap2", "GSp4-cap2", "GL4-cap1"])
def test_sigma_class_partition_pins(tag, n, cap, blocks, digest):
    partition = enumerate_sigma_classes(build_classical(tag, n), cap)
    assert len(partition.blocks) == blocks
    assert _partition_digest(partition) == digest


def _pair_product(a, b):
    """(l1, m1)(l2, m2) = (l1 + m1 l2, m1 m2) on (translation, matrix) pairs."""
    (l1, m1), (l2, m2) = a, b
    return tuple(u + v for u, v in zip(l1, linalg.mat_vec(m1, l2))), linalg.mat_mul(m1, m2)


def matrix_sigma_classes(datum, length_cap, sigma=None, coord_bound=None):
    """The sweep on the matrix law, with its own union-find: g x sigma(g)^-1
    for every element x conjugator pair, on (translation, matrix) pairs, and
    a conjugate inside the window joins the two blocks.  The window and the
    conjugators are those of ``enumerate_sigma_classes``'s defaults."""
    bound = length_cap + 2 if coord_bound is None else coord_bound
    elements = enumerate_elements(datum, length_cap, bound)
    conjugators = enumerate_elements(datum, length_cap + 2, bound + 1)
    position = {(x.translation, x.finite): i for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in conjugators:
        h_inv = matrix_invert(g if sigma is None else matrix_sigma_apply(g, sigma))
        h_inv = (h_inv.translation, h_inv.finite)
        for i, x in enumerate(elements):
            gx = _pair_product((g.translation, g.finite), (x.translation, x.finite))
            j = position.get(_pair_product(gx, h_inv))
            if j is not None:
                parent[find(i)] = find(j)
    blocks = {}
    for i, x in enumerate(elements):
        blocks.setdefault(find(i), set()).add(x)
    return {frozenset(block) for block in blocks.values()}


# lambda -> -w0 lambda on GL3 negates the centre: t^(1,1,1) is central but
# not sigma-fixed, so lambda and lambda + (1,1,1) conjugate differently
GL3_DUAL = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


# (datum, length cap, sigma, coord bound): GSp4's Weyl matrices have row
# sums of 2, so its conjugates leave the window's coordinate range
@pytest.mark.parametrize("datum, cap, sigma, bound", [
    (GL2, 2, None, None), (GL3, 1, None, None), (SP4, 2, None, None),
    (build_classical("GSp", 4), 1, None, None), (GL3, 2, rotation3(), 2),
    (GL4, 0, GL4_DUAL, 1), (GL3, 1, GL3_DUAL, 2),
    (build_classical("GSp", 4), 2, None, None), (GL3, 2, GL3_DUAL, 2),
], ids=["GL2-cap2", "GL3-cap1", "Sp4-cap2", "GSp4-cap1", "GL3-rotation-cap2",
        "GL4-dual-cap0", "GL3-dual-cap1", "GSp4-cap2", "GL3-dual-cap2"])
def test_coded_sweep_matches_the_matrix_sweep(datum, cap, sigma, bound):
    partition = enumerate_sigma_classes(datum, cap, sigma=sigma, coord_bound=bound)
    expected = matrix_sigma_classes(datum, cap, sigma, bound)
    assert {frozenset(block) for block in partition.blocks} == expected
    assert len(expected) > 1


def conjugation_pairs(g, window, sigma):
    """The pairs (x, g x sigma(g)^-1) of the window with both ends in it:
    the unions the sweep makes for the conjugator g."""
    members = set(window)
    return frozenset((x, y) for x in window
                     for y in (sigma_conjugate(g, x, sigma),) if y in members)


# (datum, sigma, element cap and bound, conjugator cap and bound)
@pytest.mark.parametrize("datum, sigma, cap, bound, g_cap, g_bound", [
    (GL3, GL3_DUAL, 1, 1, 2, 2), (build_classical("GSp", 4), None, 1, 2, 2, 2),
    (GL2, None, 2, 2, 3, 3),
], ids=["GL3-dual", "GSp4", "GL2"])
def test_the_sweep_skips_only_conjugators_that_repeat_a_swept_one(
        datum, sigma, cap, bound, g_cap, g_bound):
    # partitions alone cannot tell a wrong skip rule: the full sweep makes
    # each union many times over
    s_apply = datum.sigma_table(sigma).rows.apply
    window = enumerate_elements(datum, cap, bound)
    conjugators = enumerate_elements(datum, g_cap, g_bound)

    def key(g):
        return g.w, affine._translation_key(datum, s_apply, g.translation)

    pairs_of = {}
    for g in conjugators:
        pairs = conjugation_pairs(g, window, sigma)
        inverse = invert(g)
        # g^-1 y sigma(g^-1)^-1 = x exactly when y = g x sigma(g)^-1
        inverse_pairs = conjugation_pairs(inverse, window, sigma)
        assert inverse_pairs == {(y, x) for x, y in pairs}
        # one key, one map: so for g^-1, which may leave the window
        for h, h_pairs in ((g, pairs), (inverse, inverse_pairs)):
            assert pairs_of.setdefault(key(h), h_pairs) == h_pairs
    swept = list(affine._distinct_conjugators(
        datum, affine._window(datum, g_cap, g_bound), s_apply))
    # one swept g for each {key, key of the inverse} of the window: so every
    # conjugator makes g's pairs or their reversal, and no two swept make both
    classes = [frozenset((key(g), key(invert(g)))) for g in swept]
    assert set(classes) == {frozenset((key(g), key(invert(g)))) for g in conjugators}
    assert len(set(classes)) == len(classes)
    # the inverse rule skips something, and so does the translation rule
    # but where no central translation is sigma-fixed (lambda -> -w0 lambda)
    keys = len({key(g) for g in conjugators})
    assert len(swept) < keys
    assert (keys < len(conjugators)) == (sigma is None)
    assert any(x != y for pairs in pairs_of.values() for x, y in pairs)


def search_lift(datum, lam, g, weights):
    """The monomial matrix of t^lam * g found by searching, for each weight
    chi_k, the weight chi_k o g = g^T chi_k: column j goes to the line of k."""
    index = {chi: j for j, chi in enumerate(weights)}
    chars = linalg.transpose(g)
    perm = [None] * len(weights)
    for k, chi in enumerate(weights):
        j = index.get(linalg.mat_vec(chars, chi))
        if j is None or perm[j] is not None:
            raise UnsupportedOperationError("g does not permute the weights")
        perm[j] = k
    exps = tuple(datum.pair(weights[k], lam) for k in perm)
    return MonomialIsocrystal(len(perm), tuple(perm), exps)


@pytest.mark.parametrize("datum, sigma", [
    (GL4, None), (build_classical("GSp", 4), None), (GL3, rotation3()), (GL4, GL4_DUAL),
], ids=["GL4", "GSp4", "GL3-rotation", "GL4-dual"])
def test_table_lifts_match_the_matrix_search(datum, sigma):
    rng = random.Random(21)
    for w in datum.weyl_elements:
        lam = tuple(rng.randint(-3, 3) for _ in range(datum.cochar_rank))
        x = element(datum, lam, w)
        assert rep_lift(x) == search_lift(
            datum, linalg.mat_vec(w, lam), w, datum.rep_weights)
        g = w if sigma is None else linalg.mat_mul(w, sigma)
        assert adjoint_lift(x, sigma) == search_lift(datum, lam, g, datum.roots)


def test_a_lift_that_does_not_permute_the_weights_is_refused():
    # lambda -> -w0 lambda sends the weight e_1 to -e_n, not a weight
    with pytest.raises(UnsupportedOperationError):
        decent_representative(translation_element(GL4, (1, 0, 0, 0)), GL4_DUAL)
    # a weight list that the simple reflection does not permute
    lopsided = RootDatum("GL", GL2.roots, GL2.coroots, GL2.simple_indices, 2,
                         rep_weights=[(1, 0)])
    assert all(action.weights is None for action in lopsided.weyl_actions)
    for w in lopsided.weyl_elements:
        with pytest.raises(UnsupportedOperationError):
            rep_lift(element(lopsided, (1, 0), w))
    # without a representation
    torus = RootDatum("T", [], [], [], 2)
    with pytest.raises(UnsupportedOperationError):
        rep_lift(identity_element(torus))


# ---------------------------------------------------------------------------
# the Newton walk: the matrix walk it replaced, and its contract

def matrix_newton_walk(x, sigma):
    """The Newton walk on explicit matrices: (w sigma)^r = a sigma^r, with
    sigma^r formed by ``mat_mul``, sigma applied by ``mat_vec``, and the walk
    stopping when sigma^r equals the matrix of a^-1."""
    datum = x.datum
    action = datum.sigma_table(sigma).weyl_action
    ident = linalg.identity(datum.cochar_rank)
    a, conj, s_power = x.w, x.w, ident if sigma is None else linalg.freeze(sigma)
    total, moved, r = list(x.translation), x.translation, 1
    while s_power != datum.weyl_elements[datum.weyl_inverse[a]]:
        moved = linalg.mat_vec(x.finite, moved if sigma is None else linalg.mat_vec(sigma, moved))
        total = [u + v for u, v in zip(total, moved)]
        conj = action[conj]
        a = datum.weyl_mul(a, conj)
        if sigma is not None:
            s_power = linalg.mat_mul(s_power, sigma)
        r += 1
    return (tuple(F(t, r) for t in total),
            tuple(F(t, r) for t in dominant_rep(datum, total)), r)


ROTATION3_INVERSE = linalg.mat_mul(rotation3(), rotation3())


NEWTON_WINDOWS = pytest.mark.parametrize("datum, cap, sigma, bound", [
    (GL3, 2, None, 4), (build_classical("GSp", 4), 1, None, 3),
    (GL3, 2, rotation3(), 2), (GL3, 2, ROTATION3_INVERSE, 2), (GL4, 1, GL4_DUAL, 1),
], ids=["GL3-cap2", "GSp4-cap1", "GL3-rotation-cap2", "GL3-inverse-rotation-cap2",
        "GL4-dual-cap1"])


@NEWTON_WINDOWS
def test_newton_walk_matches_the_matrix_walk(datum, cap, sigma, bound):
    for x in enumerate_elements(datum, cap, bound):
        assert tuple(newton_point(x, sigma)) == matrix_newton_walk(x, sigma)


@NEWTON_WINDOWS
def test_the_block_check_key_is_the_reduced_dominant_newton_point(datum, cap, sigma, bound):
    # the sigma-class block check compares keys: one key per dominant nu
    dominant_of = {}
    for x in enumerate_elements(datum, cap, bound):
        key, dominant = _newton_key(x, sigma), newton_point(x, sigma).dominant
        numerators, denominator = key
        assert tuple(F(v, denominator) for v in numerators) == dominant
        assert math.gcd(denominator, *numerators) == 1
        dominant_of[key] = dominant
    assert len(set(dominant_of.values())) == len(dominant_of)


# the rank-2 torus and a unipotent sigma: no power of sigma lies in W = 1
T2 = RootDatum("T2", (), (), (), 2)
UNIPOTENT = ((1, 1), (0, 1))


def test_a_sigma_of_infinite_order_keeps_its_kottwitz_map_and_has_no_newton_point():
    datum = RootDatum("T2", (), (), (), 2)
    x = translation_element(datum, (3, 5))
    # pi_1(T)_sigma = Z^2 / (1 - sigma) Z^2 = Z^2 / Z e_1, read on e_2
    assert kottwitz(x, [[1, 1], [0, 1]]) == KottwitzClass((5,), (), ())
    rows = datum.sigma_table(UNIPOTENT).rows
    assert len(rows._powers) == 1  # no power of sigma is walked before it is asked for
    with pytest.raises(PreconditionError) as caught:
        newton_point(x, UNIPOTENT)
    assert str(caught.value) == "w*sigma does not have finite order on X_*"
    assert rows.power(0) == datum.weyl_identity
    assert {rows.power(k) for k in range(1, len(rows._powers))} == {None}


def test_newton_point_neither_multiplies_nor_applies_matrices(monkeypatch):
    cases = [(GL3, None), (GL3, rotation3()), (GL4, GL4_DUAL), (T2, UNIPOTENT)]
    for datum, sigma in cases:  # the per-datum tables, built on first use
        datum.sigma_table(sigma), datum.weyl_actions, datum.weyl_inverse
    calls = []
    for name in ("mat_mul", "mat_vec"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, f=original: calls.append(1) or f(*args))
    for datum, sigma in cases[:-1]:
        for x in enumerate_elements(datum, 1, 1):
            newton_point(x, sigma)
    with pytest.raises(PreconditionError):
        newton_point(identity_element(T2), UNIPOTENT)
    assert not calls

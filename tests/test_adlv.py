import itertools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from centralleaf import isocrystal, lattices, linalg
from centralleaf.affine import enumerate_elements, rep_lift
from centralleaf.errors import BudgetExceededError, PreconditionError
from centralleaf.isocrystal import is_completely_slope_divisible
from centralleaf.lattices import LatticeModel, adlv_points, enumerate_lattices
from centralleaf.leaves import neutral_acceptable
from centralleaf.rootdata import build_classical
from centralleaf.serialize import element_from_doc
from centralleaf.slopes import (MonomialIsocrystal, RationalIsocrystal,
                                restriction_of_scalars)

GL2 = build_classical("GL", 2)


def subgroup_count_oracle(n, p, big_n):
    """Exhaustive subgroup count of (Z/p^{2N})^n by closure of generator
    tuples; independent of the Hermite-form enumeration."""
    q = p ** (2 * big_n)
    elems = list(itertools.product(range(q), repeat=n))

    def close(gens):
        seen = {(0,) * n}
        frontier = [(0,) * n]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % q for a, b in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    return len({close(gens)
                for gens in itertools.combinations_with_replacement(elems, n)})


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def birkhoff_subgroup_count(n, p, big_n):
    """Closed-form count of the subgroups of (Z/p^{2N})^n (Birkhoff; L. M.
    Butler, Mem. AMS 539, 1994): a sum over subgroup types mu inside
    lambda = (2N)^n of prod_i p^{mu'_{i+1} (lambda'_i - mu'_i)} *
    [lambda'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p, with conjugate
    partitions mu' (2N parts, each at most n) and lambda'_i = n."""
    total = 0
    for conj in itertools.combinations_with_replacement(range(n, -1, -1),
                                                        2 * big_n):
        mu = conj + (0,)
        term = 1
        for i in range(2 * big_n):
            term *= p ** (mu[i + 1] * (n - mu[i])) * gaussian_binomial(
                n - mu[i + 1], mu[i] - mu[i + 1], p)
        total += term
    return total


def test_lattice_counts_against_oracle():
    assert len(enumerate_lattices(2, 2, 1)) == 15
    assert len(enumerate_lattices(1, 2, 1)) == 3
    assert len(enumerate_lattices(1, 3, 1)) == 3
    for (n, p, big_n) in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)):
        assert len(enumerate_lattices(n, p, big_n)) == subgroup_count_oracle(n, p, big_n)


def test_lattice_counts_against_closed_form():
    for (n, p, big_n), count in (((2, 5, 2), 1169), ((2, 2, 3), 367),
                                 ((4, 2, 1), 1983)):
        assert birkhoff_subgroup_count(n, p, big_n) == count
        assert len(enumerate_lattices(n, p, big_n)) == count
    for (n, p, big_n) in ((1, 7, 3), (2, 3, 1), (3, 2, 1), (2, 2, 2),
                          (3, 5, 1)):
        assert len(enumerate_lattices(n, p, big_n)) == \
            birkhoff_subgroup_count(n, p, big_n)


def lattice_from_columns(columns, n, p, depth):
    """Canonical model of the lattice spanned by the columns plus p^{2N} Lambda."""
    q = p ** (2 * depth)
    cols = [tuple(int(c[i]) for i in range(n)) for c in columns]
    cols += [tuple(q * (1 if i == j else 0) for i in range(n)) for j in range(n)]
    rows = [[col[i] for col in cols] for i in range(n)]
    return LatticeModel(n, p, depth, linalg.hnf_columns(rows))


def _std(p=2, depth=1):
    n = 2
    scale = p ** depth
    return lattice_from_columns([(scale, 0), (0, scale)], n, p, depth)


def test_lattice_models_canonical():
    models = enumerate_lattices(2, 2, 1)
    assert len(set(models)) == len(models)
    # canonical form equals the Hermite form of any generating presentation
    for model in models:
        cols = [tuple(model.basis[i][j] for i in range(2)) for j in range(2)]
        rebuilt = lattice_from_columns(cols, 2, 2, 1)
        assert rebuilt == model


def test_budget_guards(monkeypatch):
    # only the node budget limits a census; p must be a prime
    assert len(enumerate_lattices(2, 5, 1)) == 45
    assert len(enumerate_lattices(5, 2, 1)) == birkhoff_subgroup_count(5, 2, 1)
    for p in (4, 1, 0, -3):
        with pytest.raises(PreconditionError):
            enumerate_lattices(2, p, 1)
    for n, depth in ((0, 1), (2, 0)):
        with pytest.raises(PreconditionError):
            enumerate_lattices(n, 2, depth)
    full = set(enumerate_lattices(3, 3, 2))
    monkeypatch.setattr(lattices, "_ENUM_BUDGET", 50)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_lattices(3, 3, 2)
    partial = info.value.partial
    assert partial and all(m in full for m in partial)


def test_adlv_basic_nonempty_with_certificates():
    b = MonomialIsocrystal(2, (1, 0), (1, 0))
    census = adlv_points(b, (1, 0), 2, 1)
    assert census.nonempty
    for pt in census.points:
        assert pt.inv == (1, 0)
        assert pt.slope_divisible.divisible
        # independent re-verification of the certificate
        transition = linalg.mat_mul(
            linalg.mat_inv(pt.lattice.basis),
            linalg.mat_mul(b.rational_matrix(2),
                           tuple(tuple(F(x) for x in row) for row in pt.lattice.basis)))
        again = is_completely_slope_divisible(RationalIsocrystal(transition, 2))
        assert again.divisible


def test_adlv_unacceptable_is_empty():
    b = MonomialIsocrystal(2, (0, 1), (2, -1))  # lift of t^(2,-1)
    for depth in (1, 2):
        assert not adlv_points(b, (1, 0), 2, depth).nonempty


def test_adlv_ordinary_contains_standard_lattice():
    b = MonomialIsocrystal(2, (0, 1), (1, 0))  # diag(p, 1)
    census = adlv_points(b, (1, 0), 2, 1)
    std = _std()
    assert any(pt.lattice == std for pt in census.points)
    point = next(pt for pt in census.points if pt.lattice == std)
    assert point.inv == (1, 0) and point.kappa == 0


def test_adlv_preconditions():
    b = MonomialIsocrystal(2, (0, 1), (1, 0))
    with pytest.raises(PreconditionError):
        adlv_points(b, (0, 1), 2, 1)
    with pytest.raises(PreconditionError):
        adlv_points(b, (2, 0), 2, 1)


def test_adlv_restriction_of_scalars():
    # twisted rank-1 datum: b = (p) over the quadratic extension
    b = MonomialIsocrystal(1, (0,), (1,), frobenius_power=2)
    census = adlv_points(b, (1,), 2, 1)
    assert census.mu == (1, 1)
    for pt in census.points:
        assert pt.slope_divisible.divisible


def test_mazur_consistency_grid_small():
    # nonemptiness implies neutral acceptability on the GL2 grid at p=2
    window = [x for x in enumerate_elements(GL2, 2, 2)]
    flagged = []
    for x in window:
        b = rep_lift(x)
        acceptable = neutral_acceptable(GL2, x, (1, 0))
        nonempty = any(adlv_points(b, (1, 0), 2, depth).nonempty
                       for depth in (1, 2))
        if nonempty:
            assert acceptable, x
        elif acceptable:
            flagged.append(x)  # depth escalation needed, never a theorem
    assert not flagged or all(
        not adlv_points(rep_lift(x), (1, 0), 2, 2).nonempty for x in flagged)


def sympy_relative_position(l1_basis, image_basis, p):
    """Oracle inv(L1, L2) from the rational transition B1^-1 B2 and sympy's
    invariant factors; shares no code with the census check."""
    transition = linalg.mat_mul(linalg.mat_inv(l1_basis), image_basis)
    den = 1
    for row in transition:
        for x in row:
            den = lcm(den, F(x).denominator)
    ints = [[int(x * den) for x in row] for row in transition]
    shift = linalg.valuation(den, p)
    factors = invariant_factors(DomainMatrix.from_Matrix(SymMatrix(ints)).convert_to(ZZ))
    return tuple(sorted((linalg.valuation(int(f), p) - shift for f in factors),
                        reverse=True))


def test_every_census_check_matches_sympy_oracle(monkeypatch):
    # every lattice's exponents, not only the matches: the GL2 grid at
    # depth 1 and, at p = 2, at depth 2 (83 lattices), and GL3 at depth 1
    # (129 lattices at p = 2), whose 3x3 checks close on a 2x2 block
    recorded = []
    check = lattices._invariant_exponents

    def record(*args):
        recorded.append(check(*args))
        return recorded[-1]

    monkeypatch.setattr(lattices, "_invariant_exponents", record)
    GL3 = build_classical("GL", 3)
    gl2 = [rep_lift(x) for x in enumerate_elements(GL2, 2, 2)]
    gl3 = [rep_lift(element_from_doc(GL3, doc)) for doc in
           ({"lambda": [1, 0, 0], "w": "e"}, {"lambda": [1, 0, 0], "w": "s1*s2"})]
    cases = [(b, (1, 0), p, 1) for b in gl2 for p in (2, 3, 5)]
    cases += [(b, (1, 0), 2, 2) for b in gl2]
    cases += [(b, (1, 0, 0), 2, 1) for b in gl3]
    for b, mu, p, depth in cases:
        recorded.clear()
        census = adlv_points(b, mu, p, depth)
        models = enumerate_lattices(b.size, p, depth)
        assert len(recorded) == len(models) == census.lattice_count
        matrix = b.rational_matrix(p)
        expected = [sympy_relative_position(
            m.basis, linalg.mat_mul(matrix, m.basis), p) for m in models]
        assert recorded == expected, (b, p, depth)
        assert [pt.lattice for pt in census.points] == \
            [m for m, inv in zip(models, expected) if inv == mu]


@st.composite
def monomial_censuses(draw):
    """(b, mu, p): a random monomial b with exponents in [-1, 2] and
    frobenius power r, n * r <= 3, and a minuscule dominant mu, preferring
    one whose total matches v_p(det b) so that points can exist."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3 // r))
    perm = tuple(draw(st.permutations(range(n))))
    exps = tuple(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    candidates = [(base + 1,) * k + (base,) * (n - k)
                  for base in (-1, 0, 1) for k in range(n)]
    matching = [mu for mu in candidates if r * sum(mu) == sum(exps)]
    mu = draw(st.sampled_from(matching or candidates))
    p = draw(st.sampled_from((2, 3)))
    return MonomialIsocrystal(n, perm, exps, frobenius_power=r), mu, p


@settings(max_examples=60, deadline=None)
@given(monomial_censuses())
def test_census_matches_per_lattice_filter(case):
    # the census against a filter over enumerate_lattices on the sympy oracle
    b, mu, p = case
    census = adlv_points(b, mu, p, 1)
    expanded = restriction_of_scalars(b)
    matrix = expanded.rational_matrix(p)
    models = enumerate_lattices(expanded.size, p, 1)
    assert census.lattice_count == len(models)
    expected = [m for m in models if sympy_relative_position(
        m.basis, linalg.mat_mul(matrix, m.basis), p) == census.mu]
    assert [pt.lattice for pt in census.points] == expected
    for pt in census.points:
        assert pt.inv == census.mu
        assert pt.kappa == pt.lattice.det_valuation()
        basis = pt.lattice.basis
        transition = linalg.mat_mul(linalg.mat_inv(basis),
                                    linalg.mat_mul(matrix, basis))
        assert pt.slope_divisible == is_completely_slope_divisible(
            RationalIsocrystal(transition, p))


def test_census_budget_refuses_before_any_check(monkeypatch):
    checks = []
    check = lattices._invariant_exponents

    def record(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(lattices, "_invariant_exponents", record)
    monkeypatch.setattr(lattices, "_ENUM_BUDGET", 50)
    b = MonomialIsocrystal(3, (1, 2, 0), (1, 0, 0))
    with pytest.raises(BudgetExceededError) as info:
        adlv_points(b, (1, 0, 0), 3, 1)
    assert not checks
    assert "exceeded 50 nodes" in str(info.value)
    assert all(isinstance(m, LatticeModel) for m in info.value.partial)
    with pytest.raises(BudgetExceededError):
        enumerate_lattices(3, 3, 1)


def test_a_filled_window_cache_still_keeps_the_budget(monkeypatch):
    # the budget is part of the window's key: a window cached under the
    # default budget does not answer a call made under a smaller one
    b = MonomialIsocrystal(3, (1, 2, 0), (1, 0, 0))
    full = set(enumerate_lattices(3, 3, 1))
    adlv_points(b, (1, 0, 0), 3, 1)
    checks = []
    check = lattices._invariant_exponents

    def record(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(lattices, "_invariant_exponents", record)
    monkeypatch.setattr(lattices, "_ENUM_BUDGET", 50)
    for call in (lambda: enumerate_lattices(3, 3, 1),
                 lambda: adlv_points(b, (1, 0, 0), 3, 1)):
        with pytest.raises(BudgetExceededError) as info:
            call()
        partial = info.value.partial
        assert partial and all(isinstance(m, LatticeModel) and m in full
                               for m in partial)
    assert not checks


def test_a_process_walks_each_window_once(monkeypatch):
    lattices._window.cache_clear()
    walks = []
    walk = lattices._hermite_walk

    def record(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(lattices, "_hermite_walk", record)
    grid = list(enumerate_elements(GL2, 2, 2))
    assert len(grid) == 37
    for x in grid:
        b = rep_lift(x)
        for p in (2, 3):
            adlv_points(b, (1, 0), p, 1)
    for p in (2, 3):
        enumerate_lattices(2, p, 1)
    assert len(walks) == len(set(walks)) == 2


def _count_rational_certificates(monkeypatch):
    """Record every matrix that reaches the rational certificate."""
    decided = []
    decide = isocrystal._csd_rational

    def record(m):
        decided.append(m.matrix)
        return decide(m)

    monkeypatch.setattr(isocrystal, "_csd_rational", record)
    return decided


def test_a_census_certifies_each_transition_once(monkeypatch):
    # GL2 t^(1,0), p = 3, depth 2: 25 points, all with one transition
    decided = _count_rational_certificates(monkeypatch)
    calls = []
    certify = lattices.is_completely_slope_divisible

    def record(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(lattices, "is_completely_slope_divisible", record)
    census = adlv_points(MonomialIsocrystal(2, (0, 1), (1, 0)), (1, 0), 3, 2)
    assert len(census.points) == len(calls) == 25
    assert len(decided) == 1


def test_a_census_certifies_each_distinct_transition(monkeypatch):
    # GL3 depth 1, the basic element {lambda: [0,1,0], w: s2*s1} at p = 3:
    # 7 points and 3 distinct transitions
    decided = _count_rational_certificates(monkeypatch)
    GL3 = build_classical("GL", 3)
    b = rep_lift(element_from_doc(GL3, {"lambda": [0, 1, 0], "w": "s2*s1"}))
    census = adlv_points(b, (1, 0, 0), 3, 1)
    assert len(census.points) == 7
    assert len(decided) == len(set(decided)) == 3


def test_no_certificate_outlives_a_census(monkeypatch):
    decided = _count_rational_certificates(monkeypatch)
    b = MonomialIsocrystal(2, (0, 1), (1, 0))
    first = adlv_points(b, (1, 0), 3, 2)
    once = len(decided)
    assert once >= 1
    assert adlv_points(b, (1, 0), 3, 2) == first
    assert len(decided) == 2 * once


@pytest.mark.parametrize("b, mu", [
    (rep_lift(next(iter(enumerate_elements(GL2, 2, 2)))), (1, 0)),
    (MonomialIsocrystal(2, (1, 0), (1, 0)), (1, 0)),
    (MonomialIsocrystal(1, (0,), (1,), frobenius_power=2), (1,)),
    (MonomialIsocrystal(2, (1, 0), (1, 0), frobenius_power=2), (1, 0)),
])
def test_a_census_from_the_cache_equals_a_fresh_one(b, mu):
    adlv_points(b, mu, 2, 1)
    hits = lattices._window.cache_info().hits
    cached = adlv_points(b, mu, 2, 1)
    assert lattices._window.cache_info().hits == hits + 1
    lattices._window.cache_clear()
    assert adlv_points(b, mu, 2, 1) == cached


def test_the_window_cache_keeps_at_most_maxsize_windows():
    info = lattices._window.cache_info
    windows = [(1, p, depth) for p in (2, 3, 5, 7, 11) for depth in (1, 2)]
    assert len(windows) > info().maxsize
    for n, p, depth in windows:
        assert len(enumerate_lattices(n, p, depth)) == 2 * depth + 1
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize

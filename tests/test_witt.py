import itertools
import random
from math import comb

import pytest

from centralleaf.errors import (BudgetExceededError, ConfigurationError,
                               ConsistencyError, DatumMismatchError,
                               NotPDivisibleError, PreconditionError)
from centralleaf.slopes import MonomialIsocrystal, slopes_monomial
from centralleaf.witt import (DisplayDatum, NilpotentPolyRing, ZModRing,
                              display_check, display_from_element,
                              int_of_witt_digits, structure_polynomials,
                              truncate, witt, witt_add,
                              witt_digits_of_int, witt_frobenius,
                              witt_from_int, witt_ghost, witt_mul, witt_neg,
                              witt_scalar, witt_verschiebung, WittVector,
                              _IntPolys, _pvar, _solve_components)


def test_structure_polynomials_are_integral():
    # derivation asserts denominator-freeness; touching (p, m) pairs is the test
    for p, m in ((2, 3), (3, 3), (2, 4), (5, 2)):
        polys = structure_polynomials(p, m)
        assert len(polys["add"]) == m and len(polys["mul"]) == m
        assert len(polys["frob"]) == m - 1


def _poly(nvars, terms):
    """{exponent tuple: coefficient} from (coefficient, {variable: exponent})."""
    return {tuple(exps.get(i, 0) for i in range(nvars)): c for c, exps in terms}


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_structure_polynomials_known_answers(p, m):
    # textbook first components, written out without the ghost equations;
    # X_i is variable i and Y_i is variable m + i
    n = 2 * m
    x0, x1, y0, y1 = 0, 1, m, m + 1
    polys = structure_polynomials(p, m)
    assert polys["add"][0] == _poly(n, [(1, {x0: 1}), (1, {y0: 1})])
    assert polys["add"][1] == _poly(n, [(1, {x1: 1}), (1, {y1: 1})] + [
        (-comb(p, i) // p, {x0: i, y0: p - i}) for i in range(1, p)])
    assert polys["mul"][0] == _poly(n, [(1, {x0: 1, y0: 1})])
    assert polys["mul"][1] == _poly(n, [(1, {x0: p, y1: 1}), (1, {x1: 1, y0: p}),
                                        (p, {x1: 1, y1: 1})])
    assert polys["frob"][0] == _poly(m, [(1, {0: p}), (p, {1: 1})])
    if p % 2:
        assert polys["neg"] == [_poly(m, [(-1, {i: 1})]) for i in range(m)]


def test_fractional_structure_polynomial_is_refused():
    # ghost_1(S) = X0 has no integral solution: p S_1 = X0 - X0^2
    x0 = _pvar(1, 0)
    with pytest.raises(ConsistencyError):
        _solve_components(_IntPolys(1), 2, [x0, x0])


def test_derivation_budget():
    # (3, 5) needs about 16.6M pair products and used to run for minutes;
    # (2, 6) needs about 1.6M and must still answer
    with pytest.raises(BudgetExceededError):
        structure_polynomials(3, 5)
    assert len(structure_polynomials(2, 6)["mul"]) == 6


def _evaluate_polynomial(ring, poly, values):
    """sum of c * prod values[i]^e_i, by repeated multiplication in ring."""
    total = ring.zero()
    for exps, coeff in poly.items():
        term = ring.from_int(coeff)
        for value, e in zip(values, exps):
            for _ in range(e):
                term = ring.mul(term, value)
        total = ring.add(total, term)
    return total


def _random_nilpotent(ring, rng):
    terms = {exps: rng.randrange(ring.modulus)
             for exps in itertools.product(*map(range, ring.truncations))
             if rng.random() < 0.6}
    return ring._norm(terms)


STRUCTURE_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                  (5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,m", STRUCTURE_GRID)
def test_operations_match_structure_polynomials(p, m):
    # the ghost solver on Witt vectors against evaluating the universal
    # polynomials term by term, on both coefficient rings
    polys = structure_polynomials(p, m)
    rng = random.Random(100 * p + m)
    cases = [(ZModRing(p, k), lambda ring: rng.randrange(ring.modulus), 40)
             for k in (1, 3)]
    cases.append((NilpotentPolyRing(p, 2, (2, 3)),
                  lambda ring: _random_nilpotent(ring, rng), 4))
    for ring, sample, count in cases:
        for _ in range(count):
            xs = tuple(sample(ring) for _ in range(m))
            ys = tuple(sample(ring) for _ in range(m))
            a, b = witt(ring, xs), witt(ring, ys)
            expected = {op: tuple(_evaluate_polynomial(ring, s, xs + ys)
                                  for s in polys[op])
                        for op in ("add", "mul", "neg", "frob")}
            assert witt_add(a, b).components == expected["add"]
            assert witt_mul(a, b).components == expected["mul"]
            assert witt_neg(a).components == expected["neg"]
            if m > 1:
                assert witt_frobenius(a).components == expected["frob"]


def test_coefficient_rings_refuse_exponent_below_one():
    for k in (0, -1):
        with pytest.raises(ConfigurationError, match="at least 1"):
            ZModRing(2, k)
        with pytest.raises(ConfigurationError, match="at least 1"):
            NilpotentPolyRing(3, k, (2,))


@pytest.mark.parametrize("p", (1, 4, 6))
def test_coefficient_rings_refuse_a_non_prime(p):
    # witt_add over ZModRing(4, 2) used to raise ConsistencyError, the
    # internal-bug error
    with pytest.raises(PreconditionError, match="prime"):
        ZModRing(p, 2)
    with pytest.raises(PreconditionError, match="prime"):
        NilpotentPolyRing(p, 2, (2,))


def test_witt_operations_refuse_mismatched_inputs():
    ring = ZModRing(3, 2)
    with pytest.raises(ConfigurationError, match="at least one component"):
        witt(ring, ())
    a = witt(ring, (1, 1))
    for b in (witt(ring, (1, 1, 0)), witt(ZModRing(3, 3), (1, 1))):
        with pytest.raises(DatumMismatchError):
            witt_mul(a, b)


def test_addition_example_prime_field():
    # W_2 over the prime field is Z/4: (1,0) + (1,0) = (0,1), the image of 2
    ring = ZModRing(2, 1)
    a = witt(ring, (1, 0))
    assert witt_add(a, a).components == (0, 1)
    assert witt_digits_of_int(2, 2, 2) == (0, 1)


def test_ghost_definitional():
    ring = ZModRing(2, 5)
    a = witt(ring, (3, 7))
    assert witt_ghost(a) == (3, (3 ** 2 + 2 * 7) % 32)
    # the prime is the ring's: ghosts over Z/3^5 are read at p = 3
    assert WittVector._fields == ("ring", "components")
    assert witt_ghost(witt(ZModRing(3, 5), (3, 7))) == (3, 3 ** 3 + 3 * 7)
    assert witt_ghost(witt_from_int(ZModRing(3, 5), 2, 5)) == (5, 5)


@pytest.mark.parametrize("p", [2, 3])
def test_ghost_is_ring_homomorphism(p):
    # 500 random pairs in W_3 over Z/p^5, exact
    ring = ZModRing(p, 5)
    rng = random.Random(1000 + p)
    for _ in range(500):
        a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
        b = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
        ga, gb = witt_ghost(a), witt_ghost(b)
        assert witt_ghost(witt_add(a, b)) == tuple(ring.add(x, y)
                                                   for x, y in zip(ga, gb))
        assert witt_ghost(witt_mul(a, b)) == tuple(ring.mul(x, y)
                                                   for x, y in zip(ga, gb))
        assert witt_ghost(witt_neg(a)) == tuple(ring.neg(x) for x in ga)


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_verschiebung_identities(p):
    ring = ZModRing(p, 5)
    rng = random.Random(55 + p)
    one = witt(ring, (1, 0, 0))
    for _ in range(100):
        a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
        # F(V(a)) = p * a, compared at the truncated length
        fv = witt_frobenius(witt_verschiebung(a))
        assert fv.components == truncate(witt_scalar(a, p), 2).components
        # V(F(a)) = a * V(1)
        vf = witt_verschiebung(witt_frobenius(a))
        rhs = witt_mul(a, witt_verschiebung(one))
        assert truncate(vf, 2).components == truncate(rhs, 2).components


def test_frobenius_reduces_to_p_power_mod_p():
    for p in (2, 3):
        ring = ZModRing(p, 4)
        rng = random.Random(p)
        for _ in range(50):
            a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
            fa = witt_frobenius(a)
            for i in range(2):
                assert (fa.components[i] - a.components[i] ** p) % p == 0


def test_digit_isomorphism_round_trip():
    for p in (2, 3):
        for m in (1, 2, 3):
            for x in range(p ** m):
                assert int_of_witt_digits(witt_digits_of_int(x, p, m), p) == x


def test_digit_isomorphism_is_additive_oracle():
    # the universal polynomials over F_p agree with integer arithmetic in Z/p^m
    for p, m in ((2, 3), (2, 4), (3, 3), (3, 4), (5, 2)):
        ring = ZModRing(p, 1)
        rng = random.Random(77 + p)
        for _ in range(100):
            x, y = rng.randrange(p ** m), rng.randrange(p ** m)
            a = witt(ring, witt_digits_of_int(x, p, m))
            b = witt(ring, witt_digits_of_int(y, p, m))
            assert witt_add(a, b).components == witt_digits_of_int((x + y) % p ** m, p, m)
            assert witt_mul(a, b).components == witt_digits_of_int((x * y) % p ** m, p, m)


def test_integer_images_are_teichmuller_digits():
    # the image of n in W_m(F_p) = Z/p^m has the digits of n mod p^m
    for p, m in ((2, 3), (2, 5), (3, 3), (5, 2)):
        ring = ZModRing(p, 1)
        for n in list(range(-40, 41)) + [10 ** 9 + 7, -3 ** 20]:
            assert witt_from_int(ring, m, n).components == \
                witt_digits_of_int(n % p ** m, p, m)


def test_nilpotent_coefficients():
    ring = NilpotentPolyRing(2, 3, (2,))
    x = ring.variable(0)
    a = witt(ring, (x, ring.one()))
    b = witt(ring, (ring.one(), x))
    ga, gb = witt_ghost(a), witt_ghost(b)
    gs = witt_ghost(witt_add(a, b))
    assert gs == tuple(ring.add(u, v) for u, v in zip(ga, gb))
    assert ring.mul(x, x) == ring.zero()


def test_display_ordinary_example():
    b = MonomialIsocrystal(2, (0, 1), (0, -1))  # diag(1, p^-1)
    datum = display_from_element(b, 2)
    report = display_check(datum)
    assert report.passed and report.hodge_rank == 1
    # M1 = span(e1, p e2)
    assert datum.m1_columns == ((1, 0), (0, 2))


def test_display_rejects_bad_window():
    with pytest.raises(NotPDivisibleError):
        display_from_element(MonomialIsocrystal(2, (0, 1), (0, 1)), 2)
    # slope inside the window but the lattice itself not display-compatible
    with pytest.raises(NotPDivisibleError):
        display_from_element(MonomialIsocrystal(2, (1, 0), (-2, 1)), 2)


def test_display_supersingular_window():
    b = MonomialIsocrystal(2, (1, 0), (0, -1))  # [[0,1],[p^-1,0]]
    report = display_check(display_from_element(b, 2))
    assert report.passed and report.hodge_rank == 1


def test_display_degenerate_failures():
    base = display_from_element(MonomialIsocrystal(2, (0, 1), (0, -1)), 2)
    assert display_check(base).passed
    zero = tuple(tuple(0 for _ in range(2)) for _ in range(2))
    no_phi1 = base._replace(phi1=zero)
    report = display_check(no_phi1)
    assert not report.phi1_generates and not report.passed
    broken = base._replace(phi=zero)
    report2 = display_check(broken)
    assert not report2.phi_compatible and report2.witness == 0
    assert not report2.passed


@pytest.mark.parametrize("field, reshape", [
    ("phi1", lambda rows: rows + rows[:1]),  # used to pass, the extra row unread
    ("phi1", lambda rows: rows[:1]),  # used to raise IndexError
    ("phi", lambda rows: (rows[0][:1],) + rows[1:]),  # used to raise IndexError
], ids=["extra-phi1-row", "short-phi1", "short-phi-row"])
def test_display_check_refuses_misshapen_matrices(field, reshape):
    base = display_from_element(MonomialIsocrystal(2, (0, 1), (0, -1)), 2)
    with pytest.raises(ConfigurationError, match="inconsistent shapes"):
        display_check(base._replace(**{field: reshape(getattr(base, field))}))


def test_display_rank_is_the_size_of_phi():
    assert "rank" not in DisplayDatum._fields
    # n is len(phi), so an empty display is refused before m1_columns[0] is read
    with pytest.raises(ConfigurationError, match="rank at least 1"):
        display_check(DisplayDatum(2, 1, (), (), ()))


def _random_display(rng):
    """A display over Z/p^level with 1 to 5 generators of M1 whose entries
    may be negative or past p^level: half are a monomial's display with
    generators of M1 appended (so they pass), half are random matrices."""
    p, level, n = rng.choice((2, 3, 5)), rng.randint(1, 4), rng.randint(1, 4)
    q = p ** level

    def entry():
        return rng.randrange(-q, 2 * q)

    if rng.random() < 0.5:
        count = rng.randint(1, 5)
        return DisplayDatum(p, level,
                            tuple(tuple(entry() for _ in range(count)) for _ in range(n)),
                            tuple(tuple(entry() for _ in range(n)) for _ in range(n)),
                            tuple(tuple(entry() for _ in range(count)) for _ in range(n)))
    b = MonomialIsocrystal(n, tuple(rng.sample(range(n), n)),
                           tuple(rng.choice((-1, 0)) for _ in range(n)))
    d = display_from_element(b, p, level)
    gens = [list(col) for col in zip(*d.m1_columns)]
    images = [list(col) for col in zip(*d.phi1)]
    for _ in range(rng.randint(0, 5 - n)):
        # sum a_j g_j + p v lies in M1, and Phi1 sends it to
        # sum a_j Phi1(g_j) + Phi(v)
        a = [entry() for _ in range(n)]
        v = [entry() for _ in range(n)]
        gens.append([sum(a[j] * gens[j][i] for j in range(n)) + p * v[i]
                     for i in range(n)])
        images.append([sum(a[j] * images[j][i] for j in range(n)) +
                       sum(d.phi[i][k] * v[k] for k in range(n)) for i in range(n)])
    return d._replace(m1_columns=tuple(zip(*gens)), phi1=tuple(zip(*images)))


def test_display_check_is_a_function_of_the_display():
    # listing a generator of M1 twice, or in another order, presents the
    # same display: every flag and the Hodge rank must stay
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(400):
        d = _random_display(rng)
        report = display_check(d)
        seen = (report.phi_compatible, report.phi1_generates, report.hodge_rank,
                report.passed)
        outcomes.add(report.passed)
        count = len(d.m1_columns[0])
        j = rng.randrange(count)
        order = rng.sample(range(count), count)
        for cols in ([*range(count), j], order):
            other = d._replace(
                m1_columns=tuple(tuple(row[c] for c in cols) for row in d.m1_columns),
                phi1=tuple(tuple(row[c] for c in cols) for row in d.phi1))
            again = display_check(other)
            assert (again.phi_compatible, again.phi1_generates, again.hodge_rank,
                    again.passed) == seen, (d, cols)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [2, 3])
def test_displays_for_all_small_monomials(p):
    # every monomial of size <= 4 with exponents in {-1, 0} builds a display
    # passing both axioms
    count = 0
    for n in (1, 2, 3, 4):
        for perm in itertools.permutations(range(n)):
            for exps in itertools.product((-1, 0), repeat=n):
                b = MonomialIsocrystal(n, perm, exps)
                assert all(-1 <= s <= 0 for s in slopes_monomial(b))
                report = display_check(display_from_element(b, p))
                assert report.passed
                assert report.hodge_rank == sum(1 for e in exps if e == -1)
                count += 1
    assert count > 100


@pytest.mark.parametrize("p", (1, 4, -2, 0))
def test_display_from_element_refuses_a_non_prime(p):
    with pytest.raises(PreconditionError, match="prime"):
        display_from_element(MonomialIsocrystal(2, (0, 1), (0, -1)), p)


@pytest.mark.parametrize("p", (1, 4, -2, 0))
def test_display_check_refuses_a_non_prime(p):
    base = display_from_element(MonomialIsocrystal(2, (0, 1), (0, -1)), 2)
    with pytest.raises(PreconditionError, match="prime"):
        display_check(base._replace(prime=p))


@pytest.mark.parametrize("level", (0, -1))
def test_display_entry_points_refuse_a_level_below_one(level):
    # level 0 built and passed a display over the zero ring, and level -1
    # put the float 0.0 into m1_columns and phi
    b = MonomialIsocrystal(2, (0, 1), (0, -1))
    with pytest.raises(ConfigurationError, match="at least 1"):
        display_from_element(b, 2, level)
    base = display_from_element(b, 2)
    with pytest.raises(ConfigurationError, match="at least 1"):
        display_check(base._replace(level=level))

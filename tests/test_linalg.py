import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sympy import GF, ZZ
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from centralleaf import lattices, linalg
from centralleaf.errors import SingularInputError


def sympy_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, computed by sympy."""
    dm = DomainMatrix.from_Matrix(SymMatrix([list(map(int, r)) for r in rows]))
    return tuple(abs(int(f)) for f in invariant_factors(dm.convert_to(ZZ)))


def sympy_exponents(rows, p):
    """Oracle: valuations of sympy's invariant factors, decreasing."""
    factors = sympy_invariant_factors(rows)
    assert len(factors) == len(rows)
    return tuple(sorted((linalg.valuation(f, p) for f in factors), reverse=True))


@st.composite
def nonsingular_matrices(draw):
    """(rows, p): n <= 4, entries +-p^k * m with m carrying non-p factors,
    rows and the whole matrix sometimes scaled by high p-powers."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    entry = st.builds(lambda sign, k, m: sign * p ** k * m,
                      st.sampled_from((1, -1)), st.integers(0, 6),
                      st.integers(0, 40))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for row in rows:
        scale = p ** draw(st.integers(0, 8)) * draw(st.sampled_from((1, 7, 11, 77)))
        row[:] = [scale * x for x in row]
    overall = p ** draw(st.integers(0, 10))
    rows = [[overall * x for x in row] for row in rows]
    assume(linalg.det(rows) != 0)
    return rows, p


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(nonsingular_matrices())
def test_elementary_divisor_exponents_match_sympy(case):
    rows, p = case
    expected = sympy_exponents(rows, p)
    assert linalg.local_exponents(rows, p) == expected[::-1]
    assert lattices._invariant_exponents(rows, p, 0) == expected


def test_elementary_divisor_exponents_examples():
    assert lattices._invariant_exponents([[4, 0], [0, 2]], 2, 0) == (2, 1)
    # non-p factors are p-adic units and leave the exponents alone
    assert lattices._invariant_exponents([[12, 6], [3, 9]], 3, 0) == (1, 1)
    assert lattices._invariant_exponents([[0, 1], [8, 0]], 2, 0) == (3, 0)
    assert lattices._invariant_exponents([[-7]], 5, 0) == (0,)
    assert linalg.local_exponents([[0, 1], [8, 0]], 2) == (0, 3)
    # the input is only read, and tuple rows give the same answer
    rows = [[2, 4, 6], [1, 8, 3], [4, 0, 20]]
    assert linalg.local_exponents(rows, 2) == \
        linalg.local_exponents(tuple(map(tuple, rows)), 2) and \
        rows == [[2, 4, 6], [1, 8, 3], [4, 0, 20]]


def test_elementary_divisor_exponents_singular():
    with pytest.raises(SingularInputError):
        lattices._invariant_exponents([[2, 4], [1, 2]], 2, 0)
    with pytest.raises(SingularInputError):
        lattices._invariant_exponents([[0, 0], [0, 3]], 3, 0)
    # one unit of rank each: local_exponents reports it and does not refuse
    assert linalg.local_exponents([[2, 4], [1, 2]], 2) == (0,)
    assert linalg.local_exponents([[0, 0], [0, 3]], 3) == (1,)


def test_valuation_of_zero_is_none():
    assert linalg.valuation(0, 2) is None
    assert linalg.valuation(12, 2) == 2
    assert linalg.valuation(Fraction(5, 27), 3) == -3


# ---------------------------------------------------------------------------
# oracles for the integer normal forms and the elimination core

ORACLE_SETTINGS = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def int_matrices(draw, max_n=4):
    """n x k integer matrices, n <= max_n, k <= 2n; half of them products of
    thin factors, so rank deficiency is common."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 2 * n))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(k)] for _ in range(n)]
    r = draw(st.integers(0, n))
    x = [[draw(entry) for _ in range(r)] for _ in range(n)]
    y = [[draw(entry) for _ in range(k)] for _ in range(r)]
    return [[sum(x[i][t] * y[t][j] for t in range(r)) for j in range(k)]
            for i in range(n)]


@st.composite
def fraction_matrices(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 4)))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def _sym(rows):
    return SymMatrix([[sympy.Rational(x.numerator, x.denominator)
                       for x in map(Fraction, row)] for row in rows])


@ORACLE_SETTINGS
@given(int_matrices())
def test_hnf_columns_matches_sympy(rows):
    expected = hermite_normal_form(SymMatrix(rows))
    if expected.shape != (len(rows), len(rows)):
        with pytest.raises(SingularInputError):
            linalg.hnf_columns(rows)
    else:
        assert linalg.hnf_columns(rows) == tuple(tuple(map(int, r)) for r in expected.tolist())


@ORACLE_SETTINGS
@given(int_matrices())
def test_smith_full_matches_sympy(rows):
    divisors, s, t = linalg.smith_full(rows)
    dm = DomainMatrix.from_Matrix(SymMatrix(rows)).convert_to(ZZ)
    assert divisors == tuple(abs(int(f)) for f in invariant_factors(dm))
    assert abs(linalg.det(s)) == 1 and abs(linalg.det(t)) == 1
    product = linalg.mat_mul(linalg.mat_mul(s, rows), t)
    assert product == tuple(tuple(divisors[i] if i == j else 0 for j in range(len(rows[0])))
                            for i in range(len(rows)))


def _fraction_gauss_jordan(rows, width=None):
    """Reference: Gauss-Jordan over Fractions, one division per pivot row
    and one Fraction update per entry and step."""
    work = [[Fraction(x) for x in row] for row in rows]
    nrows = len(work)
    if width is None:
        width = len(work[0]) if work else 0
    pivots = []
    determinant = Fraction(1)
    for col in range(width):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            determinant = -determinant
        determinant *= work[r][col]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    if len(pivots) < nrows:
        determinant = Fraction(0)
    return work, pivots, determinant


@st.composite
def elimination_cases(draw):
    """(rows, width, row denominators): integer rows, often rank-deficient
    or sparse, and a pivot width that may stop short of the columns."""
    rows = draw(int_matrices())
    if draw(st.booleans()):
        rows = [[x if draw(st.booleans()) else 0 for x in row] for row in rows]
    width = draw(st.one_of(st.none(), st.integers(0, len(rows[0]))))
    dens = draw(st.lists(st.sampled_from((1, 2, 3, 4, 9)),
                         min_size=len(rows), max_size=len(rows)))
    return rows, width, dens


@ORACLE_SETTINGS
@given(elimination_cases())
@example(([[2, 0], [0, 3]], None, [1, 1]))
@example(([[0, 0], [-1, 0], [0, 1]], 1, [1, 2, 3]))
def test_fraction_free_elimination_matches_fraction_loop(case):
    # the rows without a pivot must come out as over Q too
    rows, width, dens = case
    for case in (rows, [[Fraction(x, d) for x in row] for row, d in zip(rows, dens)]):
        reduced, pivots, determinant = linalg._gauss_jordan(case, width)
        assert (reduced, pivots, determinant) == _fraction_gauss_jordan(case, width)
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert type(determinant) is Fraction


@ORACLE_SETTINGS
@given(int_matrices())
def test_elimination_return_types(rows):
    square = [row[:len(rows)] for row in rows] if len(rows[0]) >= len(rows) else None
    if square is not None:
        assert type(linalg.det(square)) is Fraction
        if linalg.det(square):
            assert all(type(x) is Fraction for row in linalg.mat_inv(square) for x in row)
            solution = linalg.solve_columns(linalg.transpose(square), rows[0][:len(rows)])
            assert solution is not None and all(type(x) is Fraction for x in solution)


@pytest.mark.parametrize("rows", [((2, -1, 0), (1, 3, 1), (0, -2, 1)),
                                  ((Fraction(1, 2), 1), (Fraction(-2, 3), Fraction(3, 4)))],
                         ids=["int", "fraction"])
def test_mat_pow_matches_repeated_products(rows, monkeypatch):
    expected = [linalg.identity(len(rows))]
    for _ in range(9):
        expected.append(linalg.mat_mul(expected[-1], rows))
    products = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: products.append(1) or mat_mul(a, b))
    for k in range(10):
        products.clear()
        assert linalg.mat_pow(rows, k) == expected[k]
        # one squaring per bit below the top one, one product per further set bit
        assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)


@ORACLE_SETTINGS
@given(fraction_matrices())
def test_charpoly_matches_sympy(rows):
    expected = [Fraction(c.p, c.q) for c in reversed(_sym(rows).charpoly().all_coeffs())]
    assert linalg.charpoly(rows) == tuple(expected)


@ORACLE_SETTINGS
@given(fraction_matrices())
def test_det_and_inverse_match_sympy(rows):
    sym = _sym(rows)
    d = sym.det()
    assert linalg.det(rows) == Fraction(d.p, d.q)
    if d == 0:
        with pytest.raises(SingularInputError):
            linalg.mat_inv(rows)
    else:
        assert linalg.mat_inv(rows) == tuple(
            tuple(Fraction(x.p, x.q) for x in r) for r in sym.inv().tolist())


@st.composite
def kernel_cases(draw):
    """(rows, u): an m x n integer matrix, m, n <= 5, of any rank from 0 to
    min(m, n), as a product of thin factors, and a unimodular m x m matrix u
    (a permutation of elementary row operations)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    entry = st.integers(-6, 6)
    x = [[draw(entry) for _ in range(r)] for _ in range(m)]
    y = [[draw(entry) for _ in range(n)] for _ in range(r)]
    rows = [[sum(x[i][t] * y[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                           st.integers(-3, 3)), max_size=6)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return rows, draw(st.permutations(u))


@ORACLE_SETTINGS
@given(kernel_cases())
@example(([[0, 0, 0], [0, 0, 0]], [[0, 1], [1, 0]]))  # rank 0: the whole Z^3
@example(([[2, 1], [1, 1]], [[1, 0], [0, 1]]))  # full rank: no basis
@example(([[2, 4, 6]], [[1]]))  # a saturated kernel whose Hermite pivots exceed 1
def test_saturated_kernel_matches_sympy(case):
    rows, u = case
    n = len(rows[0])
    basis, s = linalg.saturated_kernel(rows)
    k = len(basis)
    # the basis spans sympy's kernel over Q, is saturated (its Smith
    # invariants are 1) and is its own Hermite form; s is unimodular with
    # s * basis the leading identity columns
    kernel = SymMatrix(rows).nullspace()
    assert k == len(kernel)
    s = SymMatrix(s)
    assert s.shape == (n, n) and s.det() in (1, -1)
    if k:
        b = SymMatrix(basis).T
        assert SymMatrix(rows) * b == sympy.zeros(len(rows), k)
        assert b.rank() == k == SymMatrix.hstack(b, *kernel).rank()
        assert list(invariant_factors(DomainMatrix.from_Matrix(b).convert_to(ZZ))) == [1] * k
        assert hermite_normal_form(b) == b
        assert s * b == sympy.eye(n)[:, :k]
    # the basis depends only on the kernel: a unimodular u leaves it alone
    assert linalg.saturated_kernel(linalg.mat_mul(u, rows))[0] == basis


@ORACLE_SETTINGS
@given(int_matrices(), st.sampled_from((2, 3, 5)))
@example(rows=[[2, 4, 6], [1, 2, 3], [4, 8, 12]], p=2)  # rank 1
@example(rows=[[0, 0], [0, 0]], p=3)  # rank 0
@example(rows=[[3, 6, 9, 0], [2, 0, 4, 8]], p=3)  # wide
@example(rows=[[6], [9], [18]], p=3)  # tall
@example(rows=[[1, 0, 0], [0, 2, 4], [0, 1, 2]], p=2)  # closes on a rank-1 2x2
@example(rows=[[3, 0, 0], [0, 0, 0], [0, 0, 0]], p=3)  # closes on a zero 2x2
@example(rows=[[-4, 8], [12, -8]], p=2)  # gcd 4, det -64
@example(rows=[[4, 2, 0, 8], [6, 1, 12, 0], [0, 8, 16, 4], [2, 0, 4, 24]],
         p=2)  # closes on a nonsingular 2x2
def test_local_exponents_and_rank_mod_p_match_sympy(rows, p):
    exps = linalg.local_exponents(rows, p)
    factors = sympy_invariant_factors(rows)
    assert exps == tuple(sorted(linalg.valuation(f, p) for f in factors if f))
    rank_mod_p = DomainMatrix.from_Matrix(SymMatrix(rows)).convert_to(GF(p)).rank()
    assert exps.count(0) == rank_mod_p


@ORACLE_SETTINGS
@given(int_matrices(max_n=3), st.sampled_from((2, 3)), st.integers(1, 2))
def test_kernel_mod_prime_power_by_counting(rows, p, k):
    # the returned columns lie in K = {v : A v == 0 mod q} and contain q Z^m;
    # an index equal to that of K (counted by brute force) makes them span K
    q = p ** k
    m = len(rows[0])
    basis = linalg.kernel_mod_prime_power(rows, p, k)
    columns = linalg.transpose(basis)
    for j, col in enumerate(columns):
        assert all(sum(a * b for a, b in zip(r, col)) % q == 0 for r in rows)
        assert linalg.solve_triangular(columns, [q * (i == j) for i in range(m)]) \
            is not None
    size = sum(1 for v in itertools.product(range(q), repeat=m)
               if all(sum(a * b for a, b in zip(r, v)) % q == 0 for r in rows))
    assert abs(linalg.det(basis)) * size == q ** m


def _kernel_mod_prime_power_by_smith(rows, p, k):
    """The kernel lattice from an integer Smith decomposition S*A*T = D:
    v = T y lies in it exactly when p^k divides every d_j y_j, so the columns
    of T are scaled by p^max(0, k - v(d_j)) and p^k Z^m is added."""
    divisors, _s, t = linalg.smith_full(rows)
    m = len(t)
    q = p ** k
    scale = [p ** max(0, k - linalg.valuation(d, p)) if d else 1 for d in divisors]
    scale += [1] * (m - len(scale))
    gens = [[t[i][j] * scale[j] for j in range(m)] + [q * (i == j) for j in range(m)]
            for i in range(m)]
    return linalg.hnf_columns(gens)


@st.composite
def p_heavy_matrices(draw):
    """(rows, p, k): n x m integer matrices, n, m <= 4 (wide and tall), with
    entries +-p^e * c, e up to 40, some zero rows, and k <= 30."""
    p = draw(st.sampled_from((2, 3, 5)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.builds(
        lambda sign, e, c: sign * p ** e * c, st.sampled_from((1, -1)),
        st.integers(0, 40), st.integers(1, 30)))
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            row[:] = [0] * m
    return rows, p, draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p_heavy_matrices())
@example(([[0, 0], [0, 0]], 2, 5))
@example(([[2 ** 30, 3 * 2 ** 7, 0]], 2, 12))
@example(([[9], [27], [0]], 3, 30))
def test_kernel_mod_prime_power_matches_smith_construction(case):
    # the Hermite form is canonical for the lattice, so elimination over
    # Z/p^k must return exactly what the integer Smith route returns
    rows, p, k = case
    assert linalg.kernel_mod_prime_power(rows, p, k) == \
        _kernel_mod_prime_power_by_smith(rows, p, k)


@ORACLE_SETTINGS
@given(st.integers(1, 4), st.data())
def test_solve_triangular_matches_rational_solve(n, data):
    # upper-triangular columns; the target reaches the leading k rows only
    pivot = st.integers(-9, 9).filter(bool)
    columns = [[data.draw(st.integers(-9, 9)) if i < j else
                data.draw(pivot) if i == j else 0 for i in range(n)]
               for j in range(n)]
    k = data.draw(st.integers(1, n))
    target = data.draw(st.lists(st.integers(-60, 60), min_size=k, max_size=k))
    exact = linalg.solve_columns([col[:k] for col in columns[:k]], target)
    found = linalg.solve_triangular(columns, target)
    if all(x.denominator == 1 for x in exact):
        assert found == tuple(int(x) for x in exact)
    else:
        assert found is None


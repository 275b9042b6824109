from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from centralleaf import linalg
from centralleaf.errors import SingularInputError


def sympy_exponents(rows, p):
    """Oracle: valuations of sympy's invariant factors, decreasing."""
    factors = linalg.invariant_factors_int(rows)
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
    assert linalg.elementary_divisor_exponents(rows, p) == sympy_exponents(rows, p)


def test_elementary_divisor_exponents_examples():
    assert linalg.elementary_divisor_exponents([[4, 0], [0, 2]], 2) == (2, 1)
    # non-p factors are p-adic units and leave the exponents alone
    assert linalg.elementary_divisor_exponents([[12, 6], [3, 9]], 3) == (1, 1)
    assert linalg.elementary_divisor_exponents([[0, 1], [8, 0]], 2) == (3, 0)
    assert linalg.elementary_divisor_exponents([[-7]], 5) == (0,)


def test_elementary_divisor_exponents_singular():
    with pytest.raises(SingularInputError):
        linalg.elementary_divisor_exponents([[2, 4], [1, 2]], 2)
    with pytest.raises(SingularInputError):
        linalg.elementary_divisor_exponents([[0, 0], [0, 3]], 3)


def test_valuation_of_zero_is_none():
    assert linalg.valuation(0, 2) is None
    assert linalg.valuation(12, 2) == 2
    assert linalg.valuation(Fraction(5, 27), 3) == -3

"""Slope readings of virtual F-crystals: the isocrystal records and three
independent routes to the slope multiset, cross checked by the test suite:

* cycle reading of a monomial (signed-permutation-free) matrix,
* the p-adic Newton polygon of a characteristic polynomial,
* weight pairings against a Newton cocharacter.

The first route reads no Newton point, so it serves as the leaf-dimension
oracle in ``leaves``: the positive slopes of the adjoint monomial lift
(``affine.adjoint_lift``), read off its cycles, against <2 rho, nu>.

The module imports ``rootdata`` only inside ``slopes_via_weights``: a
``WeightedRep`` names its datum's type as a string, so a caller that reads
monomial or rational slopes compiles no root datum.  The certificate of
complete slope divisibility lives in ``isocrystal``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from . import linalg
from .errors import ConfigurationError, ConsistencyError, SingularInputError

Matrix = linalg.Matrix


# ---------------------------------------------------------------------------
# monomial matrices p^e * (permutation)

class MonomialIsocrystal(NamedTuple("MonomialIsocrystal", [
        ("size", int), ("permutation", Tuple[int, ...]),
        ("exponents", Tuple[int, ...]), ("frobenius_power", int)])):
    """Monomial matrix datum: column j carries p^exponents[j] into row
    permutation[j]; ``frobenius_power`` r makes it a sigma^r-twisted space
    (slopes are normalised per single Frobenius application)."""

    __slots__ = ()

    def __new__(cls, size: int, permutation: Tuple[int, ...],
                exponents: Tuple[int, ...], frobenius_power: int = 1):
        if sorted(permutation) != list(range(size)):
            raise ConfigurationError("permutation is not a bijection of {0..n-1}")
        if len(exponents) != size:
            raise ConfigurationError("exponent vector has wrong length")
        if frobenius_power < 1:
            raise ConfigurationError("frobenius_power must be positive")
        return super().__new__(cls, size, permutation, exponents, frobenius_power)

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        seen, cycles = set(), []
        for start in range(self.size):
            if start in seen:
                continue
            cycle, j = [], start
            while j not in seen:
                seen.add(j)
                cycle.append(j)
                j = self.permutation[j]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def rational_matrix(self, p: int) -> Matrix:
        n = self.size
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            rows[self.permutation[j]][j] = Fraction(p) ** self.exponents[j]
        return linalg.freeze(rows)


def monomial_from_rational(matrix, p: int,
                           frobenius_power: int = 1) -> MonomialIsocrystal:
    """Read a monomial datum off a square rational matrix whose entries are
    p-powers, one per row and column."""
    linalg.require_prime(p)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ConfigurationError("matrix is not square")
    perm = [None] * n
    exps = [0] * n
    for j in range(n):
        hits = [i for i in range(n) if matrix[i][j] != 0]
        if len(hits) != 1:
            raise ConfigurationError("matrix is not monomial")
        i = hits[0]
        entry = Fraction(matrix[i][j])
        v = linalg.valuation(entry, p)
        if entry != Fraction(p) ** v:
            raise ConfigurationError(f"entry {entry} is not a power of {p}")
        perm[j] = i
        exps[j] = int(v)
    return MonomialIsocrystal(n, tuple(perm), tuple(exps), frobenius_power)


def restriction_of_scalars(m: MonomialIsocrystal) -> MonomialIsocrystal:
    """Expand a sigma^r-twisted datum of size n to a plain datum of size n*r.

    Blocks are rotated cyclically; the monomial matrix is applied at the
    wrap-around, so every slope question becomes a plain char-poly question
    (each slope of the input shows up r times in the expansion).
    """
    n, r = m.size, m.frobenius_power
    perm = [0] * (n * r)
    exps = [0] * (n * r)
    for k in range(r):
        for j in range(n):
            src = j + k * n
            if k < r - 1:
                perm[src] = j + (k + 1) * n
                exps[src] = 0
            else:
                perm[src] = m.permutation[j]
                exps[src] = m.exponents[j]
    return MonomialIsocrystal(n * r, tuple(perm), tuple(exps))


# ---------------------------------------------------------------------------
# slope multisets

def slopes_monomial(m: MonomialIsocrystal) -> Tuple[Fraction, ...]:
    """Slope multiset from the cycle structure, sorted descending."""
    out: List[Fraction] = []
    for cycle in m.cycles():
        s = sum(m.exponents[j] for j in cycle)
        out.extend([Fraction(s, len(cycle) * m.frobenius_power)] * len(cycle))
    return tuple(sorted(out, reverse=True))


class RationalIsocrystal(NamedTuple("RationalIsocrystal", [
        ("matrix", Matrix), ("prime", int)])):
    """A plain rational Frobenius matrix, square and nonempty, at a prime;
    sigma acts trivially on entries."""

    __slots__ = ()

    def __new__(cls, matrix, prime: int):
        linalg.require_prime(prime)
        matrix = linalg.freeze(tuple(Fraction(x) for x in row) for row in matrix)
        if not matrix or any(len(row) != len(matrix) for row in matrix):
            raise ConfigurationError("isocrystal matrix must be square and nonempty")
        return super().__new__(cls, matrix, prime)


def newton_polygon_slopes(coeffs: Sequence[Fraction], p: int) -> Tuple[Fraction, ...]:
    """Slopes (descending, with multiplicity) of the isocrystal whose
    characteristic polynomial has the given monic coefficient list
    (constant term first)."""
    linalg.require_prime(p)
    n = len(coeffs) - 1
    points = [(i, linalg.valuation(c, p)) for i, c in enumerate(coeffs)
              if c != 0]
    # lower convex hull, leftmost first
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes: List[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        width = x2 - x1
        slope = -Fraction(y2 - y1, width)
        slopes.extend([slope] * width)
    if len(slopes) != n:
        raise ConsistencyError("Newton polygon does not span the full degree")
    return tuple(sorted(slopes, reverse=True))


def charpoly_and_slopes(m: RationalIsocrystal) -> Tuple[Tuple[Fraction, ...],
                                                        Tuple[Fraction, ...]]:
    """det(xI - M), constant term first, and its Newton-polygon slopes;
    a singular M is refused."""
    coeffs = linalg.charpoly(m.matrix)
    if coeffs[0] == 0:
        raise SingularInputError("isocrystal matrix is not invertible")
    return coeffs, newton_polygon_slopes(coeffs, m.prime)


def slopes_charpoly(m: RationalIsocrystal) -> Tuple[Fraction, ...]:
    """Newton-polygon slopes of det(xI - M); the classical oracle."""
    return charpoly_and_slopes(m)[1]


# ---------------------------------------------------------------------------
# weighted representations

class WeightedRep(NamedTuple("WeightedRep", [
        ("datum", "RootDatum"), ("name", str), ("weights", Tuple[Tuple[int, ...], ...])])):
    """A multiset of character weights attached to a root datum."""

    __slots__ = ()

    def __new__(cls, datum: RootDatum, name: str, weights: Tuple[Tuple[int, ...], ...]):
        for w in weights:
            if len(w) != datum.cochar_rank:
                raise ConfigurationError("weight of wrong length")
        return super().__new__(cls, datum, name, weights)


def standard_rep(datum: RootDatum) -> WeightedRep:
    if datum.rep_weights is None:
        raise ConfigurationError("datum has no attached standard representation")
    return WeightedRep(datum, "standard", datum.rep_weights)


def adjoint_rep(datum: RootDatum) -> WeightedRep:
    zero = (0,) * datum.cochar_rank
    weights = (zero,) * datum.cochar_rank + datum.roots
    return WeightedRep(datum, "adjoint", weights)


def slopes_via_weights(rep: WeightedRep, nu) -> Tuple[Fraction, ...]:
    """Multiset {<chi, nu>} over the weights, sorted descending."""
    from .rootdata import require_rank
    vector = getattr(nu, "vector", nu)
    require_rank(rep.datum, vector)
    values = [Fraction(rep.datum.pair(w, vector)) for w in rep.weights]
    return tuple(sorted(values, reverse=True))

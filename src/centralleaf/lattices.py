"""Desk-scale lattice models of affine Deligne-Lusztig sets.

A lattice L with p^N Lambda <= L <= p^-N Lambda is stored through its
rescaling L' = p^N L, a sublattice of Lambda containing p^{2N} Lambda,
presented by the canonical column Hermite form of a basis.  Membership in
the Deligne-Lusztig set at hyperspecial level is the exact condition
inv(L, b sigma(L)) = mu for minuscule mu.

The check is integer-only.  The walk that generates the Hermite bases B
proves p^{2N} Lambda <= L' by solving B x = p^{2N} e_j column by column,
and those solutions are the columns of S = p^{2N} B^-1; every transition
map is then S times an integer matrix, divided by a known power of p, and
inv is read off its p-adic elementary-divisor exponents
(``linalg.local_exponents``).  No inverse, Smith form or
rational matrix is computed per lattice; a census builds the Fraction
certificate for its points only, and certifies each distinct transition
once: points that share a transition share its report, through a memo
that lives only as long as the census call.

A window depends only on (n, p, depth), so a process walks each one once:
the walk is memoised with its node budget in the key, keeps the last 8
windows, and stores S by rows, which every census then reads as is.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from . import linalg
from .errors import BudgetExceededError, PreconditionError, SingularInputError
from .isocrystal import SlopeDivisibilityReport, is_completely_slope_divisible
from .slopes import MonomialIsocrystal, RationalIsocrystal, restriction_of_scalars

Matrix = Tuple[Tuple[int, ...], ...]


class LatticeModel(NamedTuple):
    """One lattice between p^N Lambda and p^-N Lambda in rescaled coordinates."""

    n: int
    p: int
    depth: int
    basis: Matrix

    def det_valuation(self) -> int:
        """v_p(det) of the unscaled lattice basis (similitude of the point)."""
        scaled = 1
        for i in range(self.n):
            scaled *= self.basis[i][i]
        return linalg.valuation(scaled, self.p) - self.n * self.depth


_ENUM_BUDGET = 2_000_000


def _hermite_walk(n: int, p: int, depth: int,
                  budget: int) -> List[Tuple[Matrix, Matrix]]:
    """Every lattice of the window as (basis rows, scaled-inverse rows),
    sorted by basis.

    Generates canonical Hermite forms B column by column.  Column j is kept
    only when q e_j (q = p^{2 depth}) lies in the integer span of columns
    0..j; the back-substitution that decides it returns column j of
    S = q B^-1, so each lattice leaves the walk with the rows of S.
    More than ``budget`` nodes raise BudgetExceededError with the lattices
    found so far.
    """
    linalg.require_prime(p)
    if n < 1 or depth < 1:
        raise PreconditionError("n and depth must be at least 1")
    q = p ** (2 * depth)
    divisors = [p ** a for a in range(2 * depth + 1)]
    # q e_j, cut to the rows 0..j that column j reaches
    targets = [(0,) * j + (q,) for j in range(n)]
    pads = [(0,) * (n - 1 - j) for j in range(n)]
    nodes = 0
    found: List[Tuple[Matrix, Matrix]] = []
    columns: List[List[int]] = []
    inverse: List[Tuple[int, ...]] = []

    def recurse(j: int):
        nonlocal nodes
        if j == n:
            found.append((tuple(zip(*columns)), tuple(zip(*inverse))))
            return
        offdiag_ranges = [range(columns[i][i]) for i in range(j)]
        for d in divisors:
            for off in itertools.product(*offdiag_ranges):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(
                        f"lattice enumeration exceeded {budget} nodes",
                        partial=tuple(LatticeModel(n, p, depth, basis)
                                      for basis, _ in found))
                columns.append(list(off) + [d] + [0] * (n - 1 - j))
                x = linalg.solve_triangular(columns, targets[j])
                if x is not None:
                    inverse.append(x + pads[j])
                    recurse(j + 1)
                    inverse.pop()
                columns.pop()

    recurse(0)
    found.sort()  # the bases are distinct, so this orders by basis
    return found


@functools.lru_cache(maxsize=8)
def _window(n: int, p: int, depth: int,
            budget: int) -> Tuple[Tuple[Matrix, Matrix], ...]:
    """The walk's lattices as an immutable tuple, walked once per key.

    Callers pass ``_ENUM_BUDGET`` as the budget, so a call under a smaller
    budget misses the cache and walks again; a walk that raises caches
    nothing.  The GL2 criterion-5 grid at p in {2, 3} and depths 1 and 2,
    with GL3 at depth 1, reads six windows, inside the 8 kept.
    """
    return tuple(_hermite_walk(n, p, depth, budget))


def enumerate_lattices(n: int, p: int, depth: int) -> Tuple[LatticeModel, ...]:
    """All lattices L with p^depth Lambda <= L <= p^-depth Lambda.

    One output per lattice, sorted, from the Hermite walk, which prunes by
    the containment p^{2 depth} Lambda <= L as soon as a column is fixed;
    the walk is shared with ``adlv_points`` and made once per process.
    p must be a prime and n, depth at least 1; the only limit on the size
    of the census is the node budget, whose overrun raises
    BudgetExceededError with the lattices found so far.
    """
    return tuple(LatticeModel(n, p, depth, basis)
                 for basis, _ in _window(n, p, depth, _ENUM_BUDGET))


def _invariant_exponents(transition, p: int, shift: int) -> Tuple[int, ...]:
    """inv of the transition map transition / p^shift (integer entries): its
    p-adic elementary-divisor exponents less shift, in decreasing order.
    Raises SingularInputError when the transition is singular."""
    exps = linalg.local_exponents(transition, p)
    if len(exps) < len(transition):
        raise SingularInputError("matrix is singular")
    return tuple([e - shift for e in reversed(exps)])


# ---------------------------------------------------------------------------
# affine Deligne-Lusztig points at hyperspecial level

class ADLVPoint(NamedTuple):
    lattice: LatticeModel
    inv: Tuple[int, ...]
    kappa: int
    slope_divisible: SlopeDivisibilityReport


class ADLVCensus(NamedTuple):
    points: Tuple[ADLVPoint, ...]
    mu: Tuple[int, ...]
    p: int
    depth: int
    lattice_count: int

    @property
    def nonempty(self) -> bool:
        return bool(self.points)


def _is_minuscule(mu: Sequence[int]) -> bool:
    return max(mu) - min(mu) <= 1


def adlv_points(b: MonomialIsocrystal, mu, p: int, depth: int) -> ADLVCensus:
    """Depth-bounded census of X(b; mu) at hyperspecial level for GL_n.

    Lattices L at the given depth with inv(L, b sigma(L)) = mu, each with
    its determinant-valuation (Kottwitz) invariant and a complete-slope-
    divisibility certificate for the module (L, b sigma).  Twisted data
    (frobenius_power r > 1) are expanded by restriction of scalars, with mu
    repeated blockwise.  The window comes from the Hermite walk, made
    once per process for each (n, p, depth), with every lattice's scaled
    inverse S stored by rows; since b is monomial, b B is a row gather of
    B, and the check reads the transition S (b B) from those rows.  A lattice's
    model and Fraction certificate are built only when it is a point.  A
    census certifies each distinct transition once: every point still makes
    its own ``is_completely_slope_divisible`` call, with a memo dict that is
    made fresh for each census, so a repeated transition gets the report
    already decided and no certificate outlives the call.
    p must be a prime; the only limit on the census is the node budget of
    the walk, whose overrun raises BudgetExceededError before any lattice
    is checked.  Nonemptiness here is a one-sided certificate: emptiness at
    this depth proves nothing about larger depths.
    """
    mu = tuple(int(v) for v in mu)
    if sorted(mu, reverse=True) != list(mu):
        raise PreconditionError("mu must be dominant (weakly decreasing)")
    if not _is_minuscule(mu):
        raise PreconditionError("only minuscule mu is enumerated")
    r = b.frobenius_power
    expanded = restriction_of_scalars(b)
    n = expanded.size
    if len(mu) != b.size:
        raise PreconditionError("mu has the wrong length for the datum")
    mu_eff = tuple(sorted(mu * r, reverse=True))
    window = _window(n, p, depth, _ENUM_BUDGET)
    # b carries row j of a basis to row perm[j], scaled by p^e_j; p^c b is
    # integral, and the transition B^-1 b B is S (p^c b B) / p^shift with
    # S = p^{2 depth} B^-1 upper triangular, stored by rows in the window;
    # gather[m] names the basis row that lands in row m, with its scale
    perm = expanded.permutation
    c = max(0, -min(expanded.exponents))
    gather = sorted((perm[j], j, p ** (c + e))
                    for j, e in enumerate(expanded.exponents))
    shift = 2 * depth + c
    den = p ** shift
    mul = operator.mul
    points = []
    certificates = {}
    for basis, srows in window:
        columns = tuple(zip(*[[s * x for x in basis[j]] for _, j, s in gather]))
        transition = [[sum(map(mul, srow, col)) for col in columns]
                      for srow in srows]
        inv = _invariant_exponents(transition, p, shift)
        if inv != mu_eff:
            continue
        model = LatticeModel(n, p, depth, basis)
        certificate = RationalIsocrystal(
            tuple(tuple(Fraction(x, den) for x in row) for row in transition), p)
        sd = is_completely_slope_divisible(certificate, memo=certificates)
        points.append(ADLVPoint(model, inv, model.det_valuation(), sd))
    return ADLVCensus(tuple(points), mu_eff, p, depth, len(window))

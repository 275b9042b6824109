"""Desk-scale lattice models of affine Deligne-Lusztig sets.

A lattice L with p^N Lambda <= L <= p^-N Lambda is stored through its
rescaling L' = p^N L, a sublattice of Lambda containing p^{2N} Lambda,
presented by the canonical column Hermite form of a basis.  Membership in
the Deligne-Lusztig set at hyperspecial level is the exact condition
inv(L, b sigma(L)) = mu for minuscule mu.

The check is integer-only: p^{2N} times the inverse of the Hermite basis
is integral, so every transition map is an integer matrix divided by a
known power of p, and inv is read off its p-adic elementary-divisor
exponents (``linalg.elementary_divisor_exponents``); no Smith form and no
rational inverse is computed per lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import linalg
from .errors import BudgetExceededError, PreconditionError
from .isocrystal import (MonomialIsocrystal, RationalIsocrystal,
                         SlopeDivisibilityReport, is_completely_slope_divisible,
                         restriction_of_scalars)

Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class LatticeModel:
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


def enumerate_lattices(n: int, p: int, depth: int,
                       max_nodes: int = _ENUM_BUDGET,
                       _allow_big: bool = False) -> Tuple[LatticeModel, ...]:
    """All lattices L with p^depth Lambda <= L <= p^-depth Lambda.

    Generates canonical Hermite forms column by column, pruning by the
    containment p^{2 depth} Lambda <= L as soon as a column is fixed; one
    output per lattice, sorted.  Budget guards: p in {2, 3}, n <= 3 (4 via
    the internal restriction-of-scalars path), depth <= 2.
    """
    if p not in (2, 3):
        raise PreconditionError("only p in {2, 3} is within the budget")
    if depth < 1 or depth > 2:
        raise PreconditionError("depth must be 1 or 2")
    cap = 4 if _allow_big else 3
    if not 1 <= n <= cap:
        raise PreconditionError(f"n must be between 1 and {cap}")
    q = p ** (2 * depth)
    divisors = [p ** a for a in range(2 * depth + 1)]
    nodes = 0
    results: List[LatticeModel] = []
    columns: List[List[int]] = []

    def contains_q_ej(j: int) -> bool:
        # triangular solve of q e_j against columns 0..j
        x = [0] * (j + 1)
        if q % columns[j][j] != 0:
            return False
        x[j] = q // columns[j][j]
        for i in range(j - 1, -1, -1):
            acc = sum(columns[k][i] * x[k] for k in range(i + 1, j + 1))
            if acc % columns[i][i] != 0:
                return False
            x[i] = -acc // columns[i][i]
        return True

    def recurse(j: int):
        nonlocal nodes
        if j == n:
            rows = [[columns[c][r] for c in range(n)] for r in range(n)]
            results.append(LatticeModel(n, p, depth, linalg.freeze(rows)))
            return
        for d in divisors:
            offdiag_ranges = [range(columns[i][i]) for i in range(j)]
            for off in itertools.product(*offdiag_ranges):
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetExceededError(
                        f"lattice enumeration exceeded {max_nodes} nodes",
                        partial=tuple(results))
                col = [0] * n
                for i, v in enumerate(off):
                    col[i] = v
                col[j] = d
                columns.append(col)
                if contains_q_ej(j):
                    recurse(j + 1)
                columns.pop()

    recurse(0)
    return tuple(sorted(results, key=lambda m: m.basis))


def lattice_from_columns(columns: Sequence[Sequence[int]], n: int, p: int,
                         depth: int) -> LatticeModel:
    """Canonical model of the lattice spanned by the columns plus p^{2N} Lambda."""
    q = p ** (2 * depth)
    cols = [tuple(int(c[i]) for i in range(n)) for c in columns]
    cols += [tuple(q * (1 if i == j else 0) for i in range(n)) for j in range(n)]
    rows = [[col[i] for col in cols] for i in range(n)]
    return LatticeModel(n, p, depth, linalg.hnf_columns(rows))


def _scaled_inverse(model: LatticeModel) -> List[List[int]]:
    """p^{2N} B^-1 for the Hermite basis B of a model, by back-substitution.

    Integral because the rescaled lattice contains p^{2N} Lambda; a basis
    that is not upper triangular or misses that containment is refused.
    """
    b, n = model.basis, model.n
    q = model.p ** (2 * model.depth)
    if any(b[i][j] for i in range(n) for j in range(i)) or \
            any(b[i][i] <= 0 for i in range(n)):
        raise PreconditionError("lattice basis is not in Hermite form")
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, -1, -1):
            acc = (q if i == j else 0) - sum(b[i][k] * inv[k][j]
                                             for k in range(i + 1, j + 1))
            quot, rem = divmod(acc, b[i][i])
            if rem:
                raise PreconditionError(
                    "lattice model does not contain p^{2N} Lambda")
            inv[i][j] = quot
    return inv


def relative_position(l1: LatticeModel, l2: LatticeModel) -> Tuple[int, ...]:
    """Elementary-divisor exponents (decreasing) of the transition map.

    inv(L1, L2) in the sense of the Cartan decomposition: the exponent
    vector of p in the invariant factors of a change-of-lattice matrix.
    """
    if (l1.n, l1.p, l1.depth) != (l2.n, l2.p, l2.depth):
        raise PreconditionError("lattice models are not comparable")
    transition = linalg.mat_mul(_scaled_inverse(l1), l2.basis)
    return _invariant_exponents(transition, l1.p, 2 * l1.depth)


def _invariant_exponents(transition, p: int, shift: int) -> Tuple[int, ...]:
    """inv of the transition map transition / p^shift (integer entries)."""
    return tuple(e - shift
                 for e in linalg.elementary_divisor_exponents(transition, p))


# ---------------------------------------------------------------------------
# affine Deligne-Lusztig points at hyperspecial level

@dataclass(frozen=True)
class ADLVPoint:
    lattice: LatticeModel
    inv: Tuple[int, ...]
    kappa: int
    slope_divisible: SlopeDivisibilityReport


@dataclass(frozen=True)
class ADLVCensus:
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


def adlv_points(b: MonomialIsocrystal, mu, p: int, depth: int,
                max_nodes: int = _ENUM_BUDGET) -> ADLVCensus:
    """Depth-bounded census of X(b; mu) at hyperspecial level for GL_n.

    Lattices L at the given depth with inv(L, b sigma(L)) = mu, each with
    its determinant-valuation (Kottwitz) invariant and a complete-slope-
    divisibility certificate for the module (L, b sigma).  Twisted data
    (frobenius_power r = 2) are expanded by restriction of scalars, with mu
    repeated blockwise.  Nonemptiness here is a one-sided certificate:
    emptiness at this depth proves nothing about larger depths.
    """
    mu = tuple(int(v) for v in mu)
    if sorted(mu, reverse=True) != list(mu):
        raise PreconditionError("mu must be dominant (weakly decreasing)")
    if not _is_minuscule(mu):
        raise PreconditionError("only minuscule mu is enumerated")
    r = b.frobenius_power
    if r > 2:
        raise BudgetExceededError("restriction of scalars is limited to r <= 2",
                                  partial=None)
    expanded = restriction_of_scalars(b)
    n = expanded.size
    if len(mu) != b.size:
        raise PreconditionError("mu has the wrong length for the datum")
    mu_eff = tuple(sorted(mu * r, reverse=True))
    if n > 3 and depth > 1:
        raise BudgetExceededError(
            "expanded datum needs depth 1 within the budget", partial=None)
    lattices = enumerate_lattices(n, p, depth, max_nodes=max_nodes,
                                  _allow_big=n == 4)
    # b carries row j of a basis to row perm[j], scaled by p^e_j; p^c b is
    # integral, and the transition B^-1 b B is X / p^shift with X integral
    perm = expanded.permutation
    c = max(0, -min(expanded.exponents))
    scales = [p ** (c + e) for e in expanded.exponents]
    shift = 2 * depth + c
    den = p ** shift
    points = []
    for model in lattices:
        image = [None] * n
        for j, row in enumerate(model.basis):
            image[perm[j]] = [scales[j] * x for x in row]
        transition = linalg.mat_mul(_scaled_inverse(model), image)
        inv = _invariant_exponents(transition, p, shift)
        if inv != mu_eff:
            continue
        certificate = RationalIsocrystal(
            tuple(tuple(Fraction(x, den) for x in row) for row in transition), p)
        sd = is_completely_slope_divisible(certificate)
        points.append(ADLVPoint(model, inv, model.det_valuation(), sd))
    return ADLVCensus(tuple(points), mu_eff, p, depth, len(lattices))

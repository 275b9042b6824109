"""Headline calculators: central-leaf dimension, centraliser dimension,
basic-ness, neutral acceptability, and the closed-formula/slope-oracle
cross check.

The leaf dimension is <2 rho, nu_dominant>.  Every report and cross check
recomputes it as the sum of the positive slopes of the adjoint isocrystal,
read off the cycles of the monomial lift of x sigma on the root lines
(``affine.adjoint_lift``), which reads neither the Newton point nor 2 rho;
a report refuses to emit on disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple

from . import linalg
from .affine import (AffineElement, KottwitzClass, adjoint_lift, kottwitz,
                     newton_point)
from .errors import ConsistencyError, DatumMismatchError, PreconditionError
from .rootdata import (RootDatum, dominance_leq, dominant_rep, is_dominant,
                       require_rank)
from .slopes import adjoint_rep, slopes_monomial, slopes_via_weights


class LeafReport(NamedTuple):
    element: AffineElement
    nu_dominant: Tuple[Fraction, ...]
    kappa: KottwitzClass
    basic: bool
    leaf_dim: int
    jb_dim: int
    adjoint_slopes: Tuple[Fraction, ...]


def _require_datum(datum: RootDatum, x: AffineElement):
    if x.datum is not datum:
        raise DatumMismatchError("element lives over a different root datum")


def _leaf_dimension(datum: RootDatum, x: AffineElement, sigma):
    """(nu_dominant, <2 rho, nu>, oracle), the oracle being the sum of the
    positive slopes of ``adjoint_lift(x, sigma)``."""
    _require_datum(datum, x)
    nu_dom = newton_point(x, sigma).dominant
    closed = Fraction(datum.pair(datum.two_rho, nu_dom))
    if closed.denominator != 1:
        raise ConsistencyError("<2rho, nu> is not an integer")
    oracle = sum(s for s in slopes_monomial(adjoint_lift(x, sigma)) if s > 0)
    return nu_dom, int(closed), oracle


def leaf_report(datum: RootDatum, x: AffineElement,
                sigma=None) -> LeafReport:
    """Full invariant report for one element.

    leaf_dim is the central-leaf dimension <2 rho, nu>; jb_dim the dimension
    of the twisted centraliser group (the Levi centralising nu); kappa lies
    in pi_1(G)_sigma.  A closed formula that disagrees with the slope
    oracle raises ConsistencyError: no report is returned unchecked.
    """
    nu_dom, closed, oracle = _leaf_dimension(datum, x, sigma)
    if closed != oracle:
        raise ConsistencyError(
            f"leaf dimension mismatch: closed formula {closed} vs "
            f"slope oracle {oracle}")
    zero_pairings = sum(1 for alpha in datum.roots
                        if datum.pair(alpha, nu_dom) == 0)
    jb_dim = datum.cochar_rank + zero_pairings
    basic = zero_pairings == len(datum.roots)
    adjoint = slopes_via_weights(adjoint_rep(datum), nu_dom)
    return LeafReport(x, nu_dom, kottwitz(x, sigma), basic, closed, jb_dim,
                      adjoint)


def mu_average(datum: RootDatum, mu, sigma=None) -> Tuple[Fraction, ...]:
    """Average of mu over the sigma-orbit; mu itself for trivial sigma."""
    mu = tuple(Fraction(v) for v in mu)
    require_rank(datum, mu)
    if sigma is None:
        return mu
    return newton_point(AffineElement(datum, mu, datum.weyl_identity), sigma).vector


def neutral_acceptable(datum: RootDatum, x: AffineElement, mu,
                       sigma=None) -> bool:
    """Local-Shimura-datum condition: equal Kottwitz invariants in
    pi_1(G)_sigma and the dominant Newton point below the sigma-averaged mu
    in dominance order.

    For GL(n) and minuscule mu this is the group-theoretic form of Mazur's
    inequality.
    """
    _require_datum(datum, x)
    mu = linalg.integral_vector(mu, datum.cochar_rank)
    if not is_dominant(datum, mu):
        raise PreconditionError("mu must be dominant")
    pi1 = datum.sigma_table(sigma).pi1
    if pi1.project(x.translation) != pi1.project(mu):
        return False
    nu_dom = newton_point(x, sigma).dominant
    avg = dominant_rep(datum, mu_average(datum, mu, sigma))
    return dominance_leq(datum, nu_dom, avg)


class CrossCheckRow(NamedTuple):
    element: AffineElement
    closed: int
    oracle: Fraction
    ok: bool


class CrossCheckReport(NamedTuple):
    rows: Tuple[CrossCheckRow, ...]
    all_pass: bool


def cross_check_dimension(datum: RootDatum,
                          sample: Iterable[AffineElement],
                          sigma=None) -> CrossCheckReport:
    """Check <2 rho, nu> elementwise against the positive adjoint slopes
    of the monomial lift of x sigma."""
    rows = []
    for x in sample:
        _, closed, oracle = _leaf_dimension(datum, x, sigma)
        rows.append(CrossCheckRow(x, closed, oracle, closed == oracle))
    return CrossCheckReport(tuple(rows), all(row.ok for row in rows))

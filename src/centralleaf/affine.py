"""Extended affine Weyl group: group law, length, sigma-conjugacy, Newton
and Kottwitz maps, monomial lifts, admissible sets.

Elements are pairs (translation, w) with w an index into the coded Weyl
group that ``rootdata`` owns (``datum.weyl_elements``); the integer matrix
of the finite part on the cocharacter lattice is only a view,
``x.finite``.  The composition law is (l1, w1)(l2, w2) = (l1 + w1 l2, w1 w2).
All computations are exact.  ``element`` builds an element from a matrix;
it and ``RootDatum`` are the only places that turn a matrix into an index.

No matrix is multiplied or applied here.  ``compose``, ``invert``,
``newton_point``, ``admissible_set`` and the sigma-class sweep read w lambda
from the index's ``WeylAction`` (the sparse rows in ``datum.weyl_actions``,
built on first use), and sigma lambda and the Weyl index of sigma^k from
the ``SigmaRows`` of sigma's table.  Products and inverses of indices,
inversion sets, the sigma action and pi_1(G)_sigma are ``rootdata``'s other
tables; this module only reads them.  One helper,
``_lift``, builds every monomial lift from a permutation of its lines:
``rep_lift`` reads w's permutation of the weights, and ``adjoint_lift``
composes w's permutation of the roots with sigma's, both read from those
tables.

The sweep codes each (translation, index) pair as one int,
enc(lambda) |W| + w with enc(v) = sum_i v_i B^i, for a radix B derived from
the window (the bound is proved at the sweep).  enc is linear, so a Weyl
index acts on codes through the codes of its columns, and each element x
conjugator step is one int add and one dict lookup.  The conjugators come
from ``_window``, and ``_distinct_conjugators`` passes on one per key
(w, <alpha_i, lambda> over the simple roots, sigma lambda - lambda) and
inverse pair; an element is built only for a conjugator swept.  Neither
skip changes the unions:

* a key: conjugators with one key differ by a t^c with <alpha_i, c> = 0
  and sigma c = c, which is central and sigma-fixed, so they conjugate
  every x alike.  A translation whose (pairings, sigma lambda - lambda) was
  seen is skipped whole: equal simple-root pairings give equal positive-root
  pairings, hence the same admitted Weyl indices and keys already handled;
* an inverse: g^-1 y sigma(g^-1)^-1 = x exactly when y = g x sigma(g)^-1,
  so g^-1 makes g's unions, and once g is swept the key of g^-1 is too.

``enumerate_elements`` admits the Weyl indices by sign pattern.  Each
length term |v - e|, with v = <alpha, lambda> and e in {0, 1} the flip of
alpha, is |v| - e when v >= 1 and |v| + e when v <= 0, so
l(t^lambda w) = S(lambda) + sum_{alpha > 0} e_alpha(w) s_alpha with
S(lambda) = sum_{alpha > 0} |<alpha, lambda>| and s_alpha = -1 where
<alpha, lambda> >= 1, else +1.  Which w pass the cap therefore depends only
on the pattern (<alpha, lambda> >= 1)_alpha and the budget cap - S(lambda):
they are found once per such key in a call.  A translation with
S(lambda) - |Phi+| above the cap is skipped outright, as every term is at
least |<alpha, lambda>| - 1.  The pairings are built coordinate by
coordinate, lambda_i times column i of the positive roots added to the
prefix's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import linalg
from .errors import (BudgetExceededError, ConsistencyError, DatumMismatchError,
                     PreconditionError, UnsupportedOperationError)
from .rootdata import RootDatum, dominant_rep, dominant_walk, is_dominant

Vector = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]


class AffineElement(NamedTuple):
    """t^translation * w; build one from a matrix with ``element``."""
    datum: RootDatum
    translation: Vector
    w: int

    @property
    def finite(self) -> Matrix:
        return self.datum.weyl_elements[self.w]

    def __repr__(self):
        return f"AffineElement(lambda={self.translation}, w={self.finite})"


def identity_element(datum: RootDatum) -> AffineElement:
    return AffineElement(datum, (0,) * datum.cochar_rank, datum.weyl_identity)


def translation_element(datum: RootDatum, lam) -> AffineElement:
    lam = tuple(int(x) for x in lam)
    if len(lam) != datum.cochar_rank:
        raise PreconditionError("translation vector of wrong length")
    return AffineElement(datum, lam, datum.weyl_identity)


def simple_element(datum: RootDatum, i: int) -> AffineElement:
    """The i-th finite simple reflection (1-based) as a group element."""
    if not 1 <= i <= datum.rank:
        raise PreconditionError(f"simple reflection index {i} out of range")
    zero = (0,) * datum.cochar_rank
    return AffineElement(datum, zero, datum.weyl_right[datum.weyl_identity][i - 1])


def element(datum: RootDatum, lam, finite=None) -> AffineElement:
    """t^lam * finite for a Weyl group matrix (the identity when None); a
    matrix outside the Weyl group raises PreconditionError."""
    w = datum.weyl_identity if finite is None else datum.weyl_code(linalg.freeze(finite))
    return AffineElement(datum, tuple(int(x) for x in lam), w)


def _same_datum(*xs: AffineElement):
    datum = xs[0].datum
    for x in xs[1:]:
        if x.datum is not datum:
            raise DatumMismatchError("elements live over different root data")
    return datum


def compose(x: AffineElement, y: AffineElement) -> AffineElement:
    datum = _same_datum(x, y)
    moved = datum.weyl_actions[x.w].apply(y.translation)
    return AffineElement(datum, tuple(map(add, x.translation, moved)),
                         datum.weyl_mul(x.w, y.w))


def invert(x: AffineElement) -> AffineElement:
    datum = x.datum
    w_inv = datum.weyl_inverse[x.w]
    lam = tuple(-v for v in datum.weyl_actions[w_inv].apply(x.translation))
    return AffineElement(datum, lam, w_inv)


def sigma_apply(x: AffineElement, sigma: Optional[Matrix]) -> AffineElement:
    """Apply the lattice automorphism sigma: (l, w) -> (s l, s w s^-1)."""
    table = x.datum.sigma_table(sigma)
    return AffineElement(x.datum, table.rows.apply(x.translation), table.weyl_action[x.w])


def sigma_conjugate(g: AffineElement, x: AffineElement,
                    sigma: Optional[Matrix] = None) -> AffineElement:
    """g * x * sigma(g)^-1."""
    _same_datum(g, x)
    return compose(compose(g, x), invert(sigma_apply(g, sigma)))


# ---------------------------------------------------------------------------
# length and reduced words

def length(x: AffineElement) -> int:
    """Iwahori-Matsumoto length on the extended affine Weyl group:
    the sum over alpha > 0 of |<alpha, lambda>|, less one where w^-1 alpha < 0."""
    datum = x.datum
    flips = datum.weyl_flips[x.w]
    return sum(map(abs, map(sub, datum.positive_pairings(x.translation), flips)))


def affine_generators(datum: RootDatum) -> Tuple[AffineElement, ...]:
    """Simple affine generators: finite simples, then one affine reflection
    t^{theta_check} s_theta per irreducible component."""
    simples = [simple_element(datum, i + 1) for i in range(datum.rank)]
    return tuple(simples + [AffineElement(datum, theta_check, w)
                            for theta_check, w in datum.affine_reflections])


def omega_and_word(x: AffineElement) -> Tuple[AffineElement, Tuple[int, ...]]:
    """Canonical factorisation x = tau * (product of simple affine gens).

    tau is the length-zero part of x; the word is one fixed reduced word
    built by greedy right descent, lowest generator index first.
    """
    gens = affine_generators(x.datum)
    current = x
    letters: List[int] = []
    cur_len = length(current)
    while cur_len > 0:
        for idx, g in enumerate(gens):
            candidate = compose(current, g)
            cand_len = length(candidate)
            if cand_len < cur_len:
                letters.append(idx)
                current, cur_len = candidate, cand_len
                break
        else:
            raise ConsistencyError("positive-length element with no descent")
    return current, tuple(reversed(letters))


# ---------------------------------------------------------------------------
# Newton point, Kottwitz map

class NewtonPoint(NamedTuple):
    vector: Tuple[Fraction, ...]
    dominant: Tuple[Fraction, ...]
    period: int


class KottwitzClass(NamedTuple):
    free: Tuple[int, ...]
    torsion: Tuple[int, ...]
    moduli: Tuple[int, ...]

    def __add__(self, other: "KottwitzClass") -> "KottwitzClass":
        if self.moduli != other.moduli:
            raise DatumMismatchError("Kottwitz classes from different groups")
        free = tuple(a + b for a, b in zip(self.free, other.free))
        tors = tuple((a + b) % d for a, b, d in
                     zip(self.torsion, other.torsion, self.moduli))
        return KottwitzClass(free, tors, self.moduli)


_SIGMA_ORDER_CAP = 10_000


def newton_point(x: AffineElement, sigma: Optional[Matrix] = None) -> NewtonPoint:
    """Newton cocharacter of x: the average of the (w sigma)-orbit of the
    translation part over the minimal period r with (w sigma)^r = 1."""
    total, r = _newton_walk(x, sigma)
    # the Weyl walk commutes with scaling by r > 0, so it runs on r nu
    return NewtonPoint(tuple(Fraction(t, r) for t in total),
                       tuple(Fraction(t, r) for t in dominant_walk(x.datum, total)), r)


def _newton_walk(x: AffineElement, sigma: Optional[Matrix]) -> Tuple[Vector, int]:
    """(r nu, r) in integers: the sum of the (w sigma)-orbit of the
    translation over the minimal period r, and r."""
    datum = x.datum
    table = datum.sigma_table(sigma)
    action, power, inverse = table.weyl_action, table.rows.power, datum.weyl_inverse
    w_apply = datum.weyl_actions[x.w].apply
    s_apply = None if sigma is None else table.rows.apply
    # (w sigma)^r = a sigma^r with a = w sigma(w) ... sigma^(r-1)(w) in W:
    # it is 1 when sigma^r lies in W as a^-1
    a = conj = x.w
    total = moved = x.translation
    r = 1
    while power(r) != inverse[a]:
        moved = w_apply(moved if s_apply is None else s_apply(moved))
        total = tuple(map(add, total, moved))
        conj = action[conj]
        a = datum.weyl_mul(a, conj)
        r += 1
        if r > _SIGMA_ORDER_CAP:
            raise PreconditionError("w*sigma does not have finite order on X_*")
    return total, r


def _newton_key(x: AffineElement, sigma: Optional[Matrix]) -> Tuple[Vector, int]:
    """The dominant Newton point of x in lowest terms: (dominant(r nu) / g,
    r / g) for g the gcd of r and those coordinates.  Equal keys exactly
    when ``newton_point(x, sigma).dominant`` is equal."""
    total, r = _newton_walk(x, sigma)
    dominant = dominant_walk(x.datum, total)
    g = math.gcd(r, *dominant)
    return tuple([v // g for v in dominant]), r // g


def kottwitz(x: AffineElement, sigma: Optional[Matrix] = None) -> KottwitzClass:
    """Image of the translation part in pi_1(G)_sigma, the sigma-coinvariants
    of pi_1(G); pi_1(G) itself for sigma None or the identity."""
    pi1 = x.datum.sigma_table(sigma).pi1
    free, tors = pi1.project(x.translation)
    return KottwitzClass(free, tors, pi1.torsion)


# ---------------------------------------------------------------------------
# monomial lifts: the attached representation, the adjoint isocrystal

def _lift(datum: RootDatum, lines, perm, lam) -> MonomialIsocrystal:
    """The monomial matrix on ``lines`` whose column j carries the line of
    chi_j to that of chi_perm[j] and scales it by p^<chi_perm[j], lam>."""
    from .slopes import MonomialIsocrystal
    if lines is None:
        raise UnsupportedOperationError("no faithful representation attached")
    if perm is None:
        raise UnsupportedOperationError(
            "automorphism does not permute the representation weights")
    return MonomialIsocrystal(len(perm), perm,
                              tuple(int(datum.pair(lines[k], lam)) for k in perm))


def rep_lift(x: AffineElement) -> MonomialIsocrystal:
    """Monomial lift of w * t^lambda = t^{w lambda} * w, which t^lambda
    conjugates to x = t^lambda * w, in the attached faithful representation:
    column j carries p^<omega_j, lambda> to the line of w omega_j."""
    datum = x.datum
    action = datum.weyl_actions[x.w]
    return _lift(datum, datum.rep_weights, action.weights, action.apply(x.translation))


def adjoint_lift(x: AffineElement, sigma: Optional[Matrix] = None) -> MonomialIsocrystal:
    """The adjoint isocrystal of x sigma on the root lines: the monomial
    matrix of t^lambda * w sigma, whose slopes are <alpha, nu>, one per root.
    Root a goes to w (sigma alpha_a): w's root permutation after sigma's."""
    datum = x.datum
    first, then = datum.sigma_table(sigma).roots, datum.weyl_actions[x.w].roots
    return _lift(datum, datum.roots,
                 None if first is None else tuple(map(then.__getitem__, first)), x.translation)


# ---------------------------------------------------------------------------
# admissible sets

def _subword_products(datum: RootDatum, tau: AffineElement,
                      word: Tuple[int, ...]) -> set:
    gens = affine_generators(datum)
    products = {identity_element(datum)}
    for letter in word:
        products |= {compose(prod, gens[letter]) for prod in products}
    return {compose(tau, prod) for prod in products}


def admissible_set(datum: RootDatum, mu, level: str = "iwahori"):
    """Admissible set of mu: the Bruhat lower set of the translations t^{w mu}.

    Iwahori level returns the set of group elements; hyperspecial level
    returns the dominant translation representatives of the double cosets.
    """
    mu = tuple(int(v) for v in mu)
    if not is_dominant(datum, mu):
        raise PreconditionError("mu must be dominant")
    if level not in ("iwahori", "hyperspecial"):
        raise PreconditionError(f"unknown level {level!r}")
    elements: set = set()
    taus = set()
    for lam in {action.apply(mu) for action in datum.weyl_actions}:
        tau, word = omega_and_word(translation_element(datum, lam))
        taus.add(tau)
        elements |= _subword_products(datum, tau, word)
    if len(taus) != 1:
        raise ConsistencyError("translations of one orbit have distinct cosets")
    if level == "iwahori":
        return frozenset(elements)
    reps = {tuple(dominant_rep(datum, x.translation)) for x in elements}
    return tuple(sorted(tuple(int(v) for v in rep) for rep in reps))


# ---------------------------------------------------------------------------
# enumeration and sigma-conjugacy classes

# (translation, Weyl element) pairs in one enumeration window, counted
# before the length prune: (2b + 1)^rank * |W| for the bound b
_ELEMENT_BUDGET = 20_000_000
# elements x conjugators in one sigma-class census
_CLASS_BUDGET = 5_000_000


def _window(datum: RootDatum, max_length: int,
            coord_bound) -> List[Tuple[Vector, Tuple[int, ...]]]:
    """The translations of the window that carry an element of length <=
    max_length, in ``itertools.product`` order, each with its admitted Weyl
    indices in ascending order; checks and budget as ``enumerate_elements``.

    The admitted indices are found once per sign pattern and length budget
    of a translation's pairings (see the module docstring)."""
    if max_length < 0:
        raise PreconditionError(f"length cap must be nonnegative, got {max_length}")
    if isinstance(coord_bound, int):
        if coord_bound < 0:
            raise PreconditionError(
                f"coordinate bound must be nonnegative, got {coord_bound}")
        lo, hi = -coord_bound, coord_bound
    else:
        lo, hi = coord_bound
    window = max(hi - lo + 1, 0) ** datum.cochar_rank * len(datum.weyl_elements)
    if window > _ELEMENT_BUDGET:
        raise BudgetExceededError(
            f"the window holds {window} (translation, Weyl element) pairs, "
            f"over the budget of {_ELEMENT_BUDGET}")
    positive, flips = datum.positive_roots, datum.weyl_flips
    reach = max_length + len(positive)
    span = range(lo, hi + 1)
    # per coordinate i and value v: ((v,), v times column i of the positive
    # roots); rank 0 has the one empty translation
    steps = [[((v,), tuple([v * alpha[i] for alpha in positive])) for v in span]
             for i in range(datum.cochar_rank)] or [[((), ())]]
    # the translations in itertools.product order with their pairings: the
    # first rank - 1 coordinates are held as prefixes, the last is streamed
    prefixes = [((), (0,) * len(positive))]
    for column in steps[:-1]:
        prefixes = [(lam + coord, tuple(map(add, pairs, step)))
                    for lam, pairs in prefixes for coord, step in column]
    out: List[Tuple[Vector, Tuple[int, ...]]] = []
    admitted: Dict[Tuple[Tuple[bool, ...], int], Tuple[int, ...]] = {}
    for prefix, base in prefixes:
        for coord, step in steps[-1]:
            pairs = tuple(map(add, base, step))
            total = sum(map(abs, pairs))
            if total > reach:
                continue
            key = (tuple(map((0).__lt__, pairs)), max_length - total)
            ws = admitted.get(key)
            if ws is None:
                ws = admitted[key] = tuple([w for w, f in enumerate(flips)
                                            if sum(map(abs, map(sub, pairs, f))) <= max_length])
            if ws:
                out.append((prefix + coord, ws))
    return out


def enumerate_elements(datum: RootDatum, max_length: int,
                       coord_bound) -> List[AffineElement]:
    """All elements of length <= max_length whose translation coordinates
    lie in the window; coord_bound is an int b for [-b, b] or a (lo, hi) pair.

    A negative cap or int bound raises PreconditionError, and a window of
    more than ``_ELEMENT_BUDGET`` (translation, Weyl element) pairs raises
    BudgetExceededError before any element is made."""
    return [AffineElement(datum, lam, w)
            for lam, ws in _window(datum, max_length, coord_bound) for w in ws]


def sort_key(x: AffineElement):
    """The order of listed elements: length, translation, finite part.
    ``weyl_elements`` is sorted, so index order is matrix order."""
    return (length(x), x.translation, x.w)


def _translation_key(datum: RootDatum, s_apply, lam: Vector) -> Tuple[Vector, Vector]:
    """(<alpha_i, lam> over the simple roots, sigma lam - lam), for s_apply
    sigma's action on translations: t^lam w and t^lam' w with one key
    conjugate every x alike (module docstring)."""
    return (tuple([sum(map(mul, alpha, lam)) for alpha in datum.simple_roots]),
            tuple(map(sub, s_apply(lam), lam)))


def _distinct_conjugators(datum: RootDatum, window, s_apply) -> Iterator[AffineElement]:
    """The conjugators of a ``_window`` list that the sigma-class sweep
    needs: one per key (w, ``_translation_key``), skipping a translation
    whose key was seen and, once g is swept, the key of g^-1 (module
    docstring).  An element is built only for a conjugator yielded."""
    seen, swept = set(), set()
    for lam, ws in window:
        key = _translation_key(datum, s_apply, lam)
        if key in seen:
            continue
        seen.add(key)
        for w in ws:
            if (w, key) not in swept:
                g = AffineElement(datum, lam, w)
                yield g
                inverse = invert(g)
                swept.add((inverse.w, _translation_key(datum, s_apply, inverse.translation)))


class SigmaClassPartition(NamedTuple):
    blocks: Tuple[Tuple[AffineElement, ...], ...]

    def block_of(self, x: AffineElement) -> Tuple[AffineElement, ...]:
        for block in self.blocks:
            if x in block:
                return block
        raise KeyError("element not in the enumerated window")


def enumerate_sigma_classes(datum: RootDatum, length_cap: int,
                            sigma: Optional[Matrix] = None,
                            conjugator_cap: Optional[int] = None,
                            coord_bound: Optional[int] = None) -> SigmaClassPartition:
    """Partition the length window into sigma-conjugacy classes.

    Conjugators run over elements of length <= conjugator_cap (default
    length_cap + 2), so the result is an upper-bound refinement: blocks can
    only merge, never split, under longer conjugators.  Each block is
    validated to carry constant dominant Newton point and Kottwitz class
    in pi_1(G)_sigma.  More than ``_CLASS_BUDGET`` (elements x conjugators)
    raises BudgetExceededError with the singleton partition; the budget
    counts the conjugators the sweep skips as repeats (module docstring).
    """
    if conjugator_cap is None:
        conjugator_cap = length_cap + 2
    if coord_bound is None:
        coord_bound = length_cap + 2
    elements = enumerate_elements(datum, length_cap, coord_bound)
    window = _window(datum, conjugator_cap, coord_bound + 1)
    conjugators = sum(len(ws) for _, ws in window)
    if len(elements) * conjugators > _CLASS_BUDGET:
        # the singleton partition is itself a valid upper-bound refinement
        singleton = SigmaClassPartition(
            tuple((x,) for x in sorted(elements, key=sort_key)))
        raise BudgetExceededError(
            f"{len(elements)} elements x {conjugators} conjugators "
            f"exceeds the budget of {_CLASS_BUDGET}",
            partial=singleton)
    table = datum.sigma_table(sigma)
    action, s_apply = table.weyl_action, table.rows.apply
    actions = datum.weyl_actions
    order = len(actions)
    # The sweep codes a (translation l, Weyl index w) pair as the int
    # enc(l) |W| + w, with enc(v) = sum_i v_i B^i.  Codes of a candidate
    # (v, w) and a window element (u, w') are equal only if the pairs are:
    # the residue mod |W| gives w = w', and then enc(v - u) = 0.  When B
    # exceeds max |v_i| + max |u_i|, each digit d_i = v_i - u_i has
    # |d_i| < B, and a lowest nonzero digit d_k would leave
    # enc(v - u) = B^k (d_k + B m) nonzero, as B does not divide d_k.
    # The window holds |u_i| <= b and the conjugators |l_g| <= b + 1.  A
    # candidate's translation is l_g + w_g l_x + w mu_h, mu_h = -w_h sigma l_g
    # (below), so |v_i| <= (b + 1) + N b + N^2 S (b + 1), where N bounds the
    # absolute row sums of the Weyl matrices and S those of sigma.
    spread = max(sum(map(abs, row)) for w in datum.weyl_elements for row in w)
    s_spread = 1 if sigma is None else int(max(sum(map(abs, row)) for row in sigma))
    b = coord_bound
    reach = (b + 1) * (1 + spread * spread * s_spread) + spread * b  # >= |v_i|
    radix = reach + b + 1
    powers = [radix ** i for i in range(datum.cochar_rank)]
    # columns[k][j] = |W| enc(w_k e_j), so |W| enc(w_k v) = sum_j v_j columns[k][j]
    columns = []
    for act in actions:
        col = [0] * datum.cochar_rank
        for i, (j, c) in enumerate(act.gather):
            col[j] += c * powers[i]
        for i, j, c in act.rest:
            col[j] += c * powers[i]
        columns.append(tuple(order * c for c in col))
    index = {order * sum(map(mul, x.translation, powers)) + x.w: i
             for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    # y = g x sigma(g)^-1 = (l_g + w_g l_x + (w_g w_x) mu_h, w_g w_x w_h)
    # with sigma(g)^-1 = (mu_h, w_h).  Per w_g: w_g w_x and the code of
    # w_g l_x for each x, and w w_h for each w; per g: the code of
    # (l_g + w mu_h, w w_h) for each w = w_g w_x.  A step is one add.
    left: Dict[int, Tuple[List[int], List[int], int, List[int]]] = {}
    for g in _distinct_conjugators(datum, window, s_apply):
        row = left.get(g.w)
        if row is None:
            cols = columns[g.w]
            wh = datum.weyl_inverse[action[g.w]]
            row = left[g.w] = ([datum.weyl_mul(g.w, x.w) for x in elements],
                               [sum(map(mul, x.translation, cols)) for x in elements],
                               wh, [datum.weyl_mul(k, wh) for k in range(order)])
        wgx, moved, wh, right = row
        minus_mu = actions[wh].apply(s_apply(g.translation))
        base = order * sum(map(mul, g.translation, powers))
        tail = [base - sum(map(mul, minus_mu, col)) + wy for col, wy in zip(columns, right)]
        for i, j in enumerate(map(index.get, map(add, moved, map(tail.__getitem__, wgx)))):
            # equal parents are one block already: most hits stop here
            if j is not None and parent[i] != parent[j]:
                union(i, j)

    # filled in sort_key order, each block is sorted and the blocks are
    # ordered by their first elements
    groups: Dict[int, List[AffineElement]] = {}
    for i in sorted(range(len(elements)), key=lambda i: sort_key(elements[i])):
        groups.setdefault(find(i), []).append(elements[i])
    blocks = tuple(map(tuple, groups.values()))
    for block in blocks:
        dominants = {_newton_key(x, sigma) for x in block}
        kappas = {table.pi1.project(x.translation) for x in block}
        if len(dominants) != 1 or len(kappas) != 1:
            raise ConsistencyError(
                "sigma-conjugacy block with non-constant invariants")
    return SigmaClassPartition(blocks)

"""Based root data for GL(n), SL(n), Sp(2g), GSp(2g) in exact coordinates.

Cocharacters are integer (or Fraction) vectors of length ``cochar_rank``;
roots are integer character vectors of the same length, written in the
basis dual to that of X_*, so <chi, v> is the dot product.  Construction
checks the axioms and derives only what dominance and <2 rho, nu> read: the
positive roots, 2*rho, the simple reflections and the pi_1 presentation.
The finite Weyl group is walked on the first read of a field that needs it,
which WEYL_CAP bounds.  A field, once set, is never replaced.

The finite Weyl group is coded here: element k is ``weyl_elements[k]`` (the
matrices sorted), and the closure records ``weyl_right[k][i]``, the index
of w_k s_(i+1), and the lexicographically least reduced word of each
element.  Products walk a word through that table and inverses walk it
backwards.  Every other per-index table is built on first use by one walk
along the stored words, ``_walk``: the permutations of the roots and of
the representation weights that ``weyl_actions`` and ``weyl_flips`` read,
and each sigma's action, for which only the s_i are conjugated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import mul
from typing import NamedTuple, Optional, Tuple

from . import linalg
from .errors import (BudgetExceededError, ConfigurationError, PreconditionError,
                     SingularInputError)

Vector = Tuple[int, ...]

# elements of one finite Weyl group; GL8 has 40,320
WEYL_CAP = 100_000

GROUP_TAGS = ("GL", "SL", "Sp", "GSp")


class RootDatum:
    """A based root datum together with its Weyl combinatorics, walked on first read."""

    def __init__(self, group_tag, roots, coroots, simple_indices, cochar_rank,
                 rep_weights=None):
        if len(roots) != len(coroots):
            raise ConfigurationError("roots and coroots must be aligned lists")
        self.group_tag = group_tag
        self.cochar_rank = int(cochar_rank)
        self.roots = linalg.freeze(roots) if roots else ()
        self.coroots = linalg.freeze(coroots) if coroots else ()
        self.simple_indices = tuple(simple_indices)
        self.rank = len(self.simple_indices)
        # Weight multiset of the attached faithful representation, or None.
        self.rep_weights = linalg.freeze(rep_weights) if rep_weights else None
        self._validate_shapes()
        self._check_root_coroot_pairings()
        self.simple_roots = tuple(self.roots[i] for i in self.simple_indices)
        self.simple_coroots = tuple(self.coroots[i] for i in self.simple_indices)
        self.positive_indices, self.positive_coordinates = self._split_positivity()
        self.positive_roots = tuple(self.roots[i] for i in self.positive_indices)
        self.two_rho = tuple(sum(col) for col in zip(*self.positive_roots)) \
            if self.positive_roots else (0,) * self.cochar_rank
        self.simple_reflections = tuple(
            self._reflection_matrix(self.roots[i], self.coroots[i])
            for i in self.simple_indices)
        self._check_reflections_permute_roots()
        self.pi1 = present_quotient(self.cochar_rank, list(self.coroots))

    # -- construction-time validation -------------------------------------

    def _validate_shapes(self):
        for chi in self.roots:
            if len(chi) != self.cochar_rank:
                raise ConfigurationError("root of wrong length")
        for v in self.coroots:
            if len(v) != self.cochar_rank:
                raise ConfigurationError("coroot of wrong length")
        if len(set(self.roots)) != len(self.roots):
            raise ConfigurationError("duplicate roots")
        root_set = set(self.roots)
        for chi in self.roots:
            if tuple(-x for x in chi) not in root_set:
                raise ConfigurationError("root set is not stable under negation")

    def _check_root_coroot_pairings(self):
        for chi, v in zip(self.roots, self.coroots):
            if self.pair(chi, v) != 2:
                raise ConfigurationError("<alpha, alpha_check> must equal 2")

    def _split_positivity(self):
        """Indices of roots that are nonnegative combinations of the base,
        and their coordinates in the base."""
        positive, coordinates = [], []
        for idx, chi in enumerate(self.roots):
            try:
                coeffs = linalg.solve_columns(self.simple_roots, chi)
            except SingularInputError:
                raise ConfigurationError(
                    "the simple roots are not linearly independent, "
                    "so they are not a base") from None
            if coeffs is None:
                raise ConfigurationError("root outside the span of the base")
            if all(c >= 0 for c in coeffs):
                positive.append(idx)
                coordinates.append(coeffs)
            elif not all(c <= 0 for c in coeffs):
                raise ConfigurationError("base does not split the roots by sign")
        if 2 * len(positive) != len(self.roots):
            raise ConfigurationError("positive roots do not halve the root set")
        return tuple(positive), tuple(coordinates)

    def _reflection_matrix(self, chi, v):
        """The matrix of x -> x - <chi, x> v."""
        return tuple(tuple((i == j) - c * u for j, c in enumerate(chi)) for i, u in enumerate(v))

    def _check_reflections_permute_roots(self):
        """Each simple reflection must permute the roots and the coroots: a
        root-datum axiom, which makes W finite, so WEYL_CAP is a size budget."""
        for i, s in enumerate(self.simple_reflections):
            # s_i = s_i^-1 acts on characters by its transpose
            for name, lines, m in (("roots", self.roots, linalg.transpose(s)),
                                   ("coroots", self.coroots, s)):
                if _permutation(lines, m) is None:
                    raise ConfigurationError(
                        f"the simple reflection s{i + 1} does not permute the {name}")

    def _generate_weyl(self):
        """Close {1} breadth first under w -> w s_alpha = w - (w alpha_check) <alpha, .>.

        Returns the sorted elements, right[k][i] = index of w_k s_(i+1), the
        word (0-based letters) each element was first reached by, and the
        indices after the identity's in the order reached.  The walk is
        breadth first with the letters in increasing order, so that order is
        by length and that word is the lexicographically least reduced word.
        More than WEYL_CAP elements raise BudgetExceededError.
        """
        steps = tuple(zip(self.simple_roots, self.simple_coroots))
        ident = linalg.identity(self.cochar_rank)
        found, reached, right = {ident: 0}, [(ident, ())], []
        for w, word in reached:  # grows while it is walked: breadth first
            row = []
            for i, (alpha_row, check) in enumerate(steps):
                w_check = [sum(x * c for x, c in zip(r, check)) for r in w]
                ws = tuple(tuple(x - u * a for x, a in zip(r, alpha_row)) if u else r
                           for r, u in zip(w, w_check))
                if ws not in found:
                    if len(found) == WEYL_CAP:
                        raise BudgetExceededError(
                            f"the Weyl group has more than WEYL_CAP = {WEYL_CAP} elements")
                    found[ws] = len(reached)
                    reached.append((ws, word + (i,)))
                row.append(found[ws])
            right.append(row)
        elements = tuple(sorted(found))
        order = [found[w] for w in elements]
        position = {old: new for new, old in enumerate(order)}
        return (elements, tuple(tuple(position[j] for j in right[k]) for k in order),
                tuple(reached[k][1] for k in order),
                tuple(map(position.__getitem__, range(1, len(reached)))))

    # -- basic pairings and actions ----------------------------------------

    def pair(self, chi, v):
        """<chi, v>, the dot product: characters are in the dual basis."""
        return sum(c * x for c, x in zip(chi, v))

    # -- the coded Weyl group: one walk fills these on the first read of any --

    _weyl_closure = cached_property(lambda self: self._generate_weyl())
    weyl_elements = cached_property(lambda self: self._weyl_closure[0])
    weyl_right = cached_property(lambda self: self._weyl_closure[1])
    weyl_words = cached_property(lambda self: self._weyl_closure[2])
    _by_length = cached_property(lambda self: self._weyl_closure[3])
    weyl_index = cached_property(lambda self: {w: k for k, w in enumerate(self.weyl_elements)})
    weyl_identity = cached_property(lambda self: self.weyl_index[linalg.identity(self.cochar_rank)])
    _weyl_products = cached_property(lambda self: [None] * len(self.weyl_elements))

    @cached_property
    def _sigma_tables(self):
        """sigma -> its ``SigmaTable``, the identity's (sigma = None) built here."""
        return {None: SigmaTable(
            tuple(range(len(self.weyl_elements))), self.pi1, tuple(range(len(self.roots))),
            SigmaRows(linalg.identity(self.cochar_rank), self.weyl_index))}

    def weyl_code(self, w) -> int:
        """The index of a Weyl group matrix."""
        try:
            return self.weyl_index[w]
        except KeyError:
            raise PreconditionError("finite part is not a Weyl group element") from None

    def _follow(self, k: int, word) -> int:
        """The index of w_k s_(i1+1) s_(i2+1) ... for word = (i1, i2, ...)."""
        for letter in word:
            k = self.weyl_right[k][letter]
        return k

    def weyl_mul(self, i: int, j: int) -> int:
        """The index of w_i w_j: the word of w_j walked from w_i, memoised."""
        row = self._weyl_products[i]
        if row is None:
            row = self._weyl_products[i] = [None] * len(self.weyl_elements)
        k = row[j]
        if k is None:
            k = row[j] = self._follow(i, self.weyl_words[j])
        return k

    @cached_property
    def weyl_inverse(self) -> Tuple[int, ...]:
        """The index of w^-1 for each index w: its word walked backwards."""
        return tuple(self._follow(self.weyl_identity, reversed(word))
                     for word in self.weyl_words)

    def positive_pairings(self, lam) -> Tuple[int, ...]:
        """<alpha, lam> for each positive root alpha."""
        return tuple([sum(map(mul, alpha, lam)) for alpha in self.positive_roots])

    def _walk(self, start, step) -> list:
        """The one walk along the stored words: table[identity] = start and
        table[k] = step(table[w_k s_i], i), i the last letter of k's word."""
        words, right, table = self.weyl_words, self.weyl_right, [start] * len(self.weyl_words)
        # by word length: w_k s_i, one letter shorter, is built before k
        for k in self._by_length:
            table[k] = step(table[right[k][words[k][-1]]], words[k][-1])
        return table

    @cached_property
    def _permutations(self):
        """Per index w, its permutations of the roots and of the weights, as
        w s_i chi = w (s_i chi); None for weights that some s_i does not permute."""
        def walk(chars):
            if chars is None:
                return None
            images = [_permutation(chars, linalg.transpose(s)) for s in self.simple_reflections]
            if None in images:
                return None
            return self._walk(tuple(range(len(chars))),
                              lambda prev, i: tuple([prev[b] for b in images[i]]))

        return walk(self.roots), walk(self.rep_weights)

    @cached_property
    def weyl_flips(self) -> Tuple[Tuple[int, ...], ...]:
        """Per index w, 1 for each positive root alpha with w^-1 alpha < 0,
        read off the root permutation of w^-1."""
        positive, roots = set(self.positive_indices), self._permutations[0]
        return tuple(tuple([0 if perm[a] in positive else 1 for a in self.positive_indices])
                     for perm in map(roots.__getitem__, self.weyl_inverse))

    @cached_property
    def weyl_actions(self) -> Tuple["WeylAction", ...]:
        """Per index w, its ``WeylAction``: the sparse rows read off the
        matrix, and w's permutations of the roots and weights."""
        roots, weights = self._permutations
        actions = []
        for k, w in enumerate(self.weyl_elements):
            actions.append(WeylAction(*_sparse_rows(w), roots[k],
                                      None if weights is None else weights[k]))
        return tuple(actions)

    def sigma_table(self, sigma) -> "SigmaTable":
        """The table of one lattice automorphism sigma (None for the identity).

        sigma must be a square matrix of ints or Fractions, integral with
        determinant +-1, that normalises the Weyl group; anything else
        raises ConfigurationError.  Only the s_i are conjugated: sigma (w s_i)
        sigma^-1 walks the stored word of sigma s_i sigma^-1 from sigma w sigma^-1.
        """
        if sigma is None:
            return self._sigma_tables[None]
        sigma = linalg.freeze(sigma)
        # checked before the lookup, as 1.0 == 1 would find an int sigma's table
        if not {int, Fraction}.issuperset(map(type, chain.from_iterable(sigma))):
            raise ConfigurationError("sigma must have int or Fraction entries")
        table = self._sigma_tables.get(sigma)
        if table is None:
            n = self.cochar_rank
            if len(sigma) != n or any(len(row) != n or any(v != int(v) for v in row)
                                      for row in sigma) or abs(linalg.det(sigma)) != 1:
                raise ConfigurationError(
                    "sigma is not an automorphism of the cocharacter lattice: "
                    "it needs integer entries and determinant +-1")
            sigma = linalg.freeze(map(int, row) for row in sigma)
            # sigma chi = chi o sigma^-1 = sigma^-T chi
            on_chars = linalg.freeze(map(int, col) for col in zip(*linalg.mat_inv(sigma)))
            # sigma s_i sigma^-1 reflects in alpha_i o sigma^-1 and sigma alpha_i_check
            images = [self.weyl_index.get(self._reflection_matrix(
                linalg.mat_vec(on_chars, alpha), linalg.mat_vec(sigma, check)))
                for alpha, check in zip(self.simple_roots, self.simple_coroots)]
            if None in images:
                raise ConfigurationError("sigma does not normalise the Weyl group")
            words = [self.weyl_words[k] for k in images]
            table = self._sigma_tables[sigma] = SigmaTable(
                tuple(self._walk(self.weyl_identity, lambda k, i: self._follow(k, words[i]))),
                present_quotient(n, list(self.coroots) + _moved_columns(sigma)),
                _permutation(self.roots, on_chars), SigmaRows(sigma, self.weyl_index))
        return table

    @cached_property
    def affine_reflections(self) -> Tuple[Tuple[Vector, int], ...]:
        """(theta_check, index of s_theta) for the highest root theta of each
        irreducible component of the base, the components ordered by their
        lowest simple index."""
        components = []
        for i, alpha in enumerate(self.simple_roots):
            linked = [c for c in components
                      if any(self.pair(alpha, self.simple_coroots[j]) for j in c)]
            components = [c for c in components if c not in linked]
            components.append({i}.union(*linked))
        coeffs = dict(zip(self.positive_roots, self.positive_coordinates))
        table = []
        for component in sorted(components, key=min):
            theta = max((chi for chi in self.positive_roots
                         if all(c == 0 or i in component
                                for i, c in enumerate(coeffs[chi]))),
                        key=lambda chi: sum(coeffs[chi]))
            theta_check = self.coroots[self.roots.index(theta)]
            table.append((theta_check,
                          self.weyl_index[self._reflection_matrix(theta, theta_check)]))
        return tuple(table)

    def __repr__(self):
        return f"RootDatum({self.group_tag}, cochar_rank={self.cochar_rank}, roots={len(self.roots)})"


# -- quotient presentations (Smith form) -----------------------------------

class CoinvariantLattice(NamedTuple):
    """Presentation of a quotient of Z^rank: free part plus cyclic torsion.

    ``projection`` maps X_* onto the presentation; the first ``free_rank``
    rows are the free coordinates, the remaining rows are read modulo the
    matching entry of ``torsion``.
    """

    free_rank: int
    torsion: Tuple[int, ...]
    projection: Tuple[Tuple[int, ...], ...]

    def project(self, v) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        image = linalg.mat_vec(self.projection, v)
        free = tuple(int(x) for x in image[:self.free_rank])
        tors = tuple(int(x) % d for x, d in zip(image[self.free_rank:], self.torsion))
        return free, tors


def present_quotient(rank: int, relation_columns) -> CoinvariantLattice:
    """Present Z^rank modulo the integer span of the given columns."""
    rows = [[int(col[i]) for col in relation_columns] for i in range(rank)]
    divisors, s, _t = linalg.smith_full(rows)
    divisors += (0,) * (rank - len(divisors))

    def _normalize(row):
        # Flip so the first nonzero entry is positive: makes the GL free
        # coordinate the valuation of the determinant rather than its negative.
        lead = next((x for x in row if x != 0), 1)
        return tuple(row) if lead > 0 else tuple(-x for x in row)

    free_rows, torsion_rows, torsion = [], [], []
    for i, d in enumerate(divisors):
        if d == 0:
            free_rows.append(_normalize(s[i]))
        elif d > 1:
            torsion_rows.append(_normalize(s[i]))
            torsion.append(d)
    projection = tuple(free_rows + torsion_rows)
    return CoinvariantLattice(len(free_rows), tuple(torsion), projection)


class SigmaTable(NamedTuple):
    """What a datum derives from one lattice automorphism sigma.

    ``weyl_action[w]`` is the index of sigma w sigma^-1; ``pi1`` presents
    pi_1(G)_sigma = X_* / (coroots + (1 - sigma) X_*), where kappa lives.
    ``roots[a]`` is the index of sigma alpha_a = alpha_a o sigma^-1 in
    ``roots``, None where sigma does not permute the roots.  ``rows`` is
    sigma's ``SigmaRows``.
    """

    weyl_action: Tuple[int, ...]
    pi1: CoinvariantLattice
    roots: Optional[Tuple[int, ...]]
    rows: "SigmaRows"


class WeylAction:
    """How one Weyl element w acts, read without multiplying by its matrix.

    ``gather[i]`` is the first nonzero (column, coefficient) of row i of w
    and ``rest`` the other nonzeros as (row, column, coefficient), so
    ``apply(v)`` is w v.  ``roots[a]`` is the index of w alpha_a =
    alpha_a o w^-1 in ``roots``, ``weights[a]`` that of w chi_a in
    ``rep_weights`` (None without weights that W permutes).

    A table entry, never compared or hashed, so a slots class: a
    NamedTuple class would cost about 0.4 ms of every cold import.
    """

    __slots__ = ("gather", "rest", "roots", "weights")

    def __init__(self, gather: Tuple[Tuple[int, int], ...],
                 rest: Tuple[Tuple[int, int, int], ...], roots: Tuple[int, ...],
                 weights: Optional[Tuple[int, ...]]):
        self.gather, self.rest, self.roots, self.weights = gather, rest, roots, weights

    def apply(self, v) -> Vector:
        out = [c * v[j] for j, c in self.gather]
        for i, j, c in self.rest:
            out[i] += c * v[j]
        return tuple(out)


class SigmaRows:
    """sigma's sparse rows (``apply(v)`` is sigma v, as in ``WeylAction``) and
    ``power(k)``, the Weyl index of sigma^k or None outside W, walked on first
    use only as far as asked.  Equal by rows, so a ``SigmaTable`` is a value."""

    __slots__ = ("gather", "rest", "_index", "_columns", "_powers")
    apply = WeylAction.apply

    def __init__(self, matrix, weyl_index):
        self.gather, self.rest = _sparse_rows(matrix)
        self._index, self._columns = weyl_index, linalg.identity(len(matrix))
        self._powers = [weyl_index[self._columns]]

    def power(self, k: int) -> Optional[int]:
        while len(self._powers) <= k:  # sigma^k's columns: sigma on sigma^(k-1)'s
            self._columns = tuple(map(self.apply, self._columns))
            self._powers.append(self._index.get(tuple(zip(*self._columns))))
        return self._powers[k]

    def __eq__(self, other):
        return isinstance(other, SigmaRows) and (self.gather, self.rest) == (other.gather, other.rest)

    def __hash__(self):
        return hash((self.gather, self.rest))


def _sparse_rows(matrix):
    """``WeylAction``'s (gather, rest) for an invertible matrix."""
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in matrix]
    return (tuple(row[0] for row in rows),
            tuple((i, j, c) for i, row in enumerate(rows) for j, c in row[1:]))


def _permutation(chars, on_chars) -> Optional[Tuple[int, ...]]:
    """The index in ``chars`` of on_chars chi for each chi in ``chars``, for an
    invertible on_chars; None unless that permutes distinct ``chars``."""
    position = {chi: a for a, chi in enumerate(chars)}
    perm = tuple(position.get(linalg.mat_vec(on_chars, chi)) for chi in chars)
    return None if len(position) != len(chars) or None in perm else perm


def _moved_columns(g):
    """The nonzero columns e_j - g e_j of 1 - g."""
    n = len(g)
    columns = (tuple(int((i == j) - g[i][j]) for i in range(n)) for j in range(n))
    return [col for col in columns if any(col)]


# -- dominance ----------------------------------------------------------------

def require_rank(datum: RootDatum, v):
    """Refuse a vector whose length is not the datum's ``cochar_rank``."""
    if len(v) != datum.cochar_rank:
        raise PreconditionError(
            f"vector has length {len(v)}, expected {datum.cochar_rank}")


def is_dominant(datum: RootDatum, v) -> bool:
    require_rank(datum, v)
    return all(datum.pair(alpha, v) >= 0 for alpha in datum.simple_roots)


def dominant_walk(datum: RootDatum, v) -> tuple:
    """The dominant element of the Weyl orbit of v, in the numbers given
    (ints stay ints).

    Simple-reflection ascent with lowest-index-first tie breaking, so the
    walk (not only the endpoint) is deterministic.  Each step is the
    rank-one update x - <alpha, x> alpha_check.
    """
    current = tuple(v)
    steps = tuple(zip(datum.simple_roots, datum.simple_coroots))
    while True:
        for alpha, check in steps:
            n = sum(map(mul, alpha, current))
            if n < 0:
                current = tuple([x - n * c for x, c in zip(current, check)])
                break
        else:
            return current


def dominant_rep(datum: RootDatum, v) -> Tuple[Fraction, ...]:
    """Unique dominant element of the Weyl orbit of v, as Fractions."""
    require_rank(datum, v)
    return tuple(map(Fraction, dominant_walk(datum, v)))


def dominance_leq(datum: RootDatum, v1, v2) -> bool:
    """Dominance order: v2 - v1 a nonnegative rational sum of positive coroots.

    Both arguments must already be dominant.  Inputs whose difference leaves
    the rational span of the coroots (distinct central components) compare
    as False.
    """
    for name, v in (("first", v1), ("second", v2)):
        if not is_dominant(datum, v):
            raise PreconditionError(f"{name} argument is not dominant")
    diff = tuple(Fraction(b) - Fraction(a) for a, b in zip(v1, v2))
    coeffs = linalg.solve_columns(datum.simple_coroots, diff)
    if coeffs is None:
        return False
    return all(c >= 0 for c in coeffs)


# -- builders -----------------------------------------------------------------

def _vec(m, *entries):
    """The vector of Z^m with the given (index, coefficient) entries; an
    entry with coefficient 0 is skipped, whatever its index."""
    v = [0] * m
    for i, c in entries:
        if c:
            v[i] += c
    return tuple(v)


def _type_a(m: int, n: int):
    """The roots e_i - e_j (i != j < n) of Z^m, their coroots (the same
    vectors) and the indices of the simple roots e_i - e_(i+1)."""
    roots = [_vec(m, (i, 1), (j, -1)) for i in range(n) for j in range(n) if i != j]
    return roots, list(roots), [i * n for i in range(n - 1)]


def _build_gl(n: int) -> RootDatum:
    return RootDatum("GL", *_type_a(n, n), n, rep_weights=linalg.identity(n))


def _build_sl(n: int) -> RootDatum:
    """SL(n) with cocharacters in the simple-coroot basis, characters in the
    fundamental-weight basis, which is dual to it: GL(n)'s lists, a character
    read by its pairings with the e_k - e_(k+1) and a cocharacter (of sum 0)
    by its prefix sums."""
    roots, _, simple = _type_a(n, n)

    def on_coroots(chi):
        return tuple(chi[k] - chi[k + 1] for k in range(n - 1))

    return RootDatum("SL", list(map(on_coroots, roots)),
                     [tuple(accumulate(v[:-1])) for v in roots], simple, n - 1,
                     rep_weights=list(map(on_coroots, linalg.identity(n))))


def _build_symplectic(tag: str, g: int) -> RootDatum:
    """Sp(2g) on Z^g, or GSp(2g) with one similitude coordinate (the last).

    Cocharacters (a_1, ..., a_g, c) act on the standard 2g-dimensional
    space with exponents (a_1, ..., a_g, c - a_g, ..., c - a_1); the
    similitude valuation realises pi_1(GSp) = Z.  Sp is the same lists with
    similitude 0 and without its coordinate.
    """
    f = int(tag == "GSp")  # the coefficient of the similitude coordinate e_g
    m = g + f
    roots, coroots, simple = _type_a(m, g)
    # +-(e_i + e_j - f e_g) with coroot +-(e_i + e_j) for i < j, then the
    # long roots +-(2 e_i - f e_g), the pairs i = j, with coroot +-e_i
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)] + [(i, i) for i in range(g)]
    for i, j in pairs:
        for sign in (1, -1):
            roots.append(_vec(m, (i, sign), (j, sign), (g, -sign * f)))
            coroots.append(_vec(m, (i, sign), (j, sign * (i != j))))
    weights = list(linalg.identity(m)[:g]) + [_vec(m, (g, f), (i, -1)) for i in reversed(range(g))]
    return RootDatum(tag, roots, coroots, simple + [len(roots) - 2], m, rep_weights=weights)


def build_classical(tag: str, n: int) -> RootDatum:
    """Standard based root datum of one classical family in coordinate form."""
    tag = str(tag)
    if tag not in GROUP_TAGS:
        raise ConfigurationError(f"unsupported group tag {tag!r}; expected one of {GROUP_TAGS}")
    if tag in ("GL", "SL"):
        if n < 1:
            raise ConfigurationError("GL/SL need n >= 1")
        if tag == "GL":
            return _build_gl(n)
        if n == 1:
            raise ConfigurationError("SL(1) is trivial; use GL(1)")
        return _build_sl(n)
    if n < 2 or n % 2 != 0:
        raise ConfigurationError("Sp/GSp need even n >= 2")
    return _build_symplectic(tag, n // 2)


def datum_from_document(doc: dict) -> RootDatum:
    """Root datum from a structured-text document.

    Fixed keys: ``group``, ``n``; custom data may instead carry explicit
    ``roots``, ``coroots``, ``simple_indices`` and optional ``pairing``.
    ``n`` must be an integer, the roots, coroots and pairing lists of
    integer lists, and the simple indices indices into the roots; anything
    else raises ConfigurationError.  A pairing P, <chi, v> = chi^T P v,
    must be unimodular; it is folded into the roots, chi -> P^T chi.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("root-datum document must be a mapping")
    unknown = set(doc) - {"group", "n", "roots", "coroots", "pairing", "simple_indices"}
    if unknown:
        raise ConfigurationError(f"unknown root-datum keys: {sorted(unknown)}")
    n = doc.get("n", 0)
    if type(n) is not int:  # bool is an int subclass
        raise ConfigurationError(f"root-datum 'n' must be an integer, not {n!r}")
    if "roots" in doc or "coroots" in doc:
        for key in ("roots", "coroots", "simple_indices"):
            if key not in doc:
                raise ConfigurationError(f"custom datum needs {key}")
        roots = _integer_rows(doc, "roots")
        coroots = _integer_rows(doc, "coroots")
        indices = doc["simple_indices"]
        if not isinstance(indices, (list, tuple)) or not all(
                type(i) is int and 0 <= i < len(roots) for i in indices):
            raise ConfigurationError(
                f"root-datum 'simple_indices' must be a list of indices into "
                f"the {len(roots)} roots, not {indices!r}")
        rank = len(roots[0]) if roots else n
        if doc.get("pairing") is not None:
            pairing = _integer_rows(doc, "pairing")
            if len(pairing) != rank or any(len(row) != rank for row in pairing):
                raise ConfigurationError("pairing matrix has wrong shape")
            if abs(linalg.det(pairing)) != 1:
                raise ConfigurationError(
                    "the pairing is not perfect: it needs determinant +-1")
            fold = linalg.transpose(pairing)
            # a root of the wrong length is left for RootDatum to refuse
            roots = [linalg.mat_vec(fold, chi) if len(chi) == rank else chi for chi in roots]
        return RootDatum(str(doc.get("group", "custom")), roots, coroots, indices, rank)
    if "group" not in doc or "n" not in doc:
        raise ConfigurationError("document needs 'group' and 'n'")
    return build_classical(str(doc["group"]), n)


def _integer_rows(doc: dict, key: str):
    """``doc[key]`` as a list of integer tuples; anything but a list or tuple
    of integer lists or tuples is refused."""
    rows = doc[key]
    if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(type(v) is int for v in row)
            for row in rows):
        raise ConfigurationError(
            f"root-datum {key!r} must be a list of integer lists, not {rows!r}")
    return [tuple(row) for row in rows]


def parse_group_name(name: str) -> RootDatum:
    """Parse compact CLI names like GL2, SL3, Sp4, GSp4."""
    for tag in ("GSp", "GL", "SL", "Sp"):
        if name.startswith(tag):
            try:
                n = int(name[len(tag):])
            except ValueError:
                break
            return build_classical(tag, n)
    raise ConfigurationError(f"cannot parse group name {name!r}")

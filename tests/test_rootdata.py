import hashlib
import random
from fractions import Fraction as F

import pytest
from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from centralleaf import linalg, rootdata, serialize
from centralleaf.affine import element, length
from centralleaf.errors import BudgetExceededError, ConfigurationError, PreconditionError
from centralleaf.rootdata import (RootDatum, build_classical, datum_from_document,
                                  dominance_leq, dominant_rep, is_dominant,
                                  parse_group_name, present_quotient)

ALL_DATA = [build_classical("GL", 2), build_classical("GL", 3),
            build_classical("GL", 4), build_classical("SL", 3),
            build_classical("Sp", 4), build_classical("GSp", 4)]


def test_build_examples():
    gl2 = build_classical("GL", 2)
    assert set(gl2.roots) == {(1, -1), (-1, 1)}
    assert gl2.two_rho == (1, -1)
    gl3 = build_classical("GL", 3)
    assert gl3.two_rho == (2, 0, -2)
    sp4 = build_classical("Sp", 4)
    assert sp4.two_rho == (4, 2)


CLASSICAL = ([("GL", n) for n in range(1, 7)] + [("SL", n) for n in range(2, 7)]
             + [("Sp", n) for n in range(2, 9, 2)] + [("GSp", n) for n in range(2, 9, 2)])


def test_classical_data_keep_their_coordinates_and_order():
    # one repr line per datum; a reordered root list changes the digest
    # even where the root set does not
    text = "".join(repr((d.group_tag, d.cochar_rank, d.roots, d.coroots, d.simple_indices,
                         d.rep_weights)) + "\n"
                   for d in (build_classical(tag, n) for tag, n in CLASSICAL))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "26996e626947feaffadaf2b252114276de1d58046a121fee8f136ca50d9d7ee7"


def _cartan(kind, r):
    """The textbook Cartan matrix <alpha_i, alpha_j_check> of A_r or C_r:
    2 on the diagonal, -1 between neighbours, and for C_r -2 where the long
    simple root alpha_r meets alpha_(r-1)_check."""
    matrix = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)]
              for i in range(r)]
    if kind == "C" and r > 1:
        matrix[r - 1][r - 2] = -2
    return tuple(map(tuple, matrix))


@pytest.mark.parametrize("tag, n", CLASSICAL, ids=[f"{t}{n}" for t, n in CLASSICAL])
def test_classical_cartan_matrices(tag, n):
    datum = build_classical(tag, n)
    expected = _cartan("A", n - 1) if tag in ("GL", "SL") else _cartan("C", n // 2)
    assert tuple(tuple(datum.pair(alpha, check) for check in datum.simple_coroots)
                 for alpha in datum.simple_roots) == expected


def test_cartan_matrices_known_answers():
    assert _cartan("A", 3) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert _cartan("C", 3) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert _cartan("C", 1) == ((2,),)


def test_gl1_goes_through_the_general_builder():
    for gl1 in (build_classical("GL", 1), rootdata._build_gl(1)):
        assert (gl1.group_tag, gl1.cochar_rank, gl1.roots, gl1.coroots, gl1.simple_indices,
                gl1.rep_weights) == ("GL", 1, (), (), (), ((1,),))
        assert len(gl1.weyl_elements) == 1 and gl1.two_rho == (0,)
        assert gl1.pi1 == present_quotient(1, [])
        assert gl1.weyl_actions[gl1.weyl_identity].weights == (0,)


def test_build_errors():
    with pytest.raises(ConfigurationError):
        build_classical("SO", 5)
    with pytest.raises(ConfigurationError):
        build_classical("Sp", 3)
    with pytest.raises(ConfigurationError):
        build_classical("GL", 0)


@pytest.mark.parametrize("datum", ALL_DATA, ids=lambda d: f"{d.group_tag}{d.cochar_rank}")
def test_root_coroot_pairings(datum):
    for chi, v in zip(datum.roots, datum.coroots):
        assert datum.pair(chi, v) == 2
    # negation permutes the roots, positive/negative halves partition
    assert set(datum.roots) == {tuple(-x for x in chi) for chi in datum.roots}
    neg = {tuple(-x for x in chi) for chi in datum.positive_roots}
    assert neg | set(datum.positive_roots) == set(datum.roots)
    assert not neg & set(datum.positive_roots)


@pytest.mark.parametrize("tag,n", [("SL", 3), ("Sp", 4), ("SL", 2)])
def test_two_rho_on_simple_coroots_semisimple(tag, n):
    datum = build_classical(tag, n)
    for v in datum.simple_coroots:
        assert datum.pair(datum.two_rho, v) == 2


def test_weyl_group_orders():
    assert len(build_classical("GL", 2).weyl_elements) == 2
    assert len(build_classical("GL", 4).weyl_elements) == 24
    assert len(build_classical("Sp", 4).weyl_elements) == 8
    assert len(build_classical("GSp", 4).weyl_elements) == 8


def test_dominant_rep_examples():
    gl2 = build_classical("GL", 2)
    assert dominant_rep(gl2, (0, 1)) == (1, 0)
    gl3 = build_classical("GL", 3)
    assert dominant_rep(gl3, (0, 1, 0)) == (1, 0, 0)
    assert dominant_rep(gl2, (F(-1, 2), F(-1, 2))) == (F(-1, 2), F(-1, 2))


@pytest.mark.parametrize("datum", ALL_DATA, ids=lambda d: f"{d.group_tag}{d.cochar_rank}")
def test_dominant_rep_orbit_invariance(datum):
    # dominant_rep(w v) = dominant_rep(v) for random Weyl words, exactly
    rng = random.Random(20260810)
    count = 1000 // len(ALL_DATA) + 40
    for _ in range(count):
        v = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(datum.cochar_rank))
        w = linalg.identity(datum.cochar_rank)
        for _ in range(rng.randint(0, 6)):
            w = linalg.mat_mul(w, datum.simple_reflections[rng.randrange(datum.rank)]) \
                if datum.rank else w
        wv = linalg.mat_vec(w, v)
        assert dominant_rep(datum, wv) == dominant_rep(datum, v)
        dom = dominant_rep(datum, v)
        assert datum.pair(datum.two_rho, dom) >= 0


def test_dominance_examples():
    gl2 = build_classical("GL", 2)
    assert dominance_leq(gl2, (F(1, 2), F(1, 2)), (1, 0))
    assert not dominance_leq(gl2, (2, -1), (1, 0))
    gl3 = build_classical("GL", 3)
    assert dominance_leq(gl3, (1, 0, 0), (1, 0, 0))
    with pytest.raises(PreconditionError):
        dominance_leq(gl2, (0, 1), (1, 0))


def test_dominance_is_partial_order_gl3():
    gl3 = build_classical("GL", 3)
    span = range(-2, 3)
    dominants = [v for v in
                 ((a, b, c) for a in span for b in span for c in span)
                 if is_dominant(gl3, v)]
    leq = {(u, v) for u in dominants for v in dominants
           if dominance_leq(gl3, u, v)}
    for u in dominants:
        assert (u, u) in leq
    for (u, v) in leq:
        if (v, u) in leq:
            assert u == v
    for (u, v) in leq:
        for w in dominants:
            if (v, w) in leq:
                assert (u, w) in leq


# coinvariants X_* / span{x - g x}: the relation columns e_j - g e_j of 1 - g
SWAP_RELATIONS = [(1, -1), (-1, 1)]  # the coordinate swap of GL2


def test_coinvariants_examples():
    co = present_quotient(2, SWAP_RELATIONS)
    assert (co.free_rank, co.torsion) == (1, ())
    co2 = present_quotient(1, [(2,)])  # -1 on GL1
    assert (co2.free_rank, co2.torsion) == (0, (2,))
    co3 = present_quotient(3, [])  # the trivial action on GL3
    assert (co3.free_rank, co3.torsion) == (3, ())
    assert co3.projection == linalg.identity(3)


def test_coinvariants_rank_nullity():
    co = present_quotient(2, SWAP_RELATIONS)
    # relation image of (id - swap) has rank 1; free_rank 1 + 1 = rank 2
    relation = ((1, -1), (-1, 1))
    factors = invariant_factors(DomainMatrix.from_Matrix(SymMatrix(relation)).convert_to(ZZ))
    image_rank = sum(1 for f in factors if f != 0)
    assert co.free_rank + image_rank == 2


def test_coinvariants_projection_kills_relations():
    swap = ((0, 1), (1, 0))
    co = present_quotient(2, SWAP_RELATIONS)
    for j in range(2):
        e = tuple(1 if i == j else 0 for i in range(2))
        ge = linalg.mat_vec(swap, e)
        diff = tuple(a - b for a, b in zip(e, ge))
        assert co.project(diff) == co.project((0, 0))


def test_present_quotient_of_classical_groups():
    # pi_1 of the classical groups: Z through the determinant (GL) or the
    # similitude character (GSp), trivial for the simply connected SL and Sp
    for tag, sizes in (("GL", range(1, 7)), ("SL", range(2, 6)),
                       ("Sp", (2, 4, 6)), ("GSp", (2, 4, 6))):
        for n in sizes:
            datum = build_classical(tag, n)
            rank = datum.cochar_rank
            pi1 = present_quotient(rank, list(datum.coroots))
            assert pi1 == datum.pi1
            if tag == "GL":
                assert (pi1.free_rank, pi1.torsion, pi1.projection) == (1, (), ((1,) * rank,))
            elif tag == "GSp":
                assert (pi1.free_rank, pi1.torsion, pi1.projection) == (
                    1, (), ((0,) * (rank - 1) + (1,),))
            else:
                assert (pi1.free_rank, pi1.torsion, pi1.projection) == (0, (), ())


def test_datum_document_interface():
    assert datum_from_document({"group": "GL", "n": 2}).two_rho == (1, -1)
    custom = datum_from_document({
        "group": "custom",
        "roots": [(1, -1), (-1, 1)],
        "coroots": [(1, -1), (-1, 1)],
        "simple_indices": [0],
    })
    assert custom.two_rho == (1, -1)
    with pytest.raises(ConfigurationError):
        datum_from_document({"group": "GL", "n": 2, "bogus": 1})
    assert parse_group_name("GSp4").group_tag == "GSp"
    with pytest.raises(ConfigurationError):
        parse_group_name("E8")


def test_malformed_datum_documents_are_refused():
    # these used to end in ValueError, IndexError and TypeError tracebacks,
    # or to be read silently as another group ("n": 2.5 as GL2)
    base = {"roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]],
            "simple_indices": [0]}
    for doc in ({"group": "GL", "n": "x"}, {"group": "GL", "n": 2.5},
                {"group": "GL", "n": True}, {"group": "GL", "n": None},
                {"roots": "ab", "coroots": "ab", "simple_indices": [0]},
                {**base, "roots": [[1.5, -1], [-1, 1]]},
                {**base, "coroots": [[1, -1], [-1, True]]},
                {**base, "simple_indices": [5]}, {**base, "simple_indices": [-1]},
                {**base, "simple_indices": [True]}, {**base, "simple_indices": "0"},
                {**base, "pairing": "x"}, {**base, "pairing": [[1], [0, 1]]},
                {**base, "n": "2"},
                # a singular pairing: <(1,-1), (1,-1)> = 2 through it
                {**base, "pairing": [[2, 0], [0, 0]]},
                # dependent simple roots: these used to raise SingularInputError
                {**base, "simple_indices": [0, 0]},
                {"roots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                 "coroots": [[2, 0], [-2, 0], [0, 2], [0, -2]], "simple_indices": [0, 1]}):
        with pytest.raises(ConfigurationError):
            datum_from_document(doc)
    assert datum_from_document({**base, "pairing": [[1, 0], [0, 1]], "n": 2}).two_rho == (1, -1)
    with pytest.raises(ConfigurationError, match="pairing matrix has wrong shape"):
        datum_from_document({**base, "pairing": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    # a pairing of determinant 2 used to be accepted and reported
    with pytest.raises(ConfigurationError, match="determinant"):
        datum_from_document({"roots": [[1], [-1]], "coroots": [[1], [-1]],
                             "simple_indices": [0], "pairing": [[2]]})
    # each axiom of a root datum, with the message that names it
    a1 = {"roots": [[2], [-2]], "coroots": [[1], [-1]], "simple_indices": [0]}
    a2 = [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1], [1, 0, -1], [-1, 0, 1]]
    for doc, message in (
            ({**a1, "roots": [[2]], "coroots": [[1], [1]]}, "aligned lists"),
            ({**a1, "roots": [[2, 0], [-2]]}, "^root of wrong length"),
            ({**a1, "coroots": [[1], [-1, 0]]}, "^coroot of wrong length"),
            ({**a1, "roots": [[2], [-2], [2]], "coroots": [[1], [-1], [1]]},
             "duplicate roots"),
            ({**a1, "roots": [[2], [4]], "coroots": [[1], [1]]},
             "not stable under negation"),
            ({**a1, "coroots": [[2], [-2]]}, "must equal 2"),
            ({"roots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
              "coroots": [[2, 0], [-2, 0], [0, 2], [0, -2]], "simple_indices": [0]},
             "outside the span of the base"),
            ({"roots": a2, "coroots": a2, "simple_indices": [0, 4]},
             "does not split the roots by sign")):
        with pytest.raises(ConfigurationError, match=message):
            datum_from_document(doc)


def test_simple_reflections_must_permute_roots_and_coroots():
    # B2: short roots +-e1, +-e2 with coroots +-2e1, +-2e2, long roots
    # +-e1+-e2 their own coroots; simple roots e1 - e2 and e2
    roots = [[1, -1], [-1, 1], [0, 1], [0, -1], [1, 0], [-1, 0], [1, 1], [-1, -1]]
    coroots = [[1, -1], [-1, 1], [0, 2], [0, -2], [2, 0], [-2, 0], [1, 1], [-1, -1]]
    b2 = {"roots": roots, "coroots": coroots, "simple_indices": [0, 2]}
    assert len(datum_from_document(b2).weyl_elements) == 8
    # s_(1,0) sends the root (1,1) to (-1,1); this datum used to be accepted
    # and then fail with "finite element with no descent"
    with pytest.raises(ConfigurationError, match="s1 does not permute the roots"):
        datum_from_document({"roots": [[1, 0], [-1, 0], [1, 1], [-1, -1]],
                             "coroots": [[2, 0], [-2, 0], [1, 1], [-1, -1]],
                             "simple_indices": [0, 2]})
    # the coroot (2, 1) of e1 still pairs to 2, but s1 swaps it to (1, 2)
    bent = [[2, 1] if v == [2, 0] else [-2, -1] if v == [-2, 0] else v for v in coroots]
    with pytest.raises(ConfigurationError, match="s1 does not permute the coroots"):
        datum_from_document({**b2, "coroots": bent})


def test_weyl_cap_is_a_size_budget(monkeypatch):
    # the cap used to raise ConfigurationError ("do not generate a finite group")
    monkeypatch.setattr(rootdata, "WEYL_CAP", 720)
    assert len(build_classical("GL", 6).weyl_elements) == 720
    monkeypatch.setattr(rootdata, "WEYL_CAP", 719)
    # the datum builds; its first read of W meets the cap
    gl6 = build_classical("GL", 6)
    with pytest.raises(BudgetExceededError, match="WEYL_CAP = 719"):
        gl6.weyl_elements


def test_a_datum_walks_its_weyl_group_on_first_read_only(monkeypatch):
    # GL8 and GSp12 used to take over 6 s to build and GL9 met WEYL_CAP
    walks = []
    walk = RootDatum._generate_weyl

    def record(datum):
        walks.append(datum)
        return walk(datum)

    monkeypatch.setattr(RootDatum, "_generate_weyl", record)
    gl9, gl10, gsp12 = (build_classical(tag, n) for tag, n in (("GL", 9), ("GL", 10),
                                                               ("GSp", 12)))
    assert gl9.two_rho == (8, 6, 4, 2, 0, -2, -4, -6, -8)
    assert len(gl9.positive_roots) == len(gsp12.positive_roots) == 36
    assert (gl9.pi1.free_rank, gl9.pi1.torsion) == (1, ())
    assert dominance_leq(gl9, (F(4, 9),) * 9, (1, 1, 1, 1, 0, 0, 0, 0, 0))
    assert dominant_rep(gl10, (0,) * 9 + (1,)) == (1,) + (0,) * 9
    assert not walks
    # one walk fills every field of W, whichever is read first
    gl4 = build_classical("GL", 4)
    assert gl4.weyl_right[gl4.weyl_identity] and gl4.sigma_table(None).pi1 == gl4.pi1
    assert len(gl4.weyl_elements) == len(gl4.weyl_words) == len(gl4.weyl_index) == 24
    assert walks == [gl4]


@pytest.mark.parametrize("v", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_dominance_refuses_a_vector_of_the_wrong_length(v):
    # zip used to truncate: on GL3, is_dominant((1, 0)) and
    # dominance_leq((1, 0, 0), (1, 0)) were True, dominant_rep((0, 1)) had length 2
    gl3 = build_classical("GL", 3)
    for call in (lambda: is_dominant(gl3, v), lambda: dominant_rep(gl3, v),
                 lambda: dominance_leq(gl3, (1, 0, 0), v),
                 lambda: dominance_leq(gl3, v, (1, 0, 0))):
        with pytest.raises(PreconditionError, match="length"):
            call()


# A1 with the swap pairing: <(1,0), (0,2)> = 2, and s(v) = (v1, -v2)
CUSTOM_A1_DOC = {"group": "A1", "roots": [[1, 0], [-1, 0]], "coroots": [[0, 2], [0, -2]],
                 "simple_indices": [0], "pairing": [[0, 1], [1, 0]]}
CUSTOM_A1 = datum_from_document(CUSTOM_A1_DOC)
ORACLE_DATA = [build_classical("GL", n) for n in range(1, 6)] + [
    build_classical(tag, n) for tag, n in (("SL", 2), ("SL", 3), ("Sp", 4), ("Sp", 6),
                                           ("GSp", 4), ("GSp", 6))] + [CUSTOM_A1]
# GL2 with its characters written in a sheared basis: P^T (1,-2) = (1,-1)
SHEARED_GL2_DOC = {"group": "GL", "roots": [[1, -2], [-1, 2]],
                   "coroots": [[1, -1], [-1, 1]], "simple_indices": [0],
                   "pairing": [[1, 1], [0, 1]]}


@pytest.mark.parametrize("doc", [CUSTOM_A1_DOC, SHEARED_GL2_DOC],
                         ids=["swap", "sheared"])
def test_a_folded_pairing_is_the_dot_product(doc):
    # <P^T chi, v> on the folded datum is chi^T P v, computed here
    datum = datum_from_document(doc)
    p = doc["pairing"]
    n = len(p)
    rng = random.Random(19)
    for chi, folded in zip(doc["roots"], datum.roots):
        for _ in range(25):
            v = [rng.randint(-6, 6) for _ in range(n)]
            assert datum.pair(folded, v) == sum(
                chi[i] * p[i][j] * v[j] for i in range(n) for j in range(n))
    if doc is SHEARED_GL2_DOC:
        gl2 = build_classical("GL", 2)
        assert datum.roots == gl2.roots
        assert datum.weyl_elements == gl2.weyl_elements


def _matrix_closure(datum):
    """The simple reflections closed under matrix products, sorted."""
    elements = {linalg.identity(datum.cochar_rank)}
    frontier = list(elements)
    while frontier:
        products = {linalg.mat_mul(w, s) for w in frontier for s in datum.simple_reflections}
        frontier = list(products - elements)
        elements |= products
    return tuple(sorted(elements))


def _matrix_word(datum, w):
    """One reduced word by greedy left descent, lowest index first, on
    matrices, with the length read off the inversion set."""
    zero = (0,) * datum.cochar_rank

    def finite_length(m):
        return length(element(datum, zero, m))

    if w == linalg.identity(datum.cochar_rank):
        return "e"
    letters = []
    current = w
    cur_len = finite_length(current)
    while cur_len > 0:
        for i in range(datum.rank):
            candidate = linalg.mat_mul(datum.simple_reflections[i], current)
            cand_len = finite_length(candidate)
            if cand_len < cur_len:
                letters.append(i + 1)
                current, cur_len = candidate, cand_len
                break
        else:
            raise AssertionError("finite element with no descent")
    return "*".join(f"s{i}" for i in letters)


# A1 x A2 on Z^5, its simple reflections listed A2, A1, A2: the least
# reduced word interleaves the components
REDUCIBLE = datum_from_document({
    "group": "A1xA2",
    "roots": [[1, -1, 0, 0, 0], [-1, 1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, -1, 1, 0],
              [0, 0, 0, 1, -1], [0, 0, 0, -1, 1], [0, 0, 1, 0, -1], [0, 0, -1, 0, 1]],
    "coroots": [[1, -1, 0, 0, 0], [-1, 1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, -1, 1, 0],
                [0, 0, 0, 1, -1], [0, 0, 0, -1, 1], [0, 0, 1, 0, -1], [0, 0, -1, 0, 1]],
    "simple_indices": [2, 0, 4]})
PGL3 = datum_from_document({
    "group": "PGL3", "roots": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
    "coroots": [[2, -1], [-2, 1], [-1, 2], [1, -2], [1, 1], [-1, -1]],
    "simple_indices": [0, 2]})


@pytest.mark.parametrize("datum", ORACLE_DATA + [
    build_classical("GL", 6), build_classical("SL", 4), PGL3, REDUCIBLE],
    ids=lambda d: f"{d.group_tag}-W{len(d.weyl_elements)}")
def test_stored_words_are_the_greedy_left_descent_words(datum):
    # the closure records the lexicographically least reduced word, which
    # greedy lowest-index left descent also builds
    for k, w in enumerate(datum.weyl_elements):
        assert serialize.word_of_finite(datum, k) == _matrix_word(datum, w)


@pytest.mark.parametrize("datum", ORACLE_DATA,
                         ids=lambda d: f"{d.group_tag}-W{len(d.weyl_elements)}")
def test_coded_weyl_group_follows_the_matrix_law(datum):
    elements = datum.weyl_elements
    assert elements == _matrix_closure(datum)
    probe = tuple(random.Random(21).randint(-5, 5) for _ in range(datum.cochar_rank))
    for k, w in enumerate(elements):
        for i, s in enumerate(datum.simple_reflections):
            assert elements[datum.weyl_right[k][i]] == linalg.mat_mul(w, s)
        assert elements[datum.weyl_inverse[k]] == linalg.mat_inv(w)
        # the matrix formula: w^-1 alpha < 0 exactly when the row of alpha
        # times w is not the row of a positive root
        assert datum.weyl_flips[k] == tuple(
            0 if row in datum.positive_roots else 1
            for row in linalg.mat_mul(datum.positive_roots, w))
        # the action table: w v by its sparse rows, and w chi = (w^-1)^T chi
        action = datum.weyl_actions[k]
        for v in linalg.identity(datum.cochar_rank) + (probe,):
            assert action.apply(v) == linalg.mat_vec(w, v)
        on_chars = linalg.transpose(linalg.mat_inv(w))
        assert action.roots == tuple(datum.roots.index(linalg.mat_vec(on_chars, chi))
                                     for chi in datum.roots)
        assert action.weights == (None if datum.rep_weights is None else tuple(
            datum.rep_weights.index(linalg.mat_vec(on_chars, chi))
            for chi in datum.rep_weights))
    pairs = [(i, j) for i in range(len(elements)) for j in range(len(elements))]
    if len(elements) > 48:
        pairs = random.Random(20261018).sample(pairs, 2000)
    for i, j in pairs:
        assert elements[datum.weyl_mul(i, j)] == linalg.mat_mul(elements[i], elements[j])


def _minus_w0(n):
    """lambda -> -w0 lambda on GL(n): the twist of a unitary group."""
    return tuple(tuple(-1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


def _searched_permutation(chars, sigma):
    """The index of sigma chi = sigma^-T chi in chars for each chi, found by
    search; None unless that permutes distinct chars."""
    on_chars = linalg.transpose(linalg.mat_inv(sigma))
    images = [linalg.mat_vec(on_chars, chi) for chi in chars]
    if len(set(chars)) != len(chars) or sorted(images) != sorted(chars):
        return None
    return tuple(chars.index(chi) for chi in images)


GL3 = build_classical("GL", 3)
# the weight (1, 0) alone: W does not permute the weights
LOPSIDED = rootdata.RootDatum("GL", GL3.roots, GL3.coroots, GL3.simple_indices, 3,
                              rep_weights=[(1, 0, 0)])


@pytest.mark.parametrize("datum, sigma", [
    (GL3, ((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    (GL3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
    (build_classical("GL", 4), _minus_w0(4)),
    (build_classical("GL", 5), _minus_w0(5)),
    (build_classical("GL", 6), _minus_w0(6)),
    (build_classical("GSp", 4), ((1, 0, -1), (0, 1, -1), (0, 0, -1))),
    (PGL3, ((0, 1), (1, 0))),
    (GL3, linalg.identity(3)),
    (LOPSIDED, linalg.identity(3)),
], ids=["GL3-rotation", "GL3-inverse-rotation", "GL4-dual", "GL5-dual", "GL6-dual",
        "GSp4-dual", "PGL3-dual", "GL3-identity", "lopsided-identity"])
def test_sigma_table_matches_the_matrix_conjugation(datum, sigma):
    table = datum.sigma_table(sigma)
    s_inv = linalg.mat_inv(sigma)
    for k, w in enumerate(datum.weyl_elements):
        conjugate = linalg.mat_mul(linalg.mat_mul(sigma, w), s_inv)
        assert datum.weyl_elements[table.weyl_action[k]] == conjugate
    assert table.roots == _searched_permutation(datum.roots, sigma)


def test_sigma_tables_of_the_identity_permute_nothing():
    for datum in (GL3, PGL3, LOPSIDED, rootdata.RootDatum("T", [], [], [], 2)):
        table = datum.sigma_table(None)
        assert table.weyl_action == tuple(range(len(datum.weyl_elements)))
        assert table.roots == tuple(range(len(datum.roots)))


def test_sigma_entries_must_be_exact():
    datum = build_classical("GL", 2)
    swap = ((0, 1), (1, 0))
    table = datum.sigma_table(swap)
    # a Fraction spelling of the same matrix shares its table
    assert datum.sigma_table(((F(0), F(1)), (F(1), F(0)))) is table
    for sigma in (((0.0, 1.0), (1.0, 0.0)), ((0, 1), (1, 0.0)), ((0, 1), (1, "0"))):
        with pytest.raises(ConfigurationError):
            datum.sigma_table(sigma)
    with pytest.raises(ConfigurationError):
        build_classical("GL", 3).sigma_table(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                              (0.0, 1.0, 0.0)))


def test_tables_are_walked_without_multiplying_matrices(monkeypatch):
    calls = []
    product = linalg.mat_mul

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    datum = build_classical("GL", 6)
    monkeypatch.setattr(linalg, "mat_mul", counted)
    datum.sigma_table(_minus_w0(6))
    assert len(calls) <= 2 * datum.rank
    del calls[:]
    assert datum.weyl_flips
    assert not calls

"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS line.  Every expected value here is either computed by
an independent oracle inside this file or taken from the worked examples
verified module-by-module.

Infinite enumeration universes ("all elements of length <= L") are realised
as coordinate windows [-2, 2]^rank; the windows contain every element of
the stated length up to a central translation, and central translations do
not affect any of the checked identities.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction as F

import pytest

from centralleaf import cli, linalg, serialize
from centralleaf.affine import (adjoint_lift, admissible_set, element,
                                enumerate_elements,
                                enumerate_sigma_classes, kottwitz, length,
                                newton_point, rep_lift, sigma_conjugate,
                                simple_element, translation_element)
from centralleaf.isocrystal import is_completely_slope_divisible
from centralleaf.lattices import adlv_points
from centralleaf.leaves import leaf_report, neutral_acceptable
from centralleaf.rootdata import build_classical, dominance_leq, is_dominant
from centralleaf.slopes import (MonomialIsocrystal, RationalIsocrystal,
                                slopes_monomial, slopes_via_weights, standard_rep)

from oracles import bruhat_leq, slopes_via_restriction

GL2 = build_classical("GL", 2)
GL3 = build_classical("GL", 3)
GL4 = build_classical("GL", 4)
SP4 = build_classical("Sp", 4)
GSP4 = build_classical("GSp", 4)


def _timed(budget_seconds):
    import functools

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.time()
            fn(*args, **kwargs)
            elapsed = time.time() - start
            assert elapsed < budget_seconds, (
                f"{fn.__name__} took {elapsed:.1f}s, budget {budget_seconds}s")
            print(f"\nACCEPTANCE {fn.__name__[5:]}: PASS ({elapsed:.2f}s)")
        return inner
    return wrap


@_timed(5)
def test_criterion_1_dimension_formula_oracle():
    # <2 rho, nu_dom> equals the sum of the positive slopes read off the
    # cycles of the adjoint monomial lift, exactly, for all windowed elements
    # of length <= 2 in GL2, GL3, GL4, Sp4
    def oracle(x):
        return sum(s for s in slopes_monomial(adjoint_lift(x)) if s > 0)

    for datum in (GL2, GL3, GL4, SP4):
        for x in enumerate_elements(datum, 2, 2):
            nu_dom = newton_point(x).dominant
            assert datum.pair(datum.two_rho, nu_dom) == oracle(x)
    # GSp4 ordinary and supersingular instances
    ordinary = translation_element(GSP4, (1, 1, 1))
    supersingular = element(GSP4, (1, 0, 1), GSP4.simple_reflections[0])
    for x in (ordinary, supersingular):
        nu_dom = newton_point(x).dominant
        assert GSP4.pair(GSP4.two_rho, nu_dom) == oracle(x)
    # the three worked values reproduce
    assert leaf_report(GL2, translation_element(GL2, (1, 0))).leaf_dim == 1
    assert leaf_report(GL3, translation_element(GL3, (1, 0, 0))).leaf_dim == 2
    assert leaf_report(GSP4, ordinary).leaf_dim == 3
    assert leaf_report(GSP4, supersingular).leaf_dim == 0


@_timed(10)
def test_criterion_2_newton_point_double_oracle():
    rng = random.Random(20260401)
    reps = {n: standard_rep(build_classical("GL", n)) for n in (1, 2, 3, 4)}
    for _ in range(200):
        n = rng.randint(1, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        exps = tuple(rng.randint(-2, 2) for _ in range(n))
        r = rng.randint(1, 2)
        m = MonomialIsocrystal(n, tuple(perm), exps, r)
        p = rng.choice((2, 3))
        mono = slopes_monomial(m)
        charpoly = slopes_via_restriction(m, p)
        nu = tuple(sorted(mono, reverse=True))
        weights = slopes_via_weights(reps[n], nu)
        assert mono == charpoly == weights


@_timed(10)
def test_criterion_3_sigma_conjugacy_invariance():
    rng = random.Random(77)
    window = enumerate_elements(GL3, 3, 3)
    for _ in range(1000):
        g, x = rng.choice(window), rng.choice(window)
        y = sigma_conjugate(g, x)
        assert newton_point(y).dominant == newton_point(x).dominant
        assert kottwitz(y) == kottwitz(x)
    partition = enumerate_sigma_classes(GL2, 1)
    for block in partition.blocks:
        assert len({newton_point(x).dominant for x in block}) == 1
        assert len({kottwitz(x) for x in block}) == 1


@_timed(30)
def test_criterion_4_admissible_set_counts():
    # counts derived twice: subword-closure construction and an independent
    # brute-force Bruhat filter over a coordinate window
    for datum, mu, expected in ((GL2, (1, 0), 3), (GL3, (1, 0, 0), 7)):
        adm = admissible_set(datum, mu, "iwahori")
        assert len(adm) == expected
        targets = [translation_element(
            datum, tuple(int(v) for v in linalg.mat_vec(w, mu)))
            for w in datum.weyl_elements]
        cap = max(length(t) for t in targets)
        window = enumerate_elements(datum, cap, 2)
        oracle = {x for x in window if any(bruhat_leq(x, t) for t in targets)}
        assert adm == oracle
    # monotonicity on the GL3 grid, including the degenerate mu' = (1,0,0)
    span = range(-1, 3)
    grid = [v for v in itertools.product(span, repeat=3)
            if is_dominant(GL3, v) and GL3.pair(GL3.two_rho, v) <= 4]
    assert (1, 0, 0) in grid
    for mu in grid:
        adm_mu = admissible_set(GL3, mu, "iwahori")
        bound = GL3.pair(GL3.two_rho, mu)
        assert all(length(x) <= bound for x in adm_mu)
        for mu_prime in grid:
            if dominance_leq(GL3, mu_prime, mu):
                assert admissible_set(GL3, mu_prime, "iwahori") <= adm_mu


@_timed(120)
def test_criterion_5_mazur_lattice_agreement():
    mu = (1, 0)
    basic = element(GL2, (1, 0), simple_element(GL2, 1).finite)
    basic_seen_nonempty = False
    for x in enumerate_elements(GL2, 2, 2):
        b = rep_lift(x)
        acceptable = neutral_acceptable(GL2, x, mu)
        for p in (2, 3):
            for depth in (1, 2):
                census = adlv_points(b, mu, p, depth)
                if census.nonempty:
                    assert acceptable, (x, p, depth)
                if x == basic and census.nonempty:
                    basic_seen_nonempty = True
                    for pt in census.points:
                        assert pt.slope_divisible.divisible
                        transition = linalg.mat_mul(
                            linalg.mat_inv(pt.lattice.basis),
                            linalg.mat_mul(
                                b.rational_matrix(p),
                                tuple(tuple(F(v) for v in row)
                                      for row in pt.lattice.basis)))
                        assert is_completely_slope_divisible(
                            RationalIsocrystal(transition, p)).divisible
    assert basic_seen_nonempty


@_timed(30)
def test_criterion_6_witt_display_suite():
    from centralleaf.witt import (ZModRing, display_check,
                                  display_from_element, truncate, witt,
                                  witt_add, witt_frobenius, witt_ghost,
                                  witt_mul, witt_scalar, witt_verschiebung)
    for p in (2, 3):
        ring = ZModRing(p, 5)
        rng = random.Random(4000 + p)
        for _ in range(500):
            a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
            b = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
            ga, gb = witt_ghost(a), witt_ghost(b)
            assert witt_ghost(witt_add(a, b)) == tuple(
                ring.add(u, v) for u, v in zip(ga, gb))
            assert witt_ghost(witt_mul(a, b)) == tuple(
                ring.mul(u, v) for u, v in zip(ga, gb))
        for _ in range(25):
            a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(3)))
            fv = witt_frobenius(witt_verschiebung(a))
            assert fv.components == truncate(witt_scalar(a, p), 2).components
        ordinary = MonomialIsocrystal(2, (0, 1), (0, -1))
        report = display_check(display_from_element(ordinary, p))
        assert report.passed and report.hodge_rank == 1
        from centralleaf.errors import NotPDivisibleError
        with pytest.raises(NotPDivisibleError):
            display_from_element(MonomialIsocrystal(2, (0, 1), (0, 1)), p)


GOLDEN_SPECS = (
    ["report", "--group", "GL2", "--element", "{lambda:[1,0],w:s}"],
    ["report", "--group", "GL2", "--element", "{lambda:[1,0],w:e}",
     "--element", "{lambda:[2,-1],w:e}"],
    ["report", "--group", "GSp4", "--element", "{lambda:[1,1,1],w:e}",
     "--format", "structured-text"],
    ["report", "--group", "GL3", "--element", "{lambda:[1,1,0],w:s1*s2}"],
    ["classes", "--group", "GL2", "--cap", "1"],
    ["classes", "--group", "GL2", "--cap", "2", "--format", "structured-text"],
    ["adm", "--group", "GL2", "--mu", "1,0"],
    ["adm", "--group", "GL3", "--mu", "1,0,0"],
    ["adm", "--group", "GL2", "--mu", "1,0", "--level", "hyperspecial"],
    ["adlv", "--matrix", "0,1;2,0", "--mu", "1,0", "--p", "2", "--depth", "1"],
    ["adlv", "--matrix", "3,0;0,1", "--mu", "1,0", "--p", "3", "--depth", "1",
     "--format", "structured-text"],
    ["witt-selfcheck", "--p", "2", "--length", "3", "--count", "50"],
    ["witt-selfcheck", "--p", "3", "--length", "3", "--count", "50"],
    ["crosscheck", "--group", "GL3", "--cap", "2"],
    ["crosscheck", "--group", "Sp4", "--cap", "1"],
)


@_timed(90)
def test_criterion_7_determinism_round_trip(tmp_path):
    assert len(GOLDEN_SPECS) >= 10
    for idx, argv in enumerate(GOLDEN_SPECS):
        outputs = []
        for run_idx in (0, 1):
            path = tmp_path / f"golden_{idx}_{run_idx}"
            code = cli.main(argv + ["--output", str(path)])
            assert code == 0, argv
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], argv
    # serialized report re-parses into an equal LeafReport
    xs = element(GL2, (1, 0), simple_element(GL2, 1).finite)
    report = leaf_report(GL2, xs)
    row = serialize.leaf_report_row(report)
    assert serialize.leaf_report_from_row(GL2, row) == report


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def test_golden_artifacts_pinned(tmp_path):
    # tests/golden/golden_NN.txt is the artifact of GOLDEN_SPECS[NN], written
    # once and checked in: a change that is consistent from run to run but
    # alters any artifact byte fails here
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == [
        f"golden_{idx:02d}.txt" for idx in range(len(GOLDEN_SPECS))]
    for idx, argv in enumerate(GOLDEN_SPECS):
        path = tmp_path / f"golden_{idx:02d}.txt"
        assert cli.main(argv + ["--output", str(path)]) == 0, argv
        assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes(), argv


_INTEGER_FLAGS = ("--p", "--depth", "--cap", "--length", "--count")


def test_golden_jobs_as_job_files(tmp_path):
    # every golden job, rewritten as its --spec file, writes the same bytes
    for idx, argv in enumerate(GOLDEN_SPECS):
        doc = {"command": argv[0]}
        for flag, value in zip(argv[1::2], argv[2::2]):
            if flag == "--element":
                doc.setdefault("elements", []).append(value)
            else:
                doc[flag[2:]] = int(value) if flag in _INTEGER_FLAGS else value
        path = tmp_path / f"golden_{idx:02d}.txt"
        doc["output"] = str(path)
        spec = tmp_path / f"job_{idx:02d}.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([argv[0], "--spec", str(spec)]) == 0, doc
        assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes(), doc

"""The four workloads: inputs drawn from a seed, one timed call per item,
and the checks that decide whether each item's output is right.

A workload is a fixed list of items (one "round").  The seed draws the
inputs and their order; the mix of item sizes is the same for every seed,
so throughput and latency percentiles compare across seeds.  Library
functions are looked up on their module at call time, so a traced run
sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from math import isqrt

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORKLOADS = ("census", "classes", "certify", "cli")

# work unit counted by throughput_per_s
WORK_UNITS = {"census": "lattices", "classes": "window elements",
              "certify": "certificates", "cli": "jobs"}

# Twisted sigma-class census: the cyclic coordinate rotation of GL3 (the
# graph automorphism used in the test suite) or its inverse.
ROTATIONS = {"rot": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
             "rot2": ((0, 1, 0), (0, 0, 1), (1, 0, 0))}

# GL3, mu = (1,0,0), depth 1, p in {2, 3}: ordinary and basic elements of
# equal cost; the seed draws one of each.
GL3_ORDINARY = tuple(({"lambda": list(lam), "w": "e"})
                     for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
GL3_BASIC = tuple(({"lambda": list(lam), "w": w})
                  for w in ("s1*s2", "s2*s1")
                  for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

# The cold CLI jobs: the acceptance suite's golden specs plus three heavy ones.
CLI_JOBS = (
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
    ["witt-selfcheck", "--p", "3", "--length", "4", "--count", "200"],
    ["classes", "--group", "GSp4", "--cap", "1"],
    ["adlv", "--matrix", "0,0,1;1,0,0;0,2,0", "--mu", "1,0,0", "--p", "2",
     "--depth", "2"],
)

CERTIFY_FAMILIES = ("diagonal_split", "diagonal_mixed", "companion_unit",
                    "companion_close_roots", "isoclinic")
CERTIFY_PER_STRATUM = 6


def load_reference(workload: str):
    if workload == "certify":
        return None  # every certify answer follows from its construction
    with open(os.path.join(REFERENCE_DIR, workload + ".json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


def import_library(root: str):
    """Cold import of the package from the checkout's ``src``."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import centralleaf  # noqa: F401
    from centralleaf import (affine, isocrystal, lattices, leaves, linalg,
                             rootdata, serialize)
    return {"affine": affine, "isocrystal": isocrystal, "lattices": lattices,
            "leaves": leaves, "linalg": linalg, "rootdata": rootdata,
            "serialize": serialize}


class Item:
    """One timed call: ``call()`` returns the output, ``check(out)`` returns
    a list of problems (empty when the output is right), ``work`` is the
    amount of work the item completes, in the workload's unit."""

    __slots__ = ("key", "call", "check", "work")

    def __init__(self, key, call, check, work):
        self.key, self.call, self.check, self.work = key, call, check, work


def element_key(x) -> str:
    """The benchmark's own encoding of an affine element."""
    return json.dumps([list(x.translation), [list(r) for r in x.finite]],
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# census: ADLV lattice censuses at hyperspecial level

def census_specs(lib, data, rng=None):
    """(key, group, element, mu, p, depth) of every census: the criterion-5
    GL2 grid (length <= 2 in [-2, 2]^2, p in {2, 3}, depth in {1, 2}) and
    GL3 depth-1 censuses for p in {2, 3}.  With an rng one ordinary and one
    basic GL3 element are drawn and the order is shuffled; without, all
    candidates."""
    affine, serialize = lib["affine"], lib["serialize"]
    specs = []
    for x in affine.enumerate_elements(data["GL2"], 2, 2):
        for p in (2, 3):
            for depth in (1, 2):
                specs.append(("GL2", x, (1, 0), p, depth))
    if rng is None:
        gl3 = GL3_ORDINARY + GL3_BASIC
    else:
        gl3 = (rng.choice(GL3_ORDINARY), rng.choice(GL3_BASIC))
    specs += [("GL3", serialize.element_from_doc(data["GL3"], doc), (1, 0, 0), p, 1)
              for doc in gl3 for p in (2, 3)]
    if rng is not None:
        rng.shuffle(specs)
    return [(f"{group} {element_key(x)} p={p} depth={depth}", group, x, mu, p, depth)
            for group, x, mu, p, depth in specs]


def census_data(lib):
    build = lib["rootdata"].build_classical
    return {"GL2": build("GL", 2), "GL3": build("GL", 3)}


def build_census(lib, rng, reference):
    affine, lattices, leaves = lib["affine"], lib["lattices"], lib["leaves"]
    serialize = lib["serialize"]
    data = census_data(lib)
    items = []
    for key, group, x, mu, p, depth in census_specs(lib, data, rng):
        datum = data[group]
        b = affine.rep_lift(x)
        expected = reference.get(key)

        def call(b=b, mu=mu, p=p, depth=depth):
            return lattices.adlv_points(b, mu, p, depth)

        def check(census, datum=datum, x=x, mu=mu, expected=expected):
            problems = []
            if any(tuple(pt.inv) != tuple(census.mu) for pt in census.points):
                problems.append("a point has inv != mu")
            if census.nonempty and not leaves.neutral_acceptable(datum, x, mu):
                problems.append("nonempty census of a non-acceptable element")
            if expected is None:
                problems.append("no pinned reference")
            else:
                if census.lattice_count != expected["lattices"]:
                    problems.append("lattice count differs from the reference")
                if [list(r) for r in serialize.adlv_rows(census)] != expected["rows"]:
                    problems.append("adlv_rows differ from the reference")
            return problems

        work = expected["lattices"] if expected is not None else 0
        items.append(Item(key, call, check, work))
    return items


# ---------------------------------------------------------------------------
# classes: sigma-conjugacy class censuses

def classes_specs(rng=None):
    """(key, group tag, rank, cap, sigma name, coord_bound)."""
    specs = [("GL3 cap=1", "GL", 3, 1, None, None),
             ("GL2 cap=2", "GL", 2, 2, None, None),
             ("GSp4 cap=1", "GSp", 4, 1, None, None)]
    sigmas = sorted(ROTATIONS) if rng is None else [rng.choice(sorted(ROTATIONS))]
    specs += [(f"GL3 cap=2 sigma={s} bound=2", "GL", 3, 2, s, 2) for s in sigmas]
    if rng is not None:
        rng.shuffle(specs)
    return specs


def canonical_partition(partition):
    return sorted(sorted(element_key(x) for x in block) for block in partition.blocks)


def build_classes(lib, rng, reference):
    affine, rootdata = lib["affine"], lib["rootdata"]
    items = []
    for key, tag, rank, cap, sigma_name, bound in classes_specs(rng):
        datum = rootdata.build_classical(tag, rank)
        sigma = ROTATIONS.get(sigma_name)
        expected = reference.get(key)

        def call(datum=datum, cap=cap, sigma=sigma, bound=bound):
            return affine.enumerate_sigma_classes(datum, cap, sigma=sigma,
                                                  coord_bound=bound)

        def check(partition, datum=datum, cap=cap, sigma=sigma, bound=bound,
                  expected=expected):
            problems = []
            window = affine.enumerate_elements(
                datum, cap, cap + 2 if bound is None else bound)
            covered = [element_key(x) for block in partition.blocks for x in block]
            if len(covered) != len(set(covered)) or \
                    set(covered) != {element_key(x) for x in window}:
                problems.append("blocks do not cover the window exactly once")
            for block in partition.blocks:
                invariants = {(affine.newton_point(x, sigma).dominant,
                               affine.kottwitz(x)) for x in block}
                if len(invariants) != 1:
                    problems.append("(nu, kappa) not constant on a block")
                    break
            if expected is None:
                problems.append("no pinned reference")
            elif canonical_partition(partition) != expected:
                problems.append("partition differs from the reference")
            return problems

        work = sum(len(b) for b in expected) if expected is not None else 0
        items.append(Item(key, call, check, work))
    return items


# ---------------------------------------------------------------------------
# certify: known-answer slope-divisibility certificates

def _unimodular(rng, n):
    """A small random element of GL_n(Z): elementary operations times a
    permutation."""
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        for k in range(n):
            g[i][k] += c * g[j][k]
    perm = list(range(n))
    rng.shuffle(perm)
    return [g[perm[i]] for i in range(n)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _mat_inv(m):
    """Exact inverse by Gauss-Jordan over Fractions (the benchmark's own)."""
    n = len(m)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _conjugate(g, m):
    return _mat_mul(_mat_mul(g, m), _mat_inv(g))


def _companion(coeffs):
    """Companion matrix of the monic x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    return [[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)]


def _p_integral(x, p):
    return Fraction(x).denominator % p != 0


def _diagonal_splits(g, exps, p):
    """The benchmark's own lattice-splitting membership test for
    T = g diag(p^e) g^-1: Z_p^n is the direct sum of its intersections with
    the eigenspaces exactly when every eigenprojector g E_e g^-1 maps Z_p^n
    into itself, i.e. has p-integral entries.  On each piece p^-e T is the
    identity, so splitting is the whole answer."""
    g_inv = _mat_inv(g)
    n = len(g)
    for e in set(exps):
        proj = [[sum(g[i][k] * g_inv[k][j] for k in range(n) if exps[k] == e)
                 for j in range(n)] for i in range(n)]
        if not all(_p_integral(v, p) for row in proj for v in row):
            return False
    return True


def _integer_roots(coeffs):
    """Integer roots of the monic polynomial (rational root test)."""
    c0 = coeffs[0]
    cands = {d for k in range(1, abs(c0) + 1) if c0 % k == 0 for d in (k, -k)} or {0}
    roots = []
    for r in cands:
        if sum(c * r ** i for i, c in enumerate(coeffs)) + r ** len(coeffs) == 0:
            roots.append(r)
    return roots


def _certify_case(family, n, p, rng, variant):
    """(matrix, expected answer, expected route) of one known-answer input.

    ``variant`` picks the polynomial shape where a family has several of
    different cost, so that every seed gets the same mix."""
    g = _unimodular(rng, n)
    if family in ("diagonal_split", "diagonal_mixed"):
        while True:
            exps = [rng.randrange(3) for _ in range(n)]
            if len(set(exps)) >= 2:
                break
        diag = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
        if family == "diagonal_mixed":
            # index-p change of basis gluing two pieces of different slope
            i, j = rng.sample(range(n), 2)
            while exps[i] == exps[j]:
                i, j = rng.sample(range(n), 2)
            h = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            h[i][j], h[j][j] = 1, p
            g = _mat_mul(g, h)
        expected = family == "diagonal_split"
        if _diagonal_splits(g, exps, p) != expected:
            raise AssertionError(f"{family}: membership test disagrees with construction")
        return _conjugate(g, diag), expected, "rational"
    if family == "companion_unit":
        # irreducible over Q, slopes {0, positive}: the slope factors have a
        # unit resultant, so the lattice splits; pieces are not Q-rational
        while True:
            if n == 2:
                coeffs = [p, rng.choice((1, -1))]
            else:  # slopes (1, 0, 0) or (1/2, 1/2, 0)
                coeffs = [p, rng.choice((1, -1)) if variant % 2 else 0,
                          rng.choice((1, -1))]
            if not _integer_roots(coeffs):
                break
        return _conjugate(g, _companion(coeffs)), True, "modpk"
    if family == "companion_close_roots":
        # x^2 + p u x + p^3 v: roots of valuation 1 and 2 whose difference has
        # valuation 1, so the slope pieces span an index-p sublattice
        while True:
            u, v = rng.choice((1, -1)), rng.choice((1, -1))
            disc = (p * u) ** 2 - 4 * p ** 3 * v
            if disc < 0 or isqrt(disc) ** 2 != disc:
                break
        return _conjugate(g, _companion([p ** 3 * v, p * u])), False, "modpk"
    if family == "isoclinic":
        # one slope: x^2 - p^2, x^2 - p, a unipotent with a 1/p entry, or
        # x^3 - c with v_p(c) in {1, 2} and c not a cube
        if n == 2:
            base = (_companion([-p * p, 0]), _companion([-p, 0]),
                    [[1, Fraction(1, p)], [0, 1]])[variant % 3]
        else:
            base = _companion([-(p, p * p, 6)[variant % 3], 0, 0])
        return _conjugate(g, base), True, "single_slope"
    raise ValueError(family)


def certify_cases(rng):
    """A fixed stratification (family x n x p, CERTIFY_PER_STRATUM each) with
    seed-drawn matrices; shuffled."""
    cases = []
    for family in CERTIFY_FAMILIES:
        sizes = (2,) if family == "companion_close_roots" else (2, 3)
        per = CERTIFY_PER_STRATUM * (2 if len(sizes) == 1 else 1)
        for n in sizes:
            for p in (2, 3):
                for variant in range(per):
                    matrix, answer, route = _certify_case(family, n, p, rng, variant)
                    cases.append((family, n, p, matrix, answer, route))
    rng.shuffle(cases)
    return cases


def build_certify(lib, rng, reference):
    isocrystal = lib["isocrystal"]
    from tracing import certify_route
    items = []
    for idx, (family, n, p, matrix, answer, route) in enumerate(certify_cases(rng)):
        iso = isocrystal.RationalIsocrystal(matrix, p)

        def call(iso=iso):
            return isocrystal.is_completely_slope_divisible(iso)

        def check(report, answer=answer, route=route):
            problems = []
            if bool(report.divisible) != answer:
                problems.append(f"answer {report.divisible}, expected {answer}")
            got = certify_route(report)
            if got != route:
                problems.append(f"route {got}, expected {route}")
            return problems

        items.append(Item(f"{family} n={n} p={p} #{idx}", call, check, 1))
    return items


# ---------------------------------------------------------------------------
# cli: cold-process jobs

def cli_key(argv) -> str:
    return " ".join(argv)


def cli_jobs(rng=None):
    jobs = [list(j) for j in CLI_JOBS]
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build(workload: str, lib, seed: int, reference):
    """The round of items for an in-process workload."""
    make = {"census": build_census, "classes": build_classes,
            "certify": build_certify}[workload]
    return make(lib, random.Random(seed), reference)

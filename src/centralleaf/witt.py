"""Truncated Witt vectors over exact coefficient rings, and Dieudonne
display construction/checking at the residue-field base point.

Witt structure polynomials are derived once per (p, length) by solving the
ghost equations over Z on sparse integer polynomials: p^i S_i is the
residual of the i-th ghost equation, which must be divisible by p^i.  The
solutions are cached; no tables are hard coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (ConfigurationError, ConsistencyError, DatumMismatchError,
                     NotPDivisibleError, PreconditionError)
from .isocrystal import MonomialIsocrystal, slopes_monomial

# ---------------------------------------------------------------------------
# sparse integer polynomials {exponent tuple: coefficient}

Poly = Dict[Tuple[int, ...], int]


def _pvar(nvars: int, index: int) -> Poly:
    key = tuple(1 if i == index else 0 for i in range(nvars))
    return {key: 1}


def _padd(a: Poly, b: Poly, scale: int = 1) -> Poly:
    """a + scale * b."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + scale * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _ppow(a: Poly, e: int) -> Poly:
    """a^e for e >= 1, by repeated squaring."""
    if e == 1:
        return a
    half = _ppow(_pmul(a, a), e // 2)
    return _pmul(half, a) if e & 1 else half


def _ghost(p: int, comps: Sequence[Poly], i: int) -> Poly:
    out: Poly = {}
    for j in range(i + 1):
        out = _padd(out, _ppow(comps[j], p ** (i - j)), p ** j)
    return out


def _solve_components(p: int, targets: Sequence[Poly]) -> List[Poly]:
    """Solve ghost_i(S) = targets[i] for S_0..S_{m-1} over Z.

    p^i S_i = targets[i] - sum_{j<i} p^j S_j^(p^(i-j)); a coefficient of
    that residual not divisible by p^i means S_i is not integral.
    """
    solution: List[Poly] = []
    for i, target in enumerate(targets):
        residual = target
        for j in range(i):
            residual = _padd(residual, _ppow(solution[j], p ** (i - j)), -p ** j)
        q = p ** i
        if any(c % q for c in residual.values()):
            raise ConsistencyError(
                "Witt structure polynomial has a fractional coefficient")
        solution.append({k: c // q for k, c in residual.items()})
    return solution


_STRUCTURE_CACHE: Dict[Tuple[int, int], Dict[str, List[Poly]]] = {}


def structure_polynomials(p: int, m: int) -> Dict[str, List[Poly]]:
    """Universal Witt polynomials for length m at the prime p.

    Keys: 'add', 'mul', 'neg' in 2m / m variables, and 'frob' giving the
    Frobenius components F_0..F_{m-2} (length drops by one).
    """
    cached = _STRUCTURE_CACHE.get((p, m))
    if cached is not None:
        return cached
    nvars = 2 * m
    xs = [_pvar(nvars, i) for i in range(m)]
    ys = [_pvar(nvars, m + i) for i in range(m)]
    gx = [_ghost(p, xs, i) for i in range(m)]
    gy = [_ghost(p, ys, i) for i in range(m)]
    add = _solve_components(p, [_padd(a, b) for a, b in zip(gx, gy)])
    mul = _solve_components(p, [_pmul(a, b) for a, b in zip(gx, gy)])
    xs1 = [_pvar(m, i) for i in range(m)]
    gx1 = [_ghost(p, xs1, i) for i in range(m)]
    neg = _solve_components(p, [_padd({}, g, -1) for g in gx1])
    frob = _solve_components(p, gx1[1:]) if m > 1 else []
    result = {"add": add, "mul": mul, "neg": neg, "frob": frob}
    _STRUCTURE_CACHE[(p, m)] = result
    return result


# ---------------------------------------------------------------------------
# coefficient rings

def _modulus(p: int, k: int) -> int:
    if k < 1:
        raise ConfigurationError(
            f"coefficient exponent must be at least 1, got {k}")
    return p ** k


@dataclass(frozen=True)
class ZModRing:
    """Integers modulo p^k; elements are plain ints in [0, p^k)."""

    p: int
    k: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", _modulus(self.p, self.k))

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1


@dataclass(frozen=True)
class NilpotentPolyRing:
    """(Z/p^k)[x_1..x_n] with each variable nilpotent: x_i^trunc[i] = 0.

    Elements are canonical tuples of (exponent tuple, coefficient) pairs,
    sorted by exponents, zero coefficients dropped.
    """

    p: int
    k: int
    truncations: Tuple[int, ...]
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", _modulus(self.p, self.k))

    def _norm(self, mapping) -> tuple:
        items = []
        for exps, c in mapping.items():
            if any(e >= t for e, t in zip(exps, self.truncations)):
                continue
            c %= self.modulus
            if c:
                items.append((exps, c))
        return tuple(sorted(items))

    def from_int(self, n: int) -> tuple:
        zero_key = tuple(0 for _ in self.truncations)
        return self._norm({zero_key: n})

    def variable(self, i: int) -> tuple:
        key = tuple(1 if j == i else 0 for j in range(len(self.truncations)))
        return self._norm({key: 1})

    def add(self, a: tuple, b: tuple) -> tuple:
        return self._norm(_padd(dict(a), dict(b)))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self._norm(_pmul(dict(a), dict(b)))

    def neg(self, a: tuple) -> tuple:
        return self._norm({exps: -c for exps, c in a})

    def zero(self) -> tuple:
        return ()

    def one(self) -> tuple:
        return self.from_int(1)


# ---------------------------------------------------------------------------
# Witt vectors

@dataclass(frozen=True)
class WittVector:
    ring: object
    prime: int
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ConfigurationError("Witt vector needs at least one component")

    @property
    def length(self) -> int:
        return len(self.components)


def witt(ring, p: int, components) -> WittVector:
    return WittVector(ring, p, tuple(ring.from_int(c) if isinstance(c, int) else c
                                     for c in components))


def _check_compatible(a: WittVector, b: WittVector):
    if a.ring != b.ring or a.prime != b.prime or a.length != b.length:
        raise DatumMismatchError("Witt vectors over different rings or lengths")


def _evaluate(op: str, *vectors: WittVector) -> WittVector:
    """All components of the structure polynomials of op, evaluated at the
    concatenated components of the vectors.

    One table of powers per variable serves every component; it grows on
    demand by one ring product per power.
    """
    a = vectors[0]
    ring = a.ring
    powers = [[ring.one(), c] for v in vectors for c in v.components]
    out = []
    for poly in structure_polynomials(a.prime, a.length)[op]:
        total = ring.zero()
        for exps, coeff in poly.items():
            term = ring.from_int(coeff)
            for row, e in zip(powers, exps):
                if e:
                    while len(row) <= e:
                        row.append(ring.mul(row[-1], row[1]))
                    term = ring.mul(term, row[e])
            total = ring.add(total, term)
        out.append(total)
    return WittVector(ring, a.prime, tuple(out))


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    return _evaluate("add", a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    return _evaluate("mul", a, b)


def witt_neg(a: WittVector) -> WittVector:
    return _evaluate("neg", a)


def witt_frobenius(a: WittVector) -> WittVector:
    """Witt Frobenius; the truncated length drops by one."""
    if a.length < 2:
        raise PreconditionError("Frobenius needs length at least 2")
    return _evaluate("frob", a)


def witt_verschiebung(a: WittVector) -> WittVector:
    """Shift: (a_0, ..., a_{m-1}) -> (0, a_0, ..., a_{m-2})."""
    return WittVector(a.ring, a.prime,
                      (a.ring.zero(),) + a.components[:-1])


def witt_ghost(a: WittVector) -> tuple:
    """Ghost components w_i = sum p^j a_j^{p^(i-j)}, evaluated in the ring."""
    ring, p = a.ring, a.prime
    powers, out = [], []
    for comp in a.components:
        # a_j^{p^(i-j)} for j <= i
        powers = [reduce(ring.mul, (x,) * p) for x in powers] + [comp]
        out.append(reduce(ring.add, (ring.mul(ring.from_int(p ** j), x)
                                     for j, x in enumerate(powers))))
    return tuple(out)


def witt_zero(ring, p: int, m: int) -> WittVector:
    return WittVector(ring, p, tuple(ring.zero() for _ in range(m)))


def witt_one(ring, p: int, m: int) -> WittVector:
    return WittVector(ring, p, (ring.one(),) + tuple(ring.zero() for _ in range(m - 1)))


def witt_from_int(ring, p: int, m: int, n: int) -> WittVector:
    """Image of the integer n in the truncated Witt ring (double and add)."""
    if n < 0:
        return witt_neg(witt_from_int(ring, p, m, -n))
    result = witt_zero(ring, p, m)
    addend = witt_one(ring, p, m)
    while n:
        if n & 1:
            result = witt_add(result, addend)
        n >>= 1
        if n:
            addend = witt_add(addend, addend)
    return result


def witt_scalar(a: WittVector, n: int) -> WittVector:
    return witt_mul(witt_from_int(a.ring, a.prime, a.length, n), a)


def witt_arith(op: str, *args):
    """Dispatcher: op in {add, mul, neg, F, V, ghost}."""
    table = {"add": witt_add, "mul": witt_mul, "neg": witt_neg,
             "F": witt_frobenius, "V": witt_verschiebung, "ghost": witt_ghost}
    if op not in table:
        raise PreconditionError(f"unknown Witt operation {op!r}")
    return table[op](*args)


def truncate(a: WittVector, m: int) -> WittVector:
    if m > a.length:
        raise PreconditionError("cannot extend a Witt vector by truncation")
    return WittVector(a.ring, a.prime, a.components[:m])


# ---------------------------------------------------------------------------
# Teichmuller digits: W_m(F_p) = Z/p^m

def teichmuller(a: int, p: int, m: int) -> int:
    """The Teichmuller representative of a mod p inside Z/p^m."""
    q = p ** m
    t = a % q
    for _ in range(m + 1):
        t = pow(t, p, q)
    return t


def witt_digits_of_int(x: int, p: int, m: int) -> Tuple[int, ...]:
    """Witt coordinates over F_p of an integer mod p^m (inverse of
    int_of_witt_digits); realises W_m(F_p) = Z/p^m."""
    digits = []
    y = x % (p ** m)
    for i in range(m):
        level = m - i
        d = y % p
        digits.append(d)
        y = (y - teichmuller(d, p, level)) % (p ** level)
        if y % p != 0:
            raise ConsistencyError("Teichmuller digit extraction failed")
        y //= p
    return tuple(digits)


def int_of_witt_digits(digits: Sequence[int], p: int) -> int:
    m = len(digits)
    q = p ** m
    return sum(p ** i * teichmuller(d, p, m - i) for i, d in enumerate(digits)) % q


# ---------------------------------------------------------------------------
# Dieudonne displays at the residue-field base point

@dataclass(frozen=True)
class DisplayDatum:
    """Display data over W_level(F_p) = Z/p^level.

    M is free of rank n with the identity basis; M1 is presented by the
    column span of m1_columns plus p*M; phi and phi1 are the matrices of
    the sigma-linear maps (sigma acts trivially on the prime field model),
    with phi1 given on the m1_columns generators.
    """

    prime: int
    level: int
    rank: int
    m1_columns: Tuple[Tuple[int, ...], ...]
    phi: Tuple[Tuple[int, ...], ...]
    phi1: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class DisplayReport:
    contains_ir: bool
    quotient_free: bool
    phi_compatible: bool
    phi1_generates: bool
    psi_matrix: Optional[Tuple[Tuple[int, ...], ...]]
    psi_invertible: bool
    hodge_rank: Optional[int]
    witness: Optional[int]

    @property
    def passed(self) -> bool:
        return (self.contains_ir and self.quotient_free
                and self.phi_compatible and self.phi1_generates)


def display_from_element(b: MonomialIsocrystal, p: int, level: int = 3) -> DisplayDatum:
    """Display (M, M1=(b sigma)^-1 M, Phi=p b sigma, Phi1=b sigma) of a
    monomial element in the p-divisible-group window.

    Slopes must lie in [-1, 0]; additionally every exponent must lie in
    {-1, 0} so that (b sigma)^-1 M sits inside M and p*b is integral at the
    standard lattice (otherwise the element defines no display on it).
    """
    slopes = slopes_monomial(b)
    if any(s < -1 or s > 0 for s in slopes):
        raise NotPDivisibleError(
            f"slopes {slopes} leave the p-divisible-group window [-1, 0]")
    if any(e < -1 or e > 0 for e in b.exponents):
        raise NotPDivisibleError(
            "standard lattice is not display-compatible: (b sigma)^-1 M is "
            "not contained in M (or p*Phi1 is not integral)")
    n = b.size
    q = p ** level
    m1_cols = []
    phi1_cols = []
    for j in range(n):
        target_row = b.permutation[j]
        col = [0] * n
        col[j] = p ** (-b.exponents[j])
        m1_cols.append(tuple(c % q for c in col))
        image = [0] * n
        image[target_row] = 1
        phi1_cols.append(tuple(image))
    phi = [[0] * n for _ in range(n)]
    for j in range(n):
        phi[b.permutation[j]][j] = p ** (1 + b.exponents[j]) % q
    m1_matrix = linalg.freeze([[m1_cols[j][i] for j in range(n)] for i in range(n)])
    phi1_matrix = linalg.freeze([[phi1_cols[j][i] for j in range(n)] for i in range(n)])
    datum = DisplayDatum(p, level, n, m1_matrix, linalg.freeze(phi), phi1_matrix)
    report = display_check(datum)
    if not report.passed:
        raise ConsistencyError("constructed display failed its own axioms")
    return datum


def display_check(d: DisplayDatum) -> DisplayReport:
    """Check the four display axioms at truncation and linearise Phi1.

    Returns a report rather than raising: each axiom gets its own flag, a
    failing p*Phi1 = Phi comparison also reports a witness column.  The
    linearisation Psi is computed only when all four axioms hold; otherwise
    it is reported as None and not invertible.
    """
    p, n, q = d.prime, d.rank, d.prime ** d.level
    if len(d.phi) != n or len(d.m1_columns) != n or \
            len(d.phi1[0]) != len(d.m1_columns[0]):
        raise ConfigurationError("display matrices have inconsistent shapes")
    m1_cols = [tuple(d.m1_columns[i][j] for i in range(n)) for j in range(len(d.m1_columns[0]))]
    gens = m1_cols + [tuple(p * (1 if i == j else 0) for i in range(n)) for j in range(n)]
    padded = gens + [tuple(q * (1 if i == j else 0) for i in range(n)) for j in range(n)]
    basis = linalg.hnf_columns([[col[i] for col in padded] for i in range(n)])

    basis_cols = linalg.transpose(basis)
    contains_ir = all(
        linalg.solve_triangular(basis_cols, tuple(p * (1 if i == j else 0)
                                                  for i in range(n))) is not None
        for j in range(n))

    # basis contains p^level Z^n, so every elementary divisor is a power of p
    exps = linalg.local_exponents(basis, p)
    quotient_free = all(e <= 1 for e in exps)
    hodge_rank = exps.count(1) if quotient_free else None

    phi_compatible = True
    witness = None
    for j, col in enumerate(m1_cols):
        lhs = tuple(p * d.phi1[i][j] % q for i in range(n))
        rhs = tuple(sum(d.phi[i][k] * col[k] for k in range(n)) % q for i in range(n))
        if lhs != rhs:
            phi_compatible = False
            witness = j
            break

    # rank mod p of [Phi1 | Phi] is its number of p-adic unit exponents
    images = [list(r1) + list(r) for r1, r in zip(d.phi1, d.phi)]
    phi1_generates = linalg.local_exponents(images, p).count(0) == n

    # off a display Psi would depend on which solution of the generator
    # system the Smith transform returns
    psi_matrix = None
    psi_invertible = False
    if contains_ir and quotient_free and phi_compatible and phi1_generates:
        psi_cols = []
        for j in range(n):
            target = [basis[i][j] for i in range(n)]
            sol = linalg.solve_mod(gens, target, q)
            if sol is None:
                raise ConsistencyError("basis vector not expressible in generators")
            image = [0] * n
            for g_idx, coeff in enumerate(sol):
                if coeff % q == 0:
                    continue
                if g_idx < len(m1_cols):
                    gen_image = [d.phi1[i][g_idx] for i in range(n)]
                else:
                    gen_image = [d.phi[i][g_idx - len(m1_cols)] for i in range(n)]
                image = [(a + coeff * b) % q for a, b in zip(image, gen_image)]
            psi_cols.append(tuple(image))
        psi_matrix = linalg.freeze([[psi_cols[j][i] for j in range(n)]
                                    for i in range(n)])
        psi_invertible = linalg.local_exponents(psi_matrix, p).count(0) == n

    return DisplayReport(contains_ir, quotient_free, phi_compatible,
                         phi1_generates, psi_matrix, psi_invertible,
                         hodge_rank, witness)


def display_doc(d: DisplayDatum) -> dict:
    """Structured-text form of a display: every matrix entry expanded into
    its Witt components over the prime field."""
    def witt_matrix(m):
        return [[list(witt_digits_of_int(x, d.prime, d.level)) for x in row]
                for row in m]

    return {"prime": d.prime, "level": d.level, "rank": d.rank,
            "m1_columns": witt_matrix(d.m1_columns),
            "phi": witt_matrix(d.phi),
            "phi1": witt_matrix(d.phi1)}


def display_from_doc(doc: dict) -> DisplayDatum:
    p, level = int(doc["prime"]), int(doc["level"])

    def int_matrix(rows):
        return linalg.freeze(
            tuple(int_of_witt_digits(entry, p) for entry in row) for row in rows)

    return DisplayDatum(p, level, int(doc["rank"]),
                        int_matrix(doc["m1_columns"]),
                        int_matrix(doc["phi"]),
                        int_matrix(doc["phi1"]))

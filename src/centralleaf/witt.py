"""Truncated Witt vectors over exact coefficient rings, and Dieudonne
display construction/checking at the residue-field base point.

One ghost-equation solver serves every Witt operation: p^i S_i is the
residual of the i-th ghost equation, which must be divisible by p^i.  Over
sparse integer polynomials it derives the structure polynomials; on Witt
vectors over Z/p^k or a nilpotent polynomial ring it runs in the same ring
at precision p^(k+m-1) and reduces the solution mod p^k.  No tables are
hard coded.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (BudgetExceededError, ConfigurationError, ConsistencyError,
                     DatumMismatchError, NotPDivisibleError, PreconditionError)
from .slopes import MonomialIsocrystal, slopes_monomial

# ---------------------------------------------------------------------------
# sparse integer polynomials {exponent tuple: coefficient}

Poly = Dict[Tuple[int, ...], int]
# summed len(a)*len(b) of one derivation's products; (2, 6) needs 1.6M
_DERIVATION_BUDGET = 2_000_000


def _pvar(nvars: int, index: int) -> Poly:
    key = tuple(1 if i == index else 0 for i in range(nvars))
    return {key: 1}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
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


class _IntPolys:
    """Z[x_1..x_n] on sparse polynomials, with exact division or None;
    mul charges len(a)*len(b) against _DERIVATION_BUDGET."""

    def __init__(self, nvars: int):
        self.nvars, self.spent = nvars, 0

    def from_int(self, n: int) -> Poly:
        return {(0,) * self.nvars: n} if n else {}

    def add(self, a: Poly, b: Poly) -> Poly:
        return _padd(a, b)

    def mul(self, a: Poly, b: Poly) -> Poly:
        self.spent += len(a) * len(b)
        if self.spent > _DERIVATION_BUDGET:
            raise BudgetExceededError("Witt structure polynomials exceed their budget")
        return _pmul(a, b)

    def divide(self, a: Poly, q: int) -> Optional[Poly]:
        if any(c % q for c in a.values()):
            return None
        return {k: c // q for k, c in a.items()}


def _power(ring, x, p: int):
    """x^p in ring, multiplied left to right."""
    y = x
    for _ in range(p - 1):
        y = ring.mul(y, x)
    return y


def _weighted_sum(ring, weights: Sequence, terms: Sequence, start=None):
    """start + sum_j weights[j] * terms[j] in ring, added left to right
    (without start, from the first product)."""
    total = start
    for weight, term in zip(weights, terms):
        product = ring.mul(weight, term)
        total = product if total is None else ring.add(total, product)
    return total


def _ghosts(ring, p: int, comps: Sequence) -> List:
    """Ghost components w_i = sum_{j<=i} p^j comps_j^(p^(i-j)) in ring."""
    weights = [ring.from_int(p ** j) for j in range(len(comps))]
    powers, out = [], []
    for comp in comps:
        powers = [_power(ring, x, p) for x in powers] + [comp]
        out.append(_weighted_sum(ring, weights, powers))
    return out


def _solve_components(ring, p: int, targets: Sequence) -> List:
    """Solve ghost_i(S) = targets[i] for S_0..S_{m-1} in ring.

    p^i S_i is the residual targets[i] - sum_{j<i} p^j S_j^(p^(i-j)); a
    residual that ring.divide cannot divide by p^i means S_i is not integral.
    """
    weights = [ring.from_int(-p ** j) for j in range(len(targets))]
    powers, solution = [], []
    for i, target in enumerate(targets):
        powers = [_power(ring, x, p) for x in powers]
        residual = _weighted_sum(ring, weights, powers, target)
        s = ring.divide(residual, p ** i)
        if s is None:
            raise ConsistencyError(
                "Witt structure polynomial has a fractional coefficient")
        solution.append(s)
        powers.append(s)
    return solution


def _combine(ring, op: str, gx: Sequence, gy: Sequence = ()) -> List:
    """Ghost components of op applied to vectors with ghosts gx (and gy);
    'frob' shifts, so the length drops by one."""
    if op == "add":
        return [ring.add(x, y) for x, y in zip(gx, gy)]
    if op == "mul":
        return [ring.mul(x, y) for x, y in zip(gx, gy)]
    if op == "neg":
        return [ring.mul(ring.from_int(-1), x) for x in gx]
    return gx[1:]


def structure_polynomials(p: int, m: int) -> Dict[str, List[Poly]]:
    """Universal Witt polynomials for length m at the prime p.

    Keys: 'add', 'mul', 'neg' in 2m / m variables, and 'frob' giving the
    Frobenius components F_0..F_{m-2} (length drops by one).  Raises
    BudgetExceededError past _DERIVATION_BUDGET.
    """
    ring = _IntPolys(2 * m)
    gx = _ghosts(ring, p, [_pvar(2 * m, i) for i in range(m)])
    gy = _ghosts(ring, p, [_pvar(2 * m, m + i) for i in range(m)])
    result = {op: _solve_components(ring, p, _combine(ring, op, gx, gy))
              for op in ("add", "mul", "neg", "frob")}
    for op in ("neg", "frob"):  # these involve only X_0..X_{m-1}
        result[op] = [{e[:m]: c for e, c in s.items()} for s in result[op]]
    return result


# ---------------------------------------------------------------------------
# coefficient rings

def _modulus(p: int, k: int) -> int:
    linalg.require_prime(p)
    if k < 1:
        raise ConfigurationError(
            f"coefficient exponent must be at least 1, got {k}")
    return p ** k


class _Ring:
    """A coefficient ring whose parameters ``_fields`` (p and k first) make
    its equality, hash and repr; ``modulus`` = p^k and ``_lifts``, the
    copies ``_solve_lifted`` makes, are derived.  Nothing is assignable."""

    __slots__ = ("modulus", "_lifts")
    _fields: Tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "modulus", _modulus(self.p, self.k))
        object.__setattr__(self, "_lifts", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ZModRing(_Ring):
    """Integers modulo p^k; elements are plain ints in [0, p^k)."""

    __slots__ = _fields = ("p", "k")

    def __init__(self, p: int, k: int):
        super().__init__(p, k)

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def divide(self, a: int, q: int) -> Optional[int]:
        return None if a % q else a // q

    def zero(self) -> int:
        return 0


class NilpotentPolyRing(_Ring):
    """(Z/p^k)[x_1..x_n] with each variable nilpotent: x_i^trunc[i] = 0.

    Elements are canonical tuples of (exponent tuple, coefficient) pairs,
    sorted by exponents, zero coefficients dropped.
    """

    __slots__ = _fields = ("p", "k", "truncations")

    def __init__(self, p: int, k: int, truncations: Tuple[int, ...]):
        super().__init__(p, k, truncations)

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

    def divide(self, a: tuple, q: int) -> Optional[tuple]:
        if any(c % q for _, c in a):
            return None
        return tuple((exps, c // q) for exps, c in a)

    def zero(self) -> tuple:
        return ()

    def one(self) -> tuple:
        return self.from_int(1)


# ---------------------------------------------------------------------------
# Witt vectors

class WittVector(NamedTuple("WittVector", [("ring", object), ("components", tuple)])):
    """A truncated Witt vector over ring, at the ring's prime ring.p."""

    __slots__ = ()

    def __new__(cls, ring, components: tuple):
        if not components:
            raise ConfigurationError("Witt vector needs at least one component")
        return super().__new__(cls, ring, components)

    @property
    def length(self) -> int:
        return len(self.components)


def witt(ring, components) -> WittVector:
    return WittVector(ring, tuple(ring.from_int(c) if isinstance(c, int) else c
                                  for c in components))


def _solve_lifted(ring, m: int, targets) -> WittVector:
    """The Witt vector of length m over ring whose ghost components are
    targets(lift), lift being ring at precision p^(k+m-1).

    Reduction to p^k is a ring map and solving for component i divides by
    p^i, so every component is exact mod p^k.
    """
    # made once per ring and length: the copy costs more than a small operation
    lift = ring._lifts.get(m)
    if lift is None:
        lift = ring._lifts[m] = type(ring)(ring.p, ring.k + m - 1, *ring._values()[2:])
    comps = _solve_components(lift, ring.p, targets(lift))
    # adding zero in ring reduces a lifted component mod p^k
    return WittVector(ring, tuple(ring.add(ring.zero(), c) for c in comps))


def _operate(op: str, a: WittVector, *others: WittVector) -> WittVector:
    """op on Witt vectors, through their ghost components in the lift."""
    if any((b.ring, b.length) != (a.ring, a.length) for b in others):
        raise DatumMismatchError("Witt vectors over different rings or lengths")

    def targets(lift):
        return _combine(lift, op, *(_ghosts(lift, lift.p, v.components)
                                    for v in (a,) + others))
    return _solve_lifted(a.ring, a.length, targets)


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return _operate("add", a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return _operate("mul", a, b)


def witt_neg(a: WittVector) -> WittVector:
    return _operate("neg", a)


def witt_frobenius(a: WittVector) -> WittVector:
    """Witt Frobenius; the truncated length drops by one."""
    if a.length < 2:
        raise PreconditionError("Frobenius needs length at least 2")
    return _operate("frob", a)


def witt_verschiebung(a: WittVector) -> WittVector:
    """Shift: (a_0, ..., a_{m-1}) -> (0, a_0, ..., a_{m-2})."""
    return WittVector(a.ring, (a.ring.zero(),) + a.components[:-1])


def witt_ghost(a: WittVector) -> tuple:
    """Ghost components w_i = sum p^j a_j^{p^(i-j)}, evaluated in the ring."""
    return tuple(_ghosts(a.ring, a.ring.p, a.components))


def witt_from_int(ring, m: int, n: int) -> WittVector:
    """Image of the integer n in the truncated Witt ring: every ghost
    component is n."""
    return _solve_lifted(ring, m, lambda lift: [lift.from_int(n)] * m)


def witt_scalar(a: WittVector, n: int) -> WittVector:
    return witt_mul(witt_from_int(a.ring, a.length, n), a)


def truncate(a: WittVector, m: int) -> WittVector:
    if m > a.length:
        raise PreconditionError("cannot extend a Witt vector by truncation")
    return WittVector(a.ring, a.components[:m])


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

class DisplayDatum(NamedTuple):
    """Display data over W_level(F_p) = Z/p^level.

    M is free of rank n = len(phi) with the identity basis; M1 is presented
    by the column span of m1_columns plus p*M; phi and phi1 are the matrices
    of the sigma-linear maps (sigma acts trivially on the prime field
    model), with phi1 given on the m1_columns generators.
    """

    prime: int
    level: int
    m1_columns: Tuple[Tuple[int, ...], ...]
    phi: Tuple[Tuple[int, ...], ...]
    phi1: Tuple[Tuple[int, ...], ...]


class DisplayReport(NamedTuple):
    """What ``display_check`` reads off a ``DisplayDatum``; every field is
    a function of the display, not of how its generators are listed, except
    ``witness``, the index of the first m1_columns generator on which
    p*Phi1 = Phi fails.  ``hodge_rank`` is the dimension of M/M1 over F_p,
    the number of elementary divisors p of M1 in M."""

    phi_compatible: bool
    phi1_generates: bool
    hodge_rank: int
    witness: Optional[int]

    @property
    def passed(self) -> bool:
        return self.phi_compatible and self.phi1_generates


def display_from_element(b: MonomialIsocrystal, p: int, level: int = 3) -> DisplayDatum:
    """Display (M, M1=(b sigma)^-1 M, Phi=p b sigma, Phi1=b sigma) of a
    monomial element in the p-divisible-group window.

    Slopes must lie in [-1, 0]; additionally every exponent must lie in
    {-1, 0} so that (b sigma)^-1 M sits inside M and p*b is integral at the
    standard lattice (otherwise the element defines no display on it).
    """
    q = _modulus(p, level)
    slopes = slopes_monomial(b)
    if any(s < -1 or s > 0 for s in slopes):
        raise NotPDivisibleError(
            f"slopes {slopes} leave the p-divisible-group window [-1, 0]")
    if any(e < -1 or e > 0 for e in b.exponents):
        raise NotPDivisibleError(
            "standard lattice is not display-compatible: (b sigma)^-1 M is "
            "not contained in M (or p*Phi1 is not integral)")
    n, perm, exps = b.size, b.permutation, b.exponents

    def monomial(rows, entry):
        """The n x n matrix with entry(j) at (rows[j], j), zero elsewhere."""
        return linalg.freeze([[entry(j) if rows[j] == i else 0 for j in range(n)]
                              for i in range(n)])

    datum = DisplayDatum(p, level, monomial(range(n), lambda j: p ** -exps[j] % q),
                         monomial(perm, lambda j: p ** (1 + exps[j]) % q),
                         monomial(perm, lambda j: 1))
    report = display_check(datum)
    if not report.passed:
        raise ConsistencyError("constructed display failed its own axioms")
    return datum


def display_check(d: DisplayDatum) -> DisplayReport:
    """Check the two display axioms at truncation.

    M1 = span(m1_columns) + p*M holds I_R*M, and M/M1 is killed by p, so a
    report, not an exception, flags p*Phi1 = Phi on M1 (with a witness
    column when it fails) and that Phi1(M1) generates M.  Level and prime
    are refused as the coefficient ring Z/p^level refuses them, and so are
    an empty display and matrices of the wrong shape: phi n by n, phi1 and
    m1_columns n rows as long as the first row of m1_columns.
    """
    p, n, q = d.prime, len(d.phi), _modulus(d.prime, d.level)
    if n == 0:
        raise ConfigurationError("a display needs rank at least 1")
    if len(d.phi1) != n or len(d.m1_columns) != n or \
            any(len(row) != n for row in d.phi) or \
            any(len(row) != len(d.m1_columns[0]) for row in (*d.m1_columns, *d.phi1)):
        raise ConfigurationError("display matrices have inconsistent shapes")
    # p*M lies in M1, so every elementary divisor of M1 is 1 or p
    hodge_rank = linalg.local_exponents(
        [list(row) + [p * (i == j) for j in range(n)]
         for i, row in enumerate(d.m1_columns)], p).count(1)

    phi_compatible = True
    witness = None
    m1_cols = [tuple(d.m1_columns[i][j] for i in range(n)) for j in range(len(d.m1_columns[0]))]
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
    return DisplayReport(phi_compatible, phi1_generates, hodge_rank, witness)

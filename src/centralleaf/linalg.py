"""Exact linear algebra helpers: rational elimination, normal forms, valuations.

Matrices are tuples of row tuples with int or Fraction entries.  The
p-adic elementary-divisor exponents of an integer matrix (all the ADLV
census reads per lattice) are computed here with integer row operations
only; full Smith and Hermite forms with their transforms are still
delegated to sympy.  Everything rational is eliminated by hand with
Fraction arithmetic, so no floats ever appear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors, smith_normal_decomp

from .errors import SingularInputError

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Tuple[Fraction, ...], ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, m: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def mat_pow(m: Matrix, k: int) -> Matrix:
    n = len(m)
    result = identity(n)
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * result


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse over Q; raises SingularInputError when singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularInputError("matrix is singular over Q")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return freeze(row[n:] for row in aug)


def solve_columns(columns: Sequence[Sequence], target: Sequence) -> Optional[tuple]:
    """Solve sum_j x_j * columns[j] = target exactly over Q.

    Returns the coefficient tuple when a solution exists and is unique
    (columns linearly independent), None when the system is inconsistent.
    Raises SingularInputError when the columns are dependent.
    """
    if not columns:
        return () if all(x == 0 for x in target) else None
    n = len(columns[0])
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularInputError("dependent columns in solve_columns")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
    # Rows below the pivot block must vanish for consistency.
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    return tuple(aug[i][k] for i in range(row))


def charpoly(m: Matrix) -> Tuple[Fraction, ...]:
    """Monic characteristic polynomial coefficients (c_0, ..., c_n), c_n = 1."""
    sym = SymMatrix([[x for x in row] for row in m])
    poly = sym.charpoly()
    coeffs = poly.all_coeffs()  # leading first
    out = [Fraction(c.p, c.q) for c in reversed(coeffs)]
    return tuple(out)


def valuation(x, p: int) -> Optional[int]:
    """p-adic valuation of a rational; None for zero."""
    if x == 0:
        return None
    frac = Fraction(x)
    num, den = frac.numerator, frac.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def smith_with_transform(rows) -> Tuple[Tuple[int, ...], Matrix]:
    """Smith form of an integer matrix plus the left transform.

    Returns (divisors, S) with S*A*T diagonal; ``divisors`` has one entry
    per row of A (zeros padded when rank deficient).
    """
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    if nrows == 0 or len(a[0]) == 0 or all(x == 0 for r in a for x in r):
        return (0,) * nrows, identity(nrows)
    dm = DomainMatrix.from_Matrix(SymMatrix(a)).convert_to(ZZ)
    d, s, _t = smith_normal_decomp(dm)
    dmat = d.to_Matrix().tolist()
    smat = freeze(tuple(int(x) for x in row) for row in s.to_Matrix().tolist())
    divisors = []
    ncols = len(a[0])
    for i in range(nrows):
        divisors.append(abs(int(dmat[i][i])) if i < ncols else 0)
    return tuple(divisors), smat


def smith_full(rows) -> Tuple[Tuple[int, ...], Matrix, Matrix]:
    """Smith decomposition S*A*T = diag(divisors): returns (divisors, S, T)."""
    a = [list(map(int, r)) for r in rows]
    nrows, ncols = len(a), len(a[0])
    dm = DomainMatrix.from_Matrix(SymMatrix(a)).convert_to(ZZ)
    d, s, t = smith_normal_decomp(dm)
    dmat = d.to_Matrix().tolist()
    divisors = tuple(abs(int(dmat[i][i])) for i in range(min(nrows, ncols)))
    smat = freeze(tuple(int(x) for x in row) for row in s.to_Matrix().tolist())
    tmat = freeze(tuple(int(x) for x in row) for row in t.to_Matrix().tolist())
    return divisors, smat, tmat


def elementary_divisor_exponents(rows, p: int) -> Tuple[int, ...]:
    """p-adic elementary-divisor exponents of a nonsingular integer matrix.

    Over Z_p the matrix is equivalent to diag(p^e_1, ..., p^e_n); returns
    the e_i in decreasing order.  Each step pivots on an entry of least
    valuation and clears the pivot's column with row operations that scale
    rows only by p-adic units.  The pivot row's other entries then have at
    least the pivot's valuation, so column operations would clear them
    without touching the rest: the pivot's row and column are dropped.
    Raises SingularInputError when the matrix is singular.
    """
    work = [list(map(int, r)) for r in rows]
    exps = []
    while work:
        best_v = best_i = best_j = None
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                if x == 0:
                    continue
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if best_v is None or v < best_v:
                    best_v, best_i, best_j = v, i, j
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best_v is None:
            raise SingularInputError("matrix is singular")
        pivot_row = work.pop(best_i)
        scale = p ** best_v
        unit = pivot_row[best_j] // scale
        rest = [x for j, x in enumerate(pivot_row) if j != best_j]
        for i, row in enumerate(work):
            factor = row[best_j] // scale
            others = [x for j, x in enumerate(row) if j != best_j]
            if factor:
                others = [unit * x - factor * y for x, y in zip(others, rest)]
            work[i] = others
        exps.append(best_v)
    return tuple(sorted(exps, reverse=True))


def invariant_factors_int(rows) -> Tuple[int, ...]:
    """Nonzero invariant factors of an integer matrix, divisibility order."""
    dm = DomainMatrix.from_Matrix(SymMatrix([list(map(int, r)) for r in rows]))
    dm = dm.convert_to(ZZ)
    return tuple(abs(int(f)) for f in invariant_factors(dm))


def hnf_columns(rows) -> Matrix:
    """Canonical column-span Hermite form of an integer matrix.

    Upper triangular n x n with positive pivots and off-diagonal entries
    reduced into [0, pivot) within each row; requires full row rank.
    """
    h = hermite_normal_form(SymMatrix([list(map(int, r)) for r in rows]))
    out = freeze(tuple(int(x) for x in row) for row in h.tolist())
    n = len(rows)
    if len(out) != n or len(out[0]) != n:
        raise SingularInputError("lattice generators do not have full rank")
    return out


def triangular_membership(h: Matrix, v: Sequence[int]) -> bool:
    """Whether integer vector v lies in the column span of upper-triangular h."""
    n = len(h)
    residue = list(map(int, v))
    for i in range(n - 1, -1, -1):
        if residue[i] % h[i][i] != 0:
            return False
        q = residue[i] // h[i][i]
        for r in range(i + 1):
            residue[r] -= q * h[r][i]
    return True


def kernel_mod_prime_power(rows, p: int, k: int) -> Matrix:
    """Basis (columns) of the lattice {v : A v == 0 mod p^k}, containing p^k Z^m.

    Computed through an exact Smith decomposition of A; the result is the
    honest integer lattice, encoded by an m x m column matrix.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a[0])
    dm = DomainMatrix.from_Matrix(SymMatrix(a)).convert_to(ZZ)
    d, _s, t = smith_normal_decomp(dm)
    dmat = d.to_Matrix().tolist()
    tmat = [[int(x) for x in row] for row in t.to_Matrix().tolist()]
    q = p ** k
    scale = []
    for j in range(m):
        dj = int(dmat[j][j]) if j < len(dmat) else 0
        if dj == 0:
            scale.append(1)
        else:
            e = 0
            dj = abs(dj)
            while dj % p == 0:
                dj //= p
                e += 1
            scale.append(p ** max(0, k - e))
    cols = [[tmat[i][j] * scale[j] for i in range(m)] for j in range(m)]
    cols += [[q if i == j else 0 for i in range(m)] for j in range(m)]
    return hnf_columns([[col[i] for col in cols] for i in range(m)])

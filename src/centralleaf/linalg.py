"""Exact linear algebra: elimination, integer normal forms, valuations.

Matrices are tuples of row tuples with int or Fraction entries; no floats
ever appear.  Everything rational goes through one Gauss-Jordan routine
(``det``, ``mat_inv``, ``solve_columns``).  It clears rational input of
denominators once, eliminates fraction-free on Python ints (Bareiss) and
divides once at the end, so Fractions appear only in its results.  The
p-adic elementary-divisor exponents (all the ADLV census reads per
lattice) come from integer row operations that scale rows only by p-adic
units, closed by the gcd and determinant of a last 2x2 block; the same
pivot rule diagonalises over Z/p^k, with the transform and its inverse
(``eliminate_mod_prime_power``).  Smith forms with their
transforms come from integer row and column operations; column Hermite
forms, of lattice generators and of saturated integer kernels with a
unimodular coordinate map, from one Euclidean column step and one Hermite
pass (H. Cohen, *A Course in Computational Algebraic Number Theory*, GTM
138, section 2.4); characteristic polynomials from Berkowitz's
division-free algorithm on the integer matrix d*M, rescaled once.  All of
it is pure Python, with no dependency outside the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Optional, Sequence, Tuple

from .errors import PreconditionError, SingularInputError

Matrix = Tuple[Tuple[Fraction, ...], ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_scale(c, m: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def mat_pow(m: Matrix, k: int) -> Matrix:
    """m^k for an int k >= 0 by binary powering: no product with the
    identity, and no square past the highest set bit of k.  A negative k
    raises PreconditionError (invert first with ``mat_inv``)."""
    if k < 0:
        raise PreconditionError(f"mat_pow needs a power k >= 0, got {k}")
    if k == 0:
        return identity(len(m))
    base = freeze(m)
    result = None
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mat_mul(base, base)


# ---------------------------------------------------------------------------
# elimination over Q

def _gauss_jordan(rows, width: Optional[int] = None):
    """Gauss-Jordan elimination over Q, pivoting in the first ``width`` columns.

    Returns (reduced, pivots, determinant): the reduced row echelon form as lists of
    Fractions (pivot entries 1, the rest of each pivot column 0; columns past
    ``width`` are carried along; rows without a pivot hold what is left of
    them after the pivot rows are subtracted), the pivot columns in order,
    and the determinant of the leading square block (0 when the rows have
    no pivot each).

    The elimination is fraction-free (E. H. Bareiss, *Math. Comp.* 22,
    1968): each row is cleared of denominators once, and a pivot w replaces
    every other row R by (w R - R[col] P) / w_prev, with P the pivot row
    and w_prev the previous pivot (1 at the start).  The division is exact,
    and after each step every row is the current pivot times the row the
    same step over Q would hold (a row without a pivot also times its
    denominator), so one division at the end gives the rows over Q.
    """
    work, scales = [], []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    nrows = len(work)
    if width is None:
        width = len(work[0]) if work else 0
    pivots = []
    sign, last = 1, 1
    for col in range(width):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][col]), None)
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            scales[r], scales[pr] = scales[pr], scales[r]
            sign = -sign
        prow = work[r]
        w = prow[col]
        for i in range(nrows):
            f = work[i][col]
            if i == r or not f and w == last:
                continue
            work[i] = [(w * x - f * y) // last for x, y in zip(work[i], prow)]
        last = w
        pivots.append(col)
    rank = len(pivots)
    reduced = [[Fraction(x, last * (1 if i < rank else scales[i])) for x in row]
               for i, row in enumerate(work)]
    if rank < nrows:
        return reduced, pivots, Fraction(0)
    return reduced, pivots, Fraction(sign * last, prod(scales))


def det(m: Matrix) -> Fraction:
    """Determinant over Q."""
    return _gauss_jordan(m)[2]


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse over Q; raises SingularInputError when singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots, _ = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise SingularInputError("matrix is singular over Q")
    return freeze(row[n:] for row in reduced)


def solve_columns(columns: Sequence[Sequence], target: Sequence) -> Optional[tuple]:
    """Solve sum_j x_j * columns[j] = target exactly over Q.

    Returns the coefficient tuple when a solution exists and is unique
    (columns linearly independent), None when the system is inconsistent.
    Raises SingularInputError when the columns are dependent.
    """
    k = len(columns)
    aug = [[c[i] for c in columns] + [t] for i, t in enumerate(target)]
    reduced, pivots, _ = _gauss_jordan(aug, k)
    if len(pivots) < k:
        raise SingularInputError("dependent columns in solve_columns")
    if any(row[k] != 0 for row in reduced[k:]):
        return None
    return tuple(row[k] for row in reduced[:k])


# ---------------------------------------------------------------------------
# polynomials

def charpoly(m: Matrix) -> Tuple[Fraction, ...]:
    """Monic characteristic polynomial coefficients (c_0, ..., c_n), c_n = 1.

    Berkowitz's division-free algorithm runs on the integer matrix d*M
    (d the common denominator); the coefficient of x^i is then rescaled
    by d^(n-i).
    """
    n = len(m)
    d = lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m]
    # charpoly of the trailing block a[k:, k:], leading coefficient first
    poly = [1]
    for k in range(n - 1, -1, -1):
        size = n - k
        row = a[k][k + 1:]
        vec = [a[i][k] for i in range(k + 1, n)]
        column = [1, -a[k][k]]
        for step in range(size - 1):
            column.append(-sum(x * y for x, y in zip(row, vec)))
            if step < size - 2:
                vec = [sum(x * y for x, y in zip(a[i][k + 1:], vec))
                       for i in range(k + 1, n)]
        poly = [sum(column[i - j] * poly[j] for j in range(min(i, size - 1) + 1))
                for i in range(size + 1)]
    return tuple(Fraction(c, d ** i) for i, c in enumerate(poly))[::-1]


# ---------------------------------------------------------------------------
# valuations and p-local exponents

def valuation(x, p: int) -> Optional[int]:
    """p-adic valuation of a rational; None for zero."""
    if x == 0:
        return None
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def integral_vector(v, length: int) -> Tuple[int, ...]:
    """v as a tuple of ints; PreconditionError unless each coordinate is an
    int or an integral Fraction (never a float) and v has the length given."""
    v = tuple(v)
    if len(v) != length:
        raise PreconditionError(f"vector has length {len(v)}, expected {length}")
    if not all(isinstance(x, (int, Fraction)) and x == int(x) for x in v):
        raise PreconditionError(f"vector {v!r} is not integral")
    return tuple(map(int, v))


def require_prime(p) -> None:
    """Raise PreconditionError unless p is a prime (an int, by trial division)."""
    if not isinstance(p, int) or p < 2 or \
            any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise PreconditionError(f"p must be a prime, got {p!r}")


def local_exponents(rows, p: int) -> Tuple[int, ...]:
    """p-adic valuations of the nonzero elementary divisors of an integer
    matrix, in ascending (divisibility) order; one per unit of rank.

    Each step pivots on an entry of least valuation and clears the pivot's
    column with row operations that scale rows only by p-adic units.  The
    pivot row's other entries then have at least the pivot's valuation, so
    column operations would clear them without touching the rest: the
    pivot's row and column are dropped, and the other rows, so reduced,
    are built anew as the next block.  The loop stops when the block is
    zero, or closes on a 2x2 block [[a, b], [c, d]], which every n x n
    input of rank at least n - 2 reaches (a rectangular one never does):
    with g = gcd(a, b, c, d) and D = ad - bc, its Smith form over Z_p
    gives v_p(g) and then v_p(D) - v_p(g) = v_p(g) + v_p(D / g^2), the
    latter only when D is nonzero, and nothing when g is 0.  No exponent
    is less than one found before it, so they come out in order.  The
    input (rows of Python ints, lists or tuples) is only read: it is
    never copied up front or mutated.
    """
    exps = []
    work = rows
    while work:
        if len(work) == 2 and len(work[0]) == 2:
            (a, b), (c, d) = work
            g = gcd(a, b, c, d)
            if g:
                det = (a * d - b * c) // (g * g)
                v = 0
                while g % p == 0:
                    g //= p
                    v += 1
                exps.append(v)
                if det:
                    while det % p == 0:
                        det //= p
                        v += 1
                    exps.append(v)
            break
        best_v = best_i = best_j = None
        for i, row in enumerate(work):
            for j, x in enumerate(row):
                if not x:
                    continue
                if x % p:
                    best_v, best_i, best_j = 0, i, j
                    break
                v = 1
                x //= p
                while x % p == 0:
                    x //= p
                    v += 1
                if best_v is None or v < best_v:
                    best_v, best_i, best_j = v, i, j
            if best_v == 0:
                break
        if best_v is None:
            break
        pivot = work[best_i]
        scale = p ** best_v
        unit = pivot[best_j] // scale
        rest = pivot[:best_j] + pivot[best_j + 1:]
        block = []
        for i, row in enumerate(work):
            if i != best_i:
                factor = row[best_j] // scale
                row = row[:best_j] + row[best_j + 1:]
                if factor:
                    row = [unit * x - factor * y for x, y in zip(row, rest)]
                block.append(row)
        work = block
        exps.append(best_v)
    return tuple(exps)


# ---------------------------------------------------------------------------
# integer normal forms

def smith_full(rows) -> Tuple[Tuple[int, ...], Matrix, Matrix]:
    """Smith decomposition S*A*T = diag(divisors) of an integer matrix.

    Returns (divisors, S, T): S and T unimodular, ``divisors`` the
    min(rows, columns) nonnegative invariant factors in divisibility order,
    zeros last.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(r) for r in identity(m)]
    t = [list(r) for r in identity(n)]

    def add_row(i, k, q):  # row_i -= q * row_k
        if not q:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        s[i] = [x - q * y for x, y in zip(s[i], s[k])]

    def add_col(j, k, q):  # col_j -= q * col_k
        if not q:
            return
        for r in a + t:
            r[j] -= q * r[k]

    def swap(d, i, j):  # bring entry (i, j) to (d, d)
        a[d], a[i] = a[i], a[d]
        s[d], s[i] = s[i], s[d]
        for r in a + t:
            r[d], r[j] = r[j], r[d]

    divisors = []
    for d in range(min(m, n)):
        entries = [(abs(a[i][j]), i, j) for i in range(d, m) for j in range(d, n)
                   if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        swap(d, i, j)
        while True:
            for i in range(d + 1, m):
                add_row(i, d, a[i][d] // a[d][d])
            for j in range(d + 1, n):
                add_col(j, d, a[d][j] // a[d][d])
            rest = [(abs(a[i][d]), i, d) for i in range(d + 1, m) if a[i][d]]
            rest += [(abs(a[d][j]), d, j) for j in range(d + 1, n) if a[d][j]]
            if rest:
                # remainders are smaller than the pivot: move the least in
                _, i, j = min(rest)
                swap(d, i, j)
                continue
            bad = next((i for i in range(d + 1, m) for j in range(d + 1, n)
                        if a[i][j] % a[d][d]), None)
            if bad is None:
                break
            add_row(d, bad, -1)
        if a[d][d] < 0:
            a[d] = [-x for x in a[d]]
            s[d] = [-x for x in s[d]]
        divisors.append(a[d][d])
    divisors += [0] * (min(m, n) - len(divisors))
    return tuple(divisors), freeze(s), freeze(t)


def _column_step(cols, j, k, q, inv):  # column j -= q * column k
    if q:
        cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
        if inv is not None:
            inv[k] = [x + q * y for x, y in zip(inv[k], inv[j])]


def _euclid(cols, i, live, inv=None):
    """Euclid's algorithm on row i by column steps among the columns
    ``live`` of ``cols`` (lists of ints, changed in place), until at most
    one has a nonzero entry there: that one's index, or None.  When ``inv``
    is given, each column of ``cols`` must end in the rows of a transform T
    (as A stacked over T does) and ``inv`` must hold the rows of T^-1: each
    column step on T is then a row step on T^-1 (row k += q * row j), made
    there too."""
    while True:
        nonzero = [j for j in live if cols[j][i]]
        if len(nonzero) <= 1:
            return nonzero[0] if nonzero else None
        k = min(nonzero, key=lambda j: abs(cols[j][i]))
        for j in nonzero:
            if j != k:
                _column_step(cols, j, k, cols[j][i] // cols[k][i], inv)


def _hermite(cols, height: int, live, inv=None) -> list:
    """Column Hermite form of the columns ``live`` of ``cols``, as for
    ``_euclid``: the indices of its nonzero columns by rising pivot row,
    with ``live`` left holding the columns reduced to zero.

    Rows are taken from the bottom up, each by ``_euclid`` among the
    columns without a pivot; the one left is made positive there and
    reduces the entries of the columns already placed into [0, pivot).
    So each column's last nonzero entry is a positive pivot, in rising rows
    from left to right, with the entries right of it in [0, pivot): the
    convention of Cohen (GTM 138, algorithm 2.4.5) and sympy, in which the
    form depends only on the lattice.
    """
    placed = []
    for i in range(height - 1, -1, -1):
        k = _euclid(cols, i, live, inv)
        if k is None:
            continue
        live.remove(k)
        if cols[k][i] < 0:
            cols[k] = [-x for x in cols[k]]
            if inv is not None:
                inv[k] = [-x for x in inv[k]]
        for j in placed:
            _column_step(cols, j, k, cols[j][i] // cols[k][i], inv)
        placed.append(k)
    placed.reverse()
    return placed


def hnf_columns(rows) -> Matrix:
    """Canonical column-span Hermite form of an integer matrix of full row
    rank n, by ``_hermite`` on its columns: upper triangular n x n with
    positive pivots and off-diagonal entries reduced into [0, pivot)."""
    n = len(rows)
    cols = [list(map(int, c)) for c in zip(*rows)]
    placed = _hermite(cols, n, list(range(len(cols))))
    if len(placed) < n:
        raise SingularInputError("lattice generators do not have full rank")
    return transpose(cols[j] for j in placed)


def saturated_kernel(rows) -> Tuple[Tuple[Tuple[int, ...], ...], Matrix]:
    """Saturated basis (columns) of the right kernel of an integer matrix A,
    a basis of ker(A) intersected with Z^n, and a unimodular s with
    s * basis the leading columns of the identity.

    ``_euclid`` clears A row by row on the columns of A stacked over a
    transform T (at first the identity), with T^-1 tracked beside them.
    The columns of T left without a pivot span the kernel, saturated
    because T is unimodular, and ``_hermite`` on them, T^-1 still tracked,
    puts the basis in column Hermite form, which depends only on the
    kernel.  s is the rows of T^-1 that match the basis, then the others.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    t_inv = [[int(i == j) for j in range(n)] for i in range(n)]  # rows of T^-1
    cols = [list(map(int, c)) + e for c, e in zip(zip(*rows), t_inv)]  # A over T = I
    live, pivots = list(range(n)), []
    for i in range(m):
        k = _euclid(cols, i, live, t_inv)
        if k is not None:
            live.remove(k)
            pivots.append(k)
    t = [c[m:] for c in cols]
    placed = _hermite(t, n, live, t_inv)
    return tuple(tuple(t[j]) for j in placed), freeze(t_inv[j] for j in placed + pivots)


def solve_triangular(columns: Sequence[Sequence[int]],
                     target: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Integers x with sum_j x_j * columns[j] == target, by back-substitution;
    None when there are none.

    The columns are upper triangular (columns[j][i] == 0 for i > j) with
    nonzero diagonal.  Only the leading len(target) columns and rows are
    read: for a target supported on those rows, every later coordinate of
    the solution is 0.
    """
    k = len(target)
    x = [0] * k
    for i in range(k - 1, -1, -1):
        acc = target[i]
        for j in range(i + 1, k):
            acc -= columns[j][i] * x[j]
        pivot = columns[i][i]
        if acc % pivot:
            return None
        x[i] = acc // pivot
    return tuple(x)


def eliminate_mod_prime_power(rows, p: int, k: int) -> Tuple[list, list, list]:
    """Diagonalise an integer matrix A over Z/p^k: (vals, t, t_inv) with
    S*A*T == D mod p^k for some S invertible mod p^k, D zero but for one
    entry p^vals[j] in each pivot column j (None in a column never pivoted),
    t the columns of T and t_inv the rows of T^-1, both mod p^k.

    Each step pivots on an entry of least valuation v < k, clears its column
    with row operations (not kept) and its row by column operations on T
    only, T^-1 tracked as ``_euclid`` tracks it, and drops the pivot row.
    So the v are the exponents below k of the Smith form of A, and the
    columns of T never pivoted span a summand that A kills mod p^k.
    """
    q = p ** k
    work = [[x % q for x in row] for row in rows]
    m = len(work[0]) if work else 0
    t = [[int(i == j) for i in range(m)] for j in range(m)]
    t_inv, vals = [list(col) for col in t], [None] * m
    while True:
        entries = [(valuation(x, p), i, j)
                   for i, row in enumerate(work) for j, x in enumerate(row) if x]
        if not entries:
            return vals, t, t_inv
        best_v, best_i, best_j = min(entries)
        pivot_row = work.pop(best_i)
        unit = p ** best_v
        inverse = pow(pivot_row[best_j] // unit, -1, q)
        for row in work:
            f = row[best_j] // unit * inverse
            if f:
                row[:] = [(x - f * y) % q for x, y in zip(row, pivot_row)]
        col, inv = t[best_j], t_inv[best_j]
        for j, x in enumerate(pivot_row):
            if x and j != best_j:
                f = x // unit * inverse
                t[j] = [(a - f * b) % q for a, b in zip(t[j], col)]
                inv = [(a + f * b) % q for a, b in zip(inv, t_inv[j])]
        t_inv[best_j], vals[best_j] = inv, best_v


def echelon_mod_prime_power(cols, inv, p: int, k: int) -> Tuple[list, list]:
    """(basis, s): the basis ``cols`` of a saturated summand of (Z/p^k)^n in
    reduced column echelon form mod p^k, and ``inv`` changed to match (its
    leading rows are those of T^-1 matching ``cols``, as for ``_euclid``).
    Rows are taken from the bottom up, as ``_hermite`` takes them: the first
    column not yet placed with a unit there is scaled to 1 and clears the
    row in every other column.  The columns come by rising pivot row, with
    entries in [0, p^k), so the basis depends only on the summand."""
    q = p ** k
    cols, inv, placed = [list(c) for c in cols], [list(r) for r in inv], []
    for i in range(len(cols[0]) - 1, -1, -1):
        j = next((j for j in range(len(cols)) if j not in placed and cols[j][i] % p), None)
        if j is not None:
            unit, inverse, placed = cols[j][i], pow(cols[j][i], -1, q), [j] + placed
            cols[j], inv[j] = [x * inverse for x in cols[j]], [x * unit for x in inv[j]]
            for other in range(len(cols)):
                if other != j:
                    _column_step(cols, other, j, cols[other][i] % q, inv)
    return ([tuple(x % q for x in cols[j]) for j in placed],
            [[x % q for x in inv[j]] for j in placed] + inv[len(cols):])

"""Exact arithmetic in Q[x]/(f) for building and checking benchmark inputs.

This is deliberately independent of ``normform``: the generator uses it to
compute the norm that goes into a problem file, and the output checks use
it to recompute norms and module coordinates, so a defect in the library's
tower arithmetic cannot hide behind a matching defect in the benchmark.
Polynomials are lists of Fractions, constant term first.
"""

from __future__ import annotations

from fractions import Fraction


def poly(coeffs) -> list:
    """Coefficients (ints, Fractions or "p/q" strings) as a trimmed list."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a, b) -> list:
    n = max(len(a), len(b))
    return poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def scale(a, c) -> list:
    return poly([c * x for x in a])


def mul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


def mod(a, f) -> list:
    """Remainder of a modulo the monic polynomial f."""
    rem = list(a)
    d = len(f) - 1
    for k in range(len(rem) - 1, d - 1, -1):
        q = rem[k]
        if q:
            for j in range(d + 1):
                rem[k - d + j] -= q * f[j]
    return poly(rem[:d])


def mulmod(a, b, f) -> list:
    return mod(mul(a, b), f)


def powmod(a, n: int, f) -> list:
    result, base = [Fraction(1)], list(a)
    while n:
        if n & 1:
            result = mulmod(result, base, f)
        base = mulmod(base, base, f)
        n >>= 1
    return result


def compose(a, s, f) -> list:
    """a(s(x)) modulo f, by Horner's rule."""
    acc = []
    for c in reversed(a):
        acc = add(mulmod(acc, s, f), [c])
    return acc


def padded(a, n: int) -> list:
    return list(a) + [Fraction(0)] * (n - len(a))


def solve(columns, target):
    """Exact x with sum_j x_j * columns[j] == target, or None if inconsistent.

    The columns must be linearly independent; vectors may be trimmed
    polynomials of different lengths.
    """
    n = max([len(c) for c in columns] + [len(target)])
    m = len(columns)
    rows = [[padded(c, n)[i] for c in columns] + [padded(target, n)[i]]
            for i in range(n)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(r)
        r += 1
    if any(rows[i][m] != 0 for i in range(r, n)):
        return None
    return [rows[i][m] for i in pivots]


def to_strings(a, length: int = 1) -> list:
    """Coefficient strings as problem files and reports write them."""
    return [str(c) for c in padded(a, max(length, len(a)))]

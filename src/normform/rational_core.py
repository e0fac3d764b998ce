"""Exact rational polynomials, certified complex roots, integer lattice kernels.

Rationals are `fractions.Fraction` (always in lowest terms, positive
denominator), polynomials are dense tuples of Fractions with the constant
term first, and every floating-point result is produced twice -- once at the
working precision and once at double precision -- so that a disagreement is
an error instead of a silently wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath
from mpmath import mp

from .errors import PrecisionError, VerificationError

__all__ = [
    "Poly",
    "ComplexApprox",
    "primitive_part",
    "poly_complex_roots",
    "integer_kernel",
    "lattice_hnf",
    "ExactLinearSolver",
    "rational_rank",
    "matrix_charpoly",
    "rat_from_str",
    "rat_to_str",
    "frac_to_mpf",
]


def rat_from_str(s: str) -> Fraction:
    """Parse the interchange form "p/q" (or plain "p")."""
    return Fraction(s.strip())


def rat_to_str(q: Fraction) -> str:
    """Serialize a rational in the interchange form "p/q" (or "p")."""
    return str(q)


def frac_to_mpf(q: Fraction):
    """Convert a Fraction to an mpf at the current working precision."""
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


class Poly:
    """Dense univariate polynomial over Q, constant coefficient first.

    Trailing zero coefficients are stripped on construction, so the leading
    coefficient is nonzero unless the polynomial is zero.  The degree of the
    zero polynomial is the sentinel -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.as_string()})"

    def as_string(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = var if k == 1 else f"{var}^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.lead
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            q = rem[k] / lead
            quo[k - d] = q
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= q * b
        return Poly(quo), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("polynomial division is not exact")
        return q

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.lead
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def evaluate(self, x, zero=Fraction(0)):
        """Horner evaluation; works for any ring element supporting * and +."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return zero if acc is None else acc

    def compose(self, other: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * other + Poly([c])
        return acc

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
        # monic normalization keeps coefficient growth in check
        b = b.monic()
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly([1]), Poly()
    t0, t1 = Poly(), Poly([1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = r0.lead
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), normalized monic."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.exact_div(g).monic()


def primitive_part(p: Poly):
    """Split p into (content, q) with q integer-primitive, positive lead.

    p == content * q exactly; the sign travels with the content so the
    primitive polynomial always has a positive leading coefficient.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no primitive part")
    denom = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if ints[-1] < 0:
        g = -g
    content = Fraction(g, denom)
    q = Poly([v // g for v in ints])
    return content, q


# ---------------------------------------------------------------------------
# Certified complex roots


@dataclass(frozen=True)
class ComplexApprox:
    """One complex root at working precision with a certified error radius.

    ``im == 0`` exactly marks a certified-real root.  The radius bounds the
    distance to the true root; it comes from re-solving at twice the working
    precision plus the Newton residual at the refined point.
    """

    re: object
    im: object
    error_radius: float

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_mpc(self):
        return mpmath.mpc(self.re, self.im)

    def __abs__(self):
        return abs(self.to_mpc())


def _horner_mpc(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _simultaneous_roots(int_coeffs, prec: int, seeds=None):
    """Durand-Kerner pass followed by Newton polishing, at `prec` bits."""
    n = len(int_coeffs) - 1
    with mp.workprec(prec):
        c = [mpmath.mpf(v) for v in int_coeffs]
        dc = [k * v for k, v in enumerate(c)][1:]
        lead = c[-1]
        if seeds is None:
            radius = 1 + max(abs(v / lead) for v in c[:-1]) if n else mpmath.mpf(1)
            z = [
                radius * mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi * k / n + mpmath.mpf(2) / 5))
                for k in range(n)
            ]
        else:
            z = [mpmath.mpc(s) for s in seeds]
        scale = max(mpmath.mpf(1), max(abs(v) for v in z))
        tol = mpmath.mpf(2) ** (-prec + 16) * scale
        for _ in range(120 + 20 * n):
            moved = mpmath.mpf(0)
            for i in range(n):
                den = lead
                for j in range(n):
                    if j != i:
                        den *= z[i] - z[j]
                if den == 0:
                    # deterministic nudge out of a coincidental collision
                    z[i] = z[i] * (1 + mpmath.mpf(2) ** -12) + mpmath.mpf(2) ** -12
                    moved = max(moved, tol * 2)
                    continue
                step = _horner_mpc(c, z[i]) / den
                z[i] -= step
                moved = max(moved, abs(step))
            if moved < tol:
                break
        else:
            raise PrecisionError("root iteration did not converge; raise precision")
        for i in range(n):
            for _ in range(3):
                d = _horner_mpc(dc, z[i])
                if d == 0:
                    break
                z[i] -= _horner_mpc(c, z[i]) / d
        return z


def poly_complex_roots(q: Poly, precision_bits: int):
    """All complex roots of a squarefree integer polynomial, certified.

    Returns deg(q) approximations: certified-real roots first in increasing
    order, then conjugate pairs (positive imaginary part first) by real part.
    Each error radius is the disagreement between the working-precision and
    double-precision solves plus the final Newton residual bound.
    """
    if q.degree < 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    if not q.is_integral():
        raise ValueError("root finding expects integer coefficients")
    if poly_gcd(q, q.derivative()).degree > 0:
        raise ValueError("input must be squarefree")
    n = q.degree
    ints = [int(c) for c in q.coeffs]
    prec_lo = precision_bits + 32
    prec_hi = 2 * precision_bits + 32

    if n == 1:
        with mp.workprec(prec_hi):
            z_hi = mpmath.mpf(-ints[0]) / mpmath.mpf(ints[1])
            resid = abs(mpmath.mpf(ints[1]) * z_hi + ints[0]) / abs(mpmath.mpf(ints[1]))
        with mp.workprec(prec_lo):
            z_lo = mpmath.mpf(-ints[0]) / mpmath.mpf(ints[1])
        with mp.workprec(precision_bits):
            stored = +z_hi
            radius = float(abs(z_hi - z_lo) + resid + abs(stored - z_hi))
            return [ComplexApprox(stored, mpmath.mpf(0), radius)]

    z_lo = _simultaneous_roots(ints, prec_lo)
    z_hi = _simultaneous_roots(ints, prec_hi, seeds=z_lo)
    with mp.workprec(prec_hi):
        dints = [k * v for k, v in enumerate(ints)][1:]
        radii = []
        for lo, hi in zip(z_lo, z_hi):
            d = _horner_mpc([mpmath.mpf(v) for v in dints], hi)
            resid = abs(_horner_mpc([mpmath.mpf(v) for v in ints], hi) / d) if d != 0 else mpmath.inf
            radii.append(float(abs(mpmath.mpc(lo) - hi) + resid))

        # distinctness guard: squarefree input must give separated roots
        for i in range(n):
            for j in range(i + 1, n):
                if abs(z_hi[i] - z_hi[j]) < 4 * (radii[i] + radii[j]) + mpmath.mpf(2) ** (-prec_hi + 8):
                    raise PrecisionError("root separation failed; raise precision")

        reals, complexes = [], []
        for z, r in zip(z_hi, radii):
            tol = mpmath.mpf(2) ** (-precision_bits // 2) * (1 + abs(z))
            if abs(z.imag) < tol:
                reals.append((z.real, r))
            else:
                complexes.append((z, r))
        if len(complexes) % 2:
            raise PrecisionError("conjugate pairing failed; raise precision")
        pairs = []
        pos = sorted([zr for zr in complexes if zr[0].imag > 0], key=lambda t: (t[0].real, t[0].imag))
        neg = [zr for zr in complexes if zr[0].imag <= 0]
        for z, r in pos:
            best = min(range(len(neg)), key=lambda i: abs(mpmath.conj(neg[i][0]) - z))
            mate, mate_r = neg.pop(best)
            tol = mpmath.mpf(2) ** (-precision_bits // 2) * (1 + abs(z))
            if abs(mpmath.conj(mate) - z) > 2 * tol:
                raise PrecisionError("conjugate pairing failed; raise precision")
            rep = (z + mpmath.conj(mate)) / 2
            shift = float(abs(rep - z))
            pairs.append((rep, max(r, mate_r) + shift))
        if neg:
            raise PrecisionError("conjugate pairing failed; raise precision")

    out = []
    with mp.workprec(precision_bits):
        storage_err = lambda z: float(mpmath.mpf(2) ** (-precision_bits) * (1 + abs(z)))
        for x, r in sorted(reals, key=lambda t: t[0]):
            out.append(ComplexApprox(+x, mpmath.mpf(0), r + storage_err(x)))
        for z, r in sorted(pairs, key=lambda t: (t[0].real, t[0].imag)):
            re, im = +z.real, +z.imag
            err = r + storage_err(z)
            out.append(ComplexApprox(re, im, err))
            out.append(ComplexApprox(re, -im, err))
    bound = 2.0 ** (-precision_bits / 2)
    if any(r.error_radius >= bound for r in out):
        raise PrecisionError("root certification exceeded the radius budget; raise precision")
    return out


# ---------------------------------------------------------------------------
# Integer lattices


def integer_kernel(rows, ncols=None):
    """Basis of the lattice {x in Z^c : A x = 0}.

    Column-style Hermite reduction with an accumulated unimodular transform:
    transform columns matching the zeroed-out columns of A read off the
    kernel directly.  The returned basis is put in Hermite normal form so
    the output is canonical.
    """
    r = len(rows)
    if r:
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged matrix")
        if ncols is not None and ncols != c:
            raise ValueError("ncols disagrees with the matrix shape")
    else:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        c = ncols
    work = [[int(rows[i][j]) for i in range(r)] for j in range(c)]  # columns
    transform = [[1 if i == j else 0 for i in range(c)] for j in range(c)]
    npiv = 0
    for i in range(r):
        while True:
            live = [j for j in range(npiv, c) if work[j][i] != 0]
            if not live:
                break
            if len(live) == 1:
                j0 = live[0]
            else:
                j0 = min(live, key=lambda j: abs(work[j][i]))
                for j in live:
                    if j == j0:
                        continue
                    q = work[j][i] // work[j0][i]
                    if q:
                        work[j] = [a - q * b for a, b in zip(work[j], work[j0])]
                        transform[j] = [a - q * b for a, b in zip(transform[j], transform[j0])]
                continue
            work[npiv], work[j0] = work[j0], work[npiv]
            transform[npiv], transform[j0] = transform[j0], transform[npiv]
            npiv += 1
            break
    basis = [tuple(transform[j]) for j in range(npiv, c)]
    for v in basis:  # exact safety check, cheap at these sizes
        if any(sum(rows[i][j] * v[j] for j in range(c)) for i in range(r)):
            raise VerificationError("integer kernel vector is not in the kernel")
    return lattice_hnf(basis, c)


def lattice_hnf(vectors, dim=None):
    """Canonical (row-style Hermite) basis of the lattice the vectors span.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Dependent or zero generators are dropped.
    """
    vecs = [list(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("dim is required for an empty generating set")
        dim = len(vecs[0])
    rows = [v for v in vecs if any(v)]
    done = 0
    for col in range(dim):
        while True:
            live = [i for i in range(done, len(rows)) if rows[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                i0 = live[0]
            else:
                i0 = min(live, key=lambda i: abs(rows[i][col]))
                for i in live:
                    if i == i0:
                        continue
                    q = rows[i][col] // rows[i0][col]
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
                continue
            rows[done], rows[i0] = rows[i0], rows[done]
            if rows[done][col] < 0:
                rows[done] = [-a for a in rows[done]]
            for i in range(done):
                q = rows[i][col] // rows[done][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[done])]
            done += 1
            break
        rows = [r for i, r in enumerate(rows) if i < done or any(r)]
    return [tuple(r) for r in rows[:done]]


# ---------------------------------------------------------------------------
# Exact rational linear algebra


class ExactLinearSolver:
    """Invertible rational matrix with a precomputed exact inverse."""

    def __init__(self, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("solver needs a square matrix")
        aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [v * inv for v in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        self.n = n
        self.inverse_rows = [tuple(row[n:]) for row in aug]

    def solve(self, vec):
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return [sum(a * Fraction(b) for a, b in zip(row, vec)) for row in self.inverse_rows]


def rational_rank(rows) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def matrix_charpoly(rows) -> Poly:
    """Characteristic polynomial det(xI - A) by Faddeev-LeVerrier, exact."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return Poly(coeffs)

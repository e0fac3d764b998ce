"""Towers Q ⊆ k ⊆ l with exact element arithmetic and the relative norm.

Elements are polynomial residues modulo the generator's minimal polynomial.
The base field Q is the degenerate tower member with minimal polynomial x
and generator 0, so nothing downstream special-cases it.  All k-linear
algebra is flattened to exact Q-linear algebra over the basis
{theta^i * psi_j}.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import PrecisionError
from .rational_core import (
    ExactLinearSolver,
    Poly,
    frac_to_mpf,
    matrix_charpoly,
    poly_complex_roots,
    poly_gcd,
    poly_xgcd,
    primitive_part,
    rational_rank,
)

__all__ = ["FieldTower", "FieldElement", "build_tower", "embed_k_in_l",
           "mult_matrix", "char_poly", "relative_norm", "certified_values",
           "in_power_order", "is_algebraic_integer"]


class FieldElement:
    """An element of k or l as an exact residue in the field generator."""

    __slots__ = ("tower", "owner", "coeffs")

    def __init__(self, tower, owner: str, coeffs: Poly):
        self.tower = tower
        self.owner = owner
        self.coeffs = coeffs % tower.minpoly(owner)

    # -- basics ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.tower is other.tower and self.owner == other.owner
                    and self.coeffs == other.coeffs)
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash((id(self.tower), self.owner, self.coeffs))

    def __repr__(self):
        var = "θ" if self.owner == "l" else "φ"
        return f"<{self.owner}: {self.coeffs.as_string(var)}>"

    def as_string(self) -> str:
        return self.coeffs.as_string("θ" if self.owner == "l" else "φ")

    def coeff_vector(self):
        d = self.tower.minpoly(self.owner).degree
        return [self.coeffs.coeff(i) for i in range(d)]

    def rational_value(self) -> Fraction:
        if self.coeffs.degree > 0:
            raise ValueError("element is not rational")
        return self.coeffs.coeff(0)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower or other.owner != self.owner:
                raise ValueError("cross-field arithmetic requires explicit embedding")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.tower, self.owner, Poly([other]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.owner, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, self.owner, -self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.owner, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.owner, self.coeffs * o.coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("division by zero field element")
        m = self.tower.minpoly(self.owner)
        g, s, _ = poly_xgcd(self.coeffs, m)
        if g.degree != 0:
            raise ValueError("zero divisor: the minimal polynomial is reducible")
        return FieldElement(self.tower, self.owner, s * (1 / g.coeff(0)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = FieldElement(self.tower, self.owner, Poly([1]))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- numerics ------------------------------------------------------------

    def conjugates(self, hi: bool = False, indices=None):
        """(value, error radius) under the stored embeddings of the field.

        `hi` selects the double-precision embeddings; `indices` restricts
        the list to some embeddings, in the given order.
        """
        tower = self.tower
        roots = tower.embeddings(self.owner, hi)
        if indices is not None:
            roots = [roots[i] for i in indices]
        return certified_values(self.coeffs, roots,
                                tower.precision_bits * (2 if hi else 1))

    def embed_numeric(self, embedding_index: int, hi: bool = False):
        """Value under one archimedean embedding, as an mpc."""
        return self.conjugates(hi, (embedding_index,))[0][0]


def certified_values(poly: Poly, roots, precision_bits: int):
    """(value, error radius) of `poly` at each certified root.

    Horner evaluation at precision_bits + 16 bits.  The radius bounds the
    distance to the value at the true root: the root's certified radius r
    times max |poly'| over the disc of radius r around the stored point,
    plus the rounding of the evaluation, (8n + 8) units of the working
    precision relative to sum |c_k| |z|^k.
    """
    coeffs = poly.coeffs or (Fraction(0),)
    n = len(coeffs) - 1
    out = []
    with mp.workprec(precision_bits + 16):
        cs = [frac_to_mpf(c) for c in reversed(coeffs)]
        mags = [abs(c) for c in cs]
        slack = (8 * n + 8) * mpmath.mpf(2) ** -(precision_bits + 16)
        for root in roots:
            z = root.to_mpc()
            r = mpmath.mpf(root.error_radius)
            az = abs(z)
            disc = az + r
            value = mpmath.mpc(0)
            size = slope = mpmath.mpf(0)
            for k, (c, m) in enumerate(zip(cs, mags)):
                value = value * z + c
                size = size * az + m
                if k < n:
                    slope = slope * disc + (n - k) * m
            out.append((value, r * slope + slack * size))
    return out


class FieldTower:
    """Immutable data of the tower Q ⊆ k ⊆ l."""

    def __init__(self, f_k, f_l, phi_in_theta, psi_polys, precision_bits,
                 embeddings_l, embeddings_l_hi, embeddings_k, embeddings_k_hi,
                 fiber_of_l_embedding):
        self.f_k = f_k
        self.f_l = f_l
        self.phi_in_theta = phi_in_theta
        self.f = f_k.degree
        self.e = f_l.degree // f_k.degree
        self.precision_bits = precision_bits
        self.embeddings_l = tuple(embeddings_l)
        self.embeddings_l_hi = tuple(embeddings_l_hi)
        self.embeddings_k = tuple(embeddings_k)
        self.embeddings_k_hi = tuple(embeddings_k_hi)
        self.fiber_of_l_embedding = tuple(fiber_of_l_embedding)
        self.psi_basis = tuple(FieldElement(self, "k", p) for p in psi_polys)
        self._cache = {}

    # -- element constructors -----------------------------------------------

    def k_element(self, coeffs) -> FieldElement:
        return FieldElement(self, "k", coeffs if isinstance(coeffs, Poly) else Poly(coeffs))

    def l_element(self, coeffs) -> FieldElement:
        return FieldElement(self, "l", coeffs if isinstance(coeffs, Poly) else Poly(coeffs))

    def element(self, owner: str, coeffs) -> FieldElement:
        return self.k_element(coeffs) if owner == "k" else self.l_element(coeffs)

    def theta(self) -> FieldElement:
        return self.l_element(Poly([0, 1]))

    def phi(self) -> FieldElement:
        return self.k_element(Poly([0, 1]))

    def one(self, owner: str = "l") -> FieldElement:
        return self.element(owner, Poly([1]))

    def zero(self, owner: str = "l") -> FieldElement:
        return self.element(owner, Poly())

    # -- structure -----------------------------------------------------------

    def minpoly(self, owner: str) -> Poly:
        if owner == "k":
            return self.f_k
        if owner == "l":
            return self.f_l
        raise ValueError(f"unknown field tag {owner!r}")

    def degree(self, owner: str) -> int:
        return self.minpoly(owner).degree

    def embeddings(self, owner: str, hi: bool = False):
        """The certified roots of the owner's minimal polynomial."""
        if owner == "l":
            return self.embeddings_l_hi if hi else self.embeddings_l
        return self.embeddings_k_hi if hi else self.embeddings_k

    def power_basis_solver(self) -> ExactLinearSolver:
        """Exact solver for the Q-basis {theta^i psi_j : i < e, j < f} of l."""
        if "power_solver" not in self._cache:
            cols = []
            for i in range(self.e):
                t = self.theta() ** i
                for psi in self.psi_basis:
                    cols.append((t * embed_k_in_l(psi)).coeff_vector())
            n = self.e * self.f
            rows = [[cols[t][r] for t in range(n)] for r in range(n)]
            try:
                self._cache["power_solver"] = ExactLinearSolver(rows)
            except ValueError as exc:  # cannot happen for a squarefree f_l
                raise ValueError("basis solve failed") from exc
        return self._cache["power_solver"]

    def k_coordinates(self, alpha: FieldElement):
        """Write an l-element as sum_i c_i theta^i with c_i in k."""
        if alpha.owner != "l":
            raise ValueError("k_coordinates expects an l-element")
        x = self.power_basis_solver().solve(alpha.coeff_vector())
        out = []
        for i in range(self.e):
            c = self.zero("k")
            for j, psi in enumerate(self.psi_basis):
                c = c + x[i * self.f + j] * psi
            out.append(c)
        return out


def build_tower(f_k, f_l, phi_in_theta, psi_basis, precision_bits: int = 128) -> FieldTower:
    """Assemble and validate a tower from its defining polynomials.

    Irreducibility is taken on faith (a reducible input later surfaces as a
    zero-divisor error in division); squarefreeness, the generator relation
    f_k(phi(theta)) = 0, integrality of the supplied integral basis, and the
    uniform embedding fibration are all checked.
    """
    f_k, f_l = Poly(f_k.coeffs), Poly(f_l.coeffs)
    for p, name in ((f_k, "base"), (f_l, "extension")):
        if p.degree < 1:
            raise ValueError(f"{name} minimal polynomial must be nonconstant")
        if p.lead != 1:
            raise ValueError(f"{name} minimal polynomial must be monic")
        if poly_gcd(p, p.derivative()).degree > 0:
            raise ValueError(f"{name} minimal polynomial must be squarefree")
    if f_l.degree % f_k.degree:
        raise ValueError("deg f_l must be a multiple of deg f_k")
    phi_in_theta = phi_in_theta % f_l
    if not (f_k.compose(phi_in_theta) % f_l).is_zero:
        raise ValueError("generator embedding invalid")

    _, f_l_int = primitive_part(f_l)
    _, f_k_int = primitive_part(f_k)
    emb_l = poly_complex_roots(f_l_int, precision_bits)
    emb_l_hi = poly_complex_roots(f_l_int, 2 * precision_bits)
    emb_k = poly_complex_roots(f_k_int, precision_bits)
    emb_k_hi = poly_complex_roots(f_k_int, 2 * precision_bits)
    for lo, hi in zip(emb_l + emb_k, emb_l_hi + emb_k_hi):
        if abs(lo.to_mpc() - hi.to_mpc()) > 2.0 ** (-precision_bits / 2):
            raise PrecisionError("embedding lists disagree across precisions")

    e = f_l.degree // f_k.degree
    f = f_k.degree
    fiber = _fibrate(f_l.degree, e, f, phi_in_theta, emb_l, emb_k, precision_bits)

    tower = FieldTower(f_k, f_l, phi_in_theta, [Poly(p.coeffs) for p in psi_basis],
                       precision_bits, emb_l, emb_l_hi, emb_k, emb_k_hi, fiber)

    if len(tower.psi_basis) != f:
        raise ValueError("integral basis must have [k:Q] elements")
    coeff_rows = [psi.coeff_vector() for psi in tower.psi_basis]
    if rational_rank(coeff_rows) != f:
        raise ValueError("integral basis is not a Q-basis of k")
    for psi in tower.psi_basis:
        if not is_algebraic_integer(psi):
            raise ValueError("integral basis element not an algebraic integer")
    one_coords = ExactLinearSolver([[coeff_rows[j][i] for j in range(f)]
                                    for i in range(f)]).solve([1] + [0] * (f - 1))
    if any(c.denominator != 1 for c in one_coords):
        raise ValueError("integral basis does not span 1 over Z")
    tower.power_basis_solver()  # force the flattened-basis check now
    return tower


def _fibrate(n, e, f, phi_in_theta, emb_l, emb_k, precision_bits):
    """Group the embeddings of l by their restriction to k."""
    values = [v for v, _ in certified_values(phi_in_theta, emb_l, precision_bits)]
    with mp.workprec(precision_bits + 16):
        threshold = mpmath.mpf(2) ** (-precision_bits // 4)
        group_of = [-1] * n
        groups = []
        for i, v in enumerate(values):
            for g, members in enumerate(groups):
                if abs(values[members[0]] - v) < threshold:
                    members.append(i)
                    group_of[i] = g
                    break
            else:
                group_of[i] = len(groups)
                groups.append([i])
        if len(groups) != f or any(len(g) != e for g in groups):
            raise ValueError("embedding fibration failed; raise precision")
        fiber = [-1] * n
        used = set()
        for g, members in enumerate(groups):
            v = values[members[0]]
            k_idx = min(range(f), key=lambda j: abs(emb_k[j].to_mpc() - v))
            if abs(emb_k[k_idx].to_mpc() - v) > threshold or k_idx in used:
                raise ValueError("embedding fibration failed; raise precision")
            used.add(k_idx)
            for i in members:
                fiber[i] = k_idx
    return fiber


def embed_k_in_l(a: FieldElement) -> FieldElement:
    """The inclusion k ⊆ l: substitute phi(theta) for the k-generator."""
    if a.owner == "l":
        return a
    return FieldElement(a.tower, "l", a.coeffs.compose(a.tower.phi_in_theta))


def mult_matrix(alpha: FieldElement):
    """Matrix of multiplication by alpha on the power basis of its field."""
    m = alpha.tower.minpoly(alpha.owner)
    d = m.degree
    cols = []
    current = FieldElement(alpha.tower, alpha.owner, alpha.coeffs)
    shift = alpha.tower.element(alpha.owner, Poly([0, 1]))
    for _ in range(d):
        cols.append(current.coeff_vector())
        current = current * shift
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def char_poly(alpha: FieldElement) -> Poly:
    """Characteristic polynomial of alpha over Q (degree = field degree)."""
    return matrix_charpoly(mult_matrix(alpha))


def min_poly(alpha: FieldElement) -> Poly:
    """Minimal polynomial of alpha over Q (squarefree part of char_poly)."""
    from .rational_core import squarefree_part

    return squarefree_part(char_poly(alpha))


def _field_det(rows, tower):
    """Determinant of a square matrix of k-elements by exact elimination."""
    n = len(rows)
    work = [list(r) for r in rows]
    det = tower.one("k")
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if not work[i][col].is_zero), None)
        if piv is None:
            return tower.zero("k")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        pivot = work[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(col + 1, n):
            if not work[i][col].is_zero:
                factor = work[i][col] * inv
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return det if sign == 1 else -det


def relative_norm(mu: FieldElement) -> FieldElement:
    """Norm from l down to k: determinant of multiplication-by-mu over k.

    mu * theta^n is rewritten on the k-basis {theta^i} by solving the exact
    Q-linear system over the flattened basis {theta^i psi_j}, and the e x e
    determinant is taken with exact k-arithmetic.  The norm of 0 is 0.
    """
    if mu.owner != "l":
        raise ValueError("relative_norm expects an l-element")
    tower = mu.tower
    if mu.is_zero:
        return tower.zero("k")
    theta = tower.theta()
    cols = []
    current = mu
    for _ in range(tower.e):
        cols.append(tower.k_coordinates(current))
        current = current * theta
    rows = [[cols[n][i] for n in range(tower.e)] for i in range(tower.e)]
    return _field_det(rows, tower)


def norm_to_q(alpha: FieldElement) -> Fraction:
    """Norm down to Q via the characteristic polynomial's constant term."""
    d = alpha.tower.degree(alpha.owner)
    return (-1) ** d * char_poly(alpha).coeff(0)


def in_power_order(alpha: FieldElement) -> bool:
    """True when alpha lies visibly in Z[gen]: integer coefficients over a
    monic integer minimal polynomial, hence an algebraic integer."""
    return alpha.coeffs.is_integral() and alpha.tower.minpoly(alpha.owner).is_integral()


def is_algebraic_integer(alpha: FieldElement) -> bool:
    return in_power_order(alpha) or char_poly(alpha).is_integral()

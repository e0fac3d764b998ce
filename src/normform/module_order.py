"""Full O_k-modules, coefficient rings, torsion units, and relative units.

The coefficient ring O_M = {a in l : a M ⊆ M} is computed as an explicit
lattice by clearing denominators and taking an integer congruence kernel.
Relative units come from the integer kernel of the norm map's exponent
matrix on user-supplied independent units, followed by a least-power search
into the coefficient ring's unit group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from mpmath import mp

from .errors import PrecisionError, VerificationError
from .number_field import (
    FieldElement,
    FieldTower,
    embed_k_in_l,
    is_algebraic_integer,
    norm_to_q,
    relative_norm,
)
from .places_heights import FIBER_TOL, archimedean_places, fiber_sums, log_abs
from .rational_core import (ExactLinearSolver, Poly, integer_det, integer_kernel, lattice_hnf,
                            least_squares)

__all__ = ["FullModule", "CoefficientRing", "RelativeUnitSystem", "coefficient_ring",
           "torsion_units", "torsion_orders", "is_torsion_unit", "relative_units",
           "relative_units_from_epsilons", "verify_rank", "fundamental_unit_real_quadratic"]

POWER_SEARCH_CAP = 10_000
TORSION_SEARCH_CAP = 100_000


class FullModule:
    """A full O_k-module M ⊆ O_l with k-basis omega_1..omega_e."""

    def __init__(self, tower: FieldTower, omega_basis):
        if len(omega_basis) != tower.e:
            raise ValueError(f"need exactly {tower.e} omega basis elements")
        self.tower = tower
        self.omega_basis = tuple(omega_basis)
        z_basis = []
        for om in self.omega_basis:
            if om.owner != "l":
                raise ValueError("omega basis elements must live in l")
            for psi in tower.psi_basis:
                z_basis.append(om * embed_k_in_l(psi))
        self.z_basis = tuple(z_basis)
        n = tower.e * tower.f
        rows = [[z.coeff_vector()[r] for z in z_basis] for r in range(n)]
        try:
            self.solver = ExactLinearSolver(rows)
        except ValueError:
            raise ValueError("omega basis not k-linearly independent") from None
        for z in z_basis:
            if not is_algebraic_integer(z):
                raise ValueError("module not contained in O_l")

    @property
    def rank(self) -> int:
        return len(self.z_basis)

    def coordinates(self, alpha: FieldElement):
        """Exact rational coordinates of alpha over the Z-basis."""
        return self.solver.solve(alpha.coeff_vector())

    def contains(self, alpha: FieldElement):
        """(membership, coordinates): true iff all coordinates are integers."""
        coords = self.coordinates(alpha)
        return all(c.denominator == 1 for c in coords), coords

    def element_from_coordinates(self, coords) -> FieldElement:
        acc = self.tower.zero("l")
        for c, z in zip(coords, self.z_basis):
            if c:
                acc = acc + Fraction(c) * z
        return acc

    @cached_property
    def table(self):
        """(entries, D), the multiplication table of the Z-basis: entries[r][j][i]
        is D times coordinate r of z_i*z_j, all integers over one common D."""
        zb, n = self.z_basis, self.rank
        cols = {(i, j): self.coordinates(zb[i] * zb[j]) for i in range(n) for j in range(i, n)}
        denominator = lcm(*(c.denominator for col in cols.values() for c in col))
        entries = tuple(tuple(tuple(int(cols[min(i, j), max(i, j)][r] * denominator)
                                    for i in range(n)) for j in range(n)) for r in range(n))
        return entries, denominator

    def regular(self, coords):
        """D times Reg(coords), as rows: column j of Reg(c) holds the coordinates
        of (sum c_i z_i)*z_j, the regular representation (Cohen, A Course in
        Computational Algebraic Number Theory, 4.2.2)."""
        return [[sum(map(mul, coords, entry)) for entry in row] for row in self.table[0]]

    def unit_matrix(self, coords):
        """The integer matrix Reg(coords), or None unless it is integral with
        determinant +-1.  det Reg(alpha) = N_{l/Q}(alpha), so it is not None
        iff alpha*M ⊆ M with index 1, that is iff alpha*M = M."""
        matrix = [[Fraction(v, self.table[1]) for v in row] for row in self.regular(coords)]
        if any(v.denominator != 1 for row in matrix for v in row):
            return None
        matrix = tuple(tuple(map(int, row)) for row in matrix)
        return matrix if abs(integer_det(matrix)) == 1 else None

    def stabilized_by(self, alpha: FieldElement) -> bool:
        """True iff alpha*M = M, i.e. alpha is a unit of the coefficient ring."""
        return self.unit_matrix(self.coordinates(alpha)) is not None


@dataclass(frozen=True)
class CoefficientRing:
    """The multiplier ring O_M = {a : a M ⊆ M} with an explicit Z-basis."""

    module: FullModule
    ring_z_basis: tuple
    _solver: ExactLinearSolver

    def coordinates(self, alpha: FieldElement):
        return self._solver.solve(alpha.coeff_vector())

    def contains(self, alpha: FieldElement):
        coords = self.coordinates(alpha)
        return all(c.denominator == 1 for c in coords), coords


def coefficient_ring(module: FullModule) -> CoefficientRing:
    """Compute O_M by clearing denominators and a congruence-kernel HNF.

    Writing a = sum x_m z_m, the condition a*z_n in M for every n says a
    fixed rational matrix applied to x is integral; scaling turns that into
    S u = 0 (mod m) over the integers, solved through integer_kernel.
    """
    entries, denom = module.table
    n = module.rank
    first_block = [[Fraction(v, denom) for v in entries[r][0]] for r in range(n)]
    d1 = lcm(*(v.denominator for row in ExactLinearSolver(first_block).inverse_rows
               for v in row))
    modulus = denom * d1
    # row (b, r) holds denom times coordinate r of z_m * z_b, over the columns m
    big = [list(entries[r][b]) + [modulus if b * n + r == c else 0 for c in range(n * n)]
           for b in range(n) for r in range(n)]
    kernel = integer_kernel(big)
    u_basis = lattice_hnf([vec[:n] for vec in kernel], n)
    if len(u_basis) != n:
        raise VerificationError("coefficient ring lattice is degenerate (solver bug)")
    ring_elements = [module.element_from_coordinates([Fraction(v, d1) for v in u])
                     for u in u_basis]
    rows = [[z.coeff_vector()[r] for z in ring_elements] for r in range(n)]
    ring = CoefficientRing(module, tuple(ring_elements), ExactLinearSolver(rows))
    if not ring.contains(module.tower.one("l"))[0]:
        raise VerificationError("coefficient ring does not contain 1 (solver bug)")
    for i, a in enumerate(ring_elements):
        if not is_algebraic_integer(a):
            raise VerificationError("coefficient ring escaped O_l (solver bug)")
        for b in ring_elements[i:]:
            if not ring.contains(a * b)[0]:
                raise VerificationError("coefficient ring is not closed (solver bug)")
    return ring


# ---------------------------------------------------------------------------
# Torsion units


def _euler_phi(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


def _cyclotomic_poly(n: int) -> Poly:
    """Phi_n by iterated exact division of x^n - 1."""
    poly = Poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(_cyclotomic_poly(d))
    return poly


def torsion_orders(degree: int):
    """Every n with phi(n) dividing the degree: the possible orders of a
    root of unity in a field of that degree."""
    # phi(n) >= sqrt(n/2), so phi(n) | degree forces n <= 2*degree^2
    return [n for n in range(1, 2 * degree * degree + 3)
            if degree % _euler_phi(n) == 0]


def is_torsion_unit(alpha: FieldElement):
    """Exact root-of-unity test: returns the order, or None.

    Candidate orders n are those with phi(n) dividing the field degree; the
    test itself is an exact power computation, gated by a numeric filter
    that rejects an element with a conjugate certified off the unit circle,
    and by an integrality check.
    """
    if alpha.is_zero:
        return None
    degree = alpha.tower.degree(alpha.owner)
    conjugates = alpha.conjugates()
    with mp.workprec(alpha.tower.precision_bits + 16):
        if any(abs(abs(value) - 1) > radius for value, radius in conjugates):
            return None
    if not is_algebraic_integer(alpha):
        return None
    top = max(torsion_orders(degree))
    power = alpha
    for n in range(1, top + 1):
        if power == 1:
            return n
        power = power * alpha
    return None


def torsion_units(tower: FieldTower, field_tag: str):
    """All roots of unity in the field, ordered by angle at the first embedding.

    A field with a real embedding has torsion {1, -1}.  Otherwise each even
    candidate order is tested from the largest down by reconstructing a
    primitive root from one embedding tuple (first coordinate normalized to
    e^(2 pi i / n)) and verifying the cyclotomic relation exactly.
    """
    key = ("torsion", field_tag)
    if key in tower._cache:
        return tower._cache[key]
    degree = tower.degree(field_tag)
    embeds = tower.embeddings(field_tag, hi=True)
    one = tower.one(field_tag)
    if any(r.is_real for r in embeds):
        result = (one, -one)
    else:
        primitive = None
        orders = [n for n in torsion_orders(degree) if n % 2 == 0]
        for n in sorted(orders, reverse=True):
            primitive = _find_primitive_root(tower, field_tag, n)
            if primitive is not None:
                break
        if primitive is None:
            result = (one, -one)
        else:
            order = is_torsion_unit(primitive)
            powers = [one]
            for _ in range(order - 1):
                powers.append(powers[-1] * primitive)
            import cmath

            def angle(el):
                z = complex(el.embed_numeric(0))
                a = cmath.phase(z)
                return a + 2 * math.pi if a < -1e-12 else a

            result = tuple(sorted(powers, key=angle))
    tower._cache[key] = result
    return result


def _find_primitive_root(tower: FieldTower, field_tag: str, n: int):
    """Search embedding tuples for an order-n root of unity, verify exactly."""
    import itertools

    import mpmath

    degree = tower.degree(field_tag)
    prec = 2 * tower.precision_bits
    phi_n = _cyclotomic_poly(n)
    minpoly = tower.minpoly(field_tag)
    residues = [a for a in range(1, n) if math.gcd(a, n) == 1]
    pair_count = degree // 2
    if len(residues) ** max(0, pair_count - 1) > TORSION_SEARCH_CAP:
        raise ValueError("torsion search too large for desk scale")
    embeds = tower.embeddings(field_tag, hi=True)
    with mp.workprec(prec + 16):
        vand = mpmath.matrix(degree, degree)
        for i in range(degree):
            z = embeds[i].to_mpc()
            acc = mpmath.mpc(1)
            for j in range(degree):
                vand[i, j] = acc
                acc *= z
        lu = mpmath.lu_solve
        # embeddings come in adjacent conjugate pairs; fix the first image
        reps = list(range(0, degree, 2))
        for choice in itertools.product(residues, repeat=pair_count - 1):
            exponents = (1,) + choice
            w = mpmath.matrix(degree, 1)
            for pair, a in zip(reps, exponents):
                target = mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi * a / n))
                w[pair, 0] = target
                w[pair + 1, 0] = mpmath.conj(target)
            try:
                sol = lu(vand, w)
            except ZeroDivisionError:
                continue
            coeffs = []
            ok = True
            for i in range(degree):
                v = sol[i, 0]
                if abs(v.imag) > mpmath.mpf(2) ** (-tower.precision_bits // 2):
                    ok = False
                    break
                frac = _recognize_rational(v.real, tower.precision_bits)
                if frac is None:
                    ok = False
                    break
                coeffs.append(frac)
            if not ok:
                continue
            candidate = tower.element(field_tag, Poly(coeffs))
            if (phi_n.compose(candidate.coeffs) % minpoly).is_zero:
                if is_torsion_unit(candidate) == n:
                    return candidate
    return None


def _recognize_rational(x, precision_bits: int):
    """Round an mpf to a nearby small rational, or None if none is close."""
    exact = Fraction(*mpmath_to_ratio(x))
    guess = exact.limit_denominator(10 ** 9)
    if abs(guess - exact) < Fraction(1, 2 ** (precision_bits // 2)):
        return guess
    return None


def mpmath_to_ratio(x):
    """Exact (p, q) with x == p/q for a finite mpf (mpfs are dyadic)."""
    import mpmath

    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return man * (1 << exp), 1
    return man, 1 << (-exp)


# ---------------------------------------------------------------------------
# Relative unit systems


@dataclass(frozen=True)
class RelativeUnitSystem:
    """Independent relative units of E_{l/k}(M) with their log matrix."""

    module: FullModule
    epsilons: tuple
    log_matrix: tuple  # (r(l)+1) rows, one column per epsilon
    torsion_k: tuple
    ranks: tuple  # (r(l), r(k), r(l/k))

    @property
    def rank(self) -> int:
        return self.ranks[2]


def _log_matrix(units, places):
    return [[log_abs(u, w) for u in units] for w in places]


def _verify_unit(u: FieldElement, label: str):
    if not is_algebraic_integer(u):
        raise ValueError(f"{label} is not an algebraic integer")
    if abs(norm_to_q(u)) != 1:
        raise ValueError(f"{label} is not a unit of the maximal order")


def relative_units(module: FullModule, units_l, units_k) -> RelativeUnitSystem:
    """Build the relative unit system from independent units of O_l and O_k.

    The norm of each l-unit is written as an exact integer power product of
    the k-units times torsion (numeric solve, integer rounding, exact
    verification).  The integer kernel of that exponent matrix gives
    r(l) - r(k) relative units of O_l, and a least-power search drops each
    into the coefficient ring's unit group.
    """
    tower = module.tower
    places_l = archimedean_places(tower, "l")
    places_k = archimedean_places(tower, "k")
    r_l = len(places_l) - 1
    r_k = len(places_k) - 1
    units_l = list(units_l)
    units_k = list(units_k)
    if len(units_l) != r_l:
        raise ValueError(f"need exactly r(l) = {r_l} independent units of O_l")
    if len(units_k) != r_k:
        raise ValueError(f"need exactly r(k) = {r_k} independent units of O_k")
    for u in units_l:
        _verify_unit(u, "supplied l-unit")
    for u in units_k:
        _verify_unit(u, "supplied k-unit")
    k_logs = _log_matrix(units_k, places_k)
    if (least_squares(_log_matrix(units_l, places_l))[2] != r_l
            or least_squares(k_logs)[2] != r_k):
        raise ValueError("supplied units not independent")

    exponent_rows = []
    for u in units_l:
        nu = relative_norm(u)
        target = [log_abs(nu, v) for v in places_k]
        sol, _, _ = least_squares(k_logs, target)
        exponents = [round(x) for x in sol]
        if any(abs(x - m) > 0.25 for x, m in zip(sol, exponents)):
            raise ValueError("precision failure or invalid unit data")
        quotient = nu
        for vk, m in zip(units_k, exponents):
            quotient = quotient * vk ** (-m)
        if is_torsion_unit(quotient) is None:
            raise ValueError("precision failure or invalid unit data")
        exponent_rows.append(exponents)

    # kernel of the norm map on exponents: rows indexed by k-units
    kernel_matrix = [[exponent_rows[i][j] for i in range(r_l)] for j in range(r_k)]
    kernel = integer_kernel(kernel_matrix, ncols=r_l)
    epsilons = []
    for vec in kernel:
        eta = tower.one("l")
        for u, m in zip(units_l, vec):
            eta = eta * u ** int(m)
        epsilons.append(_least_power_in_unit_group(module, eta))
    return _assemble_system(module, tuple(epsilons), r_l, r_k)


def relative_units_from_epsilons(module: FullModule, epsilons) -> RelativeUnitSystem:
    """Wrap user-supplied relative units, verifying every membership claim."""
    tower = module.tower
    places_l = archimedean_places(tower, "l")
    r_l = len(places_l) - 1
    r_k = len(archimedean_places(tower, "k")) - 1
    for eps in epsilons:
        _verify_unit(eps, "relative unit")
        if not module.stabilized_by(eps):
            raise ValueError("relative unit does not stabilize the module")
        if is_torsion_unit(relative_norm(eps)) is None:
            raise ValueError("relative unit norm is not torsion")
    if len(epsilons) != r_l - r_k:
        raise ValueError(f"need exactly r(l)-r(k) = {r_l - r_k} relative units")
    if least_squares(_log_matrix(epsilons, places_l))[2] != len(epsilons):
        raise ValueError("supplied relative units not independent")
    return _assemble_system(module, tuple(epsilons), r_l, r_k)


def _least_power_in_unit_group(module: FullModule, eta: FieldElement) -> FieldElement:
    power = eta
    for _ in range(POWER_SEARCH_CAP):
        if module.stabilized_by(power):
            return power
        power = power * eta
    raise ValueError("order index too large for desk scale")


def _assemble_system(module, epsilons, r_l, r_k) -> RelativeUnitSystem:
    tower = module.tower
    log_rows = tuple(tuple(log_abs(e, w) for e in epsilons)
                     for w in archimedean_places(tower, "l"))
    system = RelativeUnitSystem(module, epsilons, log_rows, torsion_units(tower, "k"),
                                (r_l, r_k, len(epsilons)))
    try:
        verify_rank(system)
    except ValueError as exc:
        raise VerificationError(f"relative unit system: {exc}") from None
    for column in zip(*log_rows):
        if any(abs(total) > FIBER_TOL for total in fiber_sums(tower, column)):
            raise PrecisionError("relative unit log column leaves the balanced subspace")
    return system


def verify_rank(system: RelativeUnitSystem):
    """Recompute the rank triple from place counts and the log matrix."""
    tower = system.module.tower
    r_l = len(archimedean_places(tower, "l")) - 1
    r_k = len(archimedean_places(tower, "k")) - 1
    s = r_l - r_k
    if (system.ranks != (r_l, r_k, s) or len(system.epsilons) != s
            or least_squares(system.log_matrix)[2] != s):
        raise ValueError("rank certificate failed")
    return (r_l, r_k, s)


# ---------------------------------------------------------------------------
# Convenience: fundamental unit of a real quadratic field


def fundamental_unit_real_quadratic(tower: FieldTower) -> FieldElement:
    """Fundamental unit (> 1) of O_k for k = Q(sqrt(d)) given by x^2 - d.

    Uses the continued-fraction expansion of sqrt(d) for the Pell part and,
    when d = 1 (mod 4), also searches x^2 - d y^2 = +-4 for half-integer
    units of the maximal order.
    """
    f_k = tower.f_k
    if f_k.degree != 2 or f_k.coeff(1) != 0:
        raise ValueError("expected a base field defined by x^2 - d")
    d = -f_k.coeff(0)
    if d.denominator != 1 or d <= 1:
        raise ValueError("expected x^2 - d with an integer d > 1")
    d = int(d)
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")

    if d % 4 == 1:
        y = 1
        while y <= 10 ** 6:
            for target in (d * y * y - 4, d * y * y + 4):
                if target > 0:
                    x = math.isqrt(target)
                    if x * x == target and (x - y) % 2 == 0:
                        return tower.k_element(Poly([Fraction(x, 2), Fraction(y, 2)]))
            y += 1
        raise ValueError("fundamental unit search exceeded the desk-scale cap")

    p_prev, p = 1, a0
    q_prev, q = 0, 1
    big_p, big_q, a = 0, 1, a0
    for _ in range(10 ** 5):
        if p * p - d * q * q in (1, -1):
            return tower.k_element(Poly([p, q]))
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q
        a = (a0 + big_p) // big_q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    raise ValueError("fundamental unit search exceeded the desk-scale cap")

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
from math import lcm

from mpmath import mp

from .errors import PrecisionError
from .number_field import (
    FieldElement,
    FieldTower,
    embed_k_in_l,
    is_algebraic_integer,
    norm_to_q,
    relative_norm,
)
from .places_heights import archimedean_places, log_abs, place_fibers
from .rational_core import ExactLinearSolver, Poly, integer_kernel, lattice_hnf

__all__ = ["FullModule", "CoefficientRing", "RelativeUnitSystem", "build_module",
           "module_contains", "coefficient_ring", "torsion_units", "is_torsion_unit",
           "relative_units", "relative_units_from_epsilons", "verify_rank",
           "fundamental_unit_real_quadratic"]

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

    def stabilized_by(self, alpha: FieldElement) -> bool:
        """True iff alpha*M = M, i.e. alpha is a unit of the coefficient ring."""
        if alpha.is_zero:
            return False
        inv = alpha.inverse()
        for z in self.z_basis:
            if not self.contains(alpha * z)[0]:
                return False
            if not self.contains(inv * z)[0]:
                return False
        return True


def build_module(tower: FieldTower, omega_basis) -> FullModule:
    return FullModule(tower, omega_basis)


def module_contains(module: FullModule, alpha: FieldElement):
    return module.contains(alpha)


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
    zb = module.z_basis
    n = len(zb)
    stacked = []
    first_block = None
    for z_n in zb:
        block = []
        for z_m in zb:
            block.append(module.coordinates(z_m * z_n))
        # block columns are indexed by m: entry (row, m)
        rows = [[block[m][r] for m in range(n)] for r in range(n)]
        stacked.extend(rows)
        if first_block is None:
            first_block = rows
    denom = 1
    for row in stacked:
        for v in row:
            denom = lcm(denom, v.denominator)
    inv_rows = ExactLinearSolver(first_block).inverse_rows
    d1 = 1
    for row in inv_rows:
        for v in row:
            d1 = lcm(d1, v.denominator)
    modulus = denom * d1
    nrows = len(stacked)
    big = [[int(stacked[i][j] * denom) for j in range(n)]
           + [modulus if i == c else 0 for c in range(nrows)]
           for i in range(nrows)]
    kernel = integer_kernel(big)
    u_basis = lattice_hnf([vec[:n] for vec in kernel], n)
    if len(u_basis) != n:
        raise RuntimeError("coefficient ring lattice is degenerate (solver bug)")
    ring_elements = []
    for u in u_basis:
        coords = [Fraction(v, d1) for v in u]
        ring_elements.append(module.element_from_coordinates(coords))
    tower = module.tower
    rows = [[z.coeff_vector()[r] for z in ring_elements] for r in range(n)]
    ring = CoefficientRing(module, tuple(ring_elements), ExactLinearSolver(rows))
    ok, _ = ring.contains(tower.one("l"))
    if not ok:
        raise RuntimeError("coefficient ring does not contain 1 (solver bug)")
    for i, a in enumerate(ring_elements):
        if not is_algebraic_integer(a):
            raise RuntimeError("coefficient ring escaped O_l (solver bug)")
        for b in ring_elements[i:]:
            if not ring.contains(a * b)[0]:
                raise RuntimeError("coefficient ring is not closed (solver bug)")
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


def _candidate_orders(degree: int):
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
    top = max(_candidate_orders(degree))
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
        orders = [n for n in _candidate_orders(degree) if n % 2 == 0]
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


def _float_rank(rows, tol=1e-8) -> int:
    work = [list(map(float, r)) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = max(range(rank, len(work)), key=lambda i: abs(work[i][col]), default=None)
        if piv is None or abs(work[piv][col]) < tol:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivval = work[rank][col]
        work[rank] = [v / pivval for v in work[rank]]
        for i in range(len(work)):
            if i != rank:
                f = work[i][col]
                if f:
                    work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _log_matrix(units, places):
    return [[log_abs(u, w) for u in units] for w in places]


def _solve_least_squares(matrix_rows, target):
    """Normal-equations solve with full pivoting; returns (solution, residual)."""
    m = len(matrix_rows)
    s = len(matrix_rows[0]) if m else 0
    if s == 0:
        return [], max((abs(t) for t in target), default=0.0)
    gram = [[sum(matrix_rows[w][i] * matrix_rows[w][j] for w in range(m))
             for j in range(s)] for i in range(s)]
    rhs = [sum(matrix_rows[w][i] * target[w] for w in range(m)) for i in range(s)]
    idx = list(range(s))
    for col in range(s):
        piv = max(range(col, s), key=lambda i: abs(gram[i][col]))
        if abs(gram[piv][col]) < 1e-14:
            raise PrecisionError("unit log matrix is numerically singular")
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        idx[col], idx[piv] = idx[piv], idx[col]
        for i in range(col + 1, s):
            f = gram[i][col] / gram[col][col]
            gram[i] = [a - f * b for a, b in zip(gram[i], gram[col])]
            rhs[i] -= f * rhs[col]
    sol = [0.0] * s
    for i in range(s - 1, -1, -1):
        sol[i] = (rhs[i] - sum(gram[i][j] * sol[j] for j in range(i + 1, s))) / gram[i][i]
    residual = max(abs(sum(matrix_rows[w][j] * sol[j] for j in range(s)) - target[w])
                   for w in range(m))
    return sol, residual


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
    if units_l and _float_rank(_log_matrix(units_l, places_l)) != r_l:
        raise ValueError("supplied units not independent")
    if units_k and _float_rank(_log_matrix(units_k, places_k)) != r_k:
        raise ValueError("supplied units not independent")

    k_logs = _log_matrix(units_k, places_k) if units_k else [[] for _ in places_k]
    exponent_rows = []
    for u in units_l:
        nu = relative_norm(u)
        target = [log_abs(nu, v) for v in places_k]
        if r_k == 0:
            exponents = []
        else:
            sol, _ = _solve_least_squares(k_logs, target)
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
    if epsilons and _float_rank(_log_matrix(epsilons, places_l)) != len(epsilons):
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
    places_l = archimedean_places(tower, "l")
    log_rows = tuple(tuple(log_abs(e, w) for e in epsilons) for w in places_l)
    s = len(epsilons)
    if s != r_l - r_k:
        raise RuntimeError("relative unit count disagrees with the rank formula")
    if s and _float_rank(log_rows) != s:
        raise RuntimeError("relative units are multiplicatively dependent")
    for j in range(s):
        for fiber in place_fibers(tower):
            total = sum(log_rows[w.index][j] for w in fiber.members)
            if abs(total) > 1e-9:
                raise PrecisionError("relative unit log column leaves the balanced subspace")
    system = RelativeUnitSystem(module, epsilons, log_rows,
                                torsion_units(tower, "k"), (r_l, r_k, s))
    return system


def verify_rank(system: RelativeUnitSystem):
    """Recompute the rank triple from place counts and the log matrix."""
    tower = system.module.tower
    r_l = len(archimedean_places(tower, "l")) - 1
    r_k = len(archimedean_places(tower, "k")) - 1
    s = r_l - r_k
    if system.ranks != (r_l, r_k, s):
        raise ValueError("rank certificate failed")
    if len(system.epsilons) != s:
        raise ValueError("rank certificate failed")
    if s and _float_rank(system.log_matrix) != s:
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

"""Height reduction of norm equation solutions via unit-lattice rounding.

Given a solution mu of Norm(mu) = zeta*beta, the archimedean log vector of
mu is balanced against its fiber means, the balancing vector is written in
the span of the relative-unit log columns, the real exponents are rounded
to integers, and the corresponding exact unit power gamma produces an
equivalent solution gamma*mu whose height meets the bound
(1/2) sum h(eps_j) + h(beta)/[l:k].  In the rank-zero (CM) case no
reduction is possible and the height identity h(mu) = h(beta)/[l:k] is
verified instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASolutionError, PrecisionError, VerificationError
from .module_order import FullModule, RelativeUnitSystem, is_torsion_unit
from .number_field import FieldElement, is_algebraic_integer, relative_norm
from .places_heights import archimedean_places, log_abs, place_fibers, weil_height

__all__ = ["BalancedSubspaceVector", "ReductionReport", "balance_vector",
           "round_to_unit", "reduce_solution", "cm_height_identity"]

FIBER_TOL = 1e-9
SPAN_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class BalancedSubspaceVector:
    """A vector over the places of l whose fiber sums all vanish."""

    coords: tuple
    fiber_sums: tuple


@dataclass
class ReductionReport:
    """Full trace of one reduction."""

    mu_in: FieldElement
    gamma: FieldElement
    mu_out: FieldElement
    z: BalancedSubspaceVector
    u: tuple
    m: tuple
    height_in: float
    height_out: float
    bound: float
    zeta_prime: FieldElement
    bound_satisfied: bool
    rank_zero: bool = False
    cm_identity: tuple = None


def balance_vector(mu: FieldElement, system: RelativeUnitSystem) -> BalancedSubspaceVector:
    """z_w = (fiber mean of log|mu|) - log|mu|_w, fiber by fiber."""
    if mu.is_zero:
        raise ValueError("cannot balance the zero element")
    tower = system.module.tower
    places_l = archimedean_places(tower, "l")
    logs = [log_abs(mu, w) for w in places_l]
    coords = [0.0] * len(places_l)
    sums = []
    for fiber in place_fibers(tower):
        mean = sum(logs[w.index] for w in fiber.members) / len(fiber.members)
        for w in fiber.members:
            coords[w.index] = mean - logs[w.index]
        total = sum(coords[w.index] for w in fiber.members)
        sums.append(total)
        if abs(total) > FIBER_TOL:
            raise PrecisionError("balancing vector left the fiber-sum-zero subspace")
    return BalancedSubspaceVector(tuple(coords), tuple(sums))


def _round_half_toward_zero(x: float) -> int:
    import math

    floor = math.floor(x)
    frac = x - floor
    if frac > 0.5:
        return floor + 1
    if frac < 0.5:
        return floor
    return floor if x > 0 else floor + 1


def round_to_unit(z: BalancedSubspaceVector, system: RelativeUnitSystem):
    """Solve the unit-log system on z, round, and take the exact unit power.

    Returns (gamma, u, m) with gamma = prod eps_j^{m_j}, m_j = round(u_j)
    (ties toward zero), and u the solution of log_matrix * u = z.
    """
    from .module_order import _solve_least_squares

    s = len(system.epsilons)
    tower = system.module.tower
    if s == 0:
        residual = max((abs(c) for c in z.coords), default=0.0)
        if residual > SPAN_RESIDUAL_TOL:
            raise ValueError("z not in unit-log span: inconsistent system or precision failure")
        return tower.one("l"), (), ()
    u, residual = _solve_least_squares([list(r) for r in system.log_matrix], list(z.coords))
    if residual > SPAN_RESIDUAL_TOL:
        raise ValueError("z not in unit-log span: inconsistent system or precision failure")
    m = tuple(_round_half_toward_zero(x) for x in u)
    gamma = tower.one("l")
    for eps, mj in zip(system.epsilons, m):
        gamma = gamma * eps ** mj
    return gamma, tuple(u), m


def _torsion_quotient(value: FieldElement, beta: FieldElement, system: RelativeUnitSystem):
    """value / beta if it is a torsion unit of k, else None."""
    zeta = value / beta
    if is_torsion_unit(zeta) is None:
        return None
    return zeta


def reduce_solution(mu: FieldElement, beta: FieldElement, module: FullModule,
                    system: RelativeUnitSystem) -> ReductionReport:
    """Produce an equivalent solution satisfying the height bound.

    Raises NotASolutionError if Norm(mu) is not beta times a torsion unit,
    ValueError if mu lies outside the module or beta is not integral, and
    VerificationError if the output escapes the module, breaks the norm
    relation, or exceeds the height bound (a defect, never bad input).
    """
    tower = module.tower
    if mu.is_zero or mu.owner != "l":
        raise ValueError("mu must be a nonzero element of l")
    if beta.is_zero or beta.owner != "k":
        raise ValueError("beta must be a nonzero element of k")
    if not is_algebraic_integer(beta):
        raise ValueError("beta must be an algebraic integer")
    if not module.contains(mu)[0]:
        raise ValueError("element outside module")
    zeta = _torsion_quotient(relative_norm(mu), beta, system)
    if zeta is None:
        raise NotASolutionError("not a solution")

    height_in = weil_height(mu)
    bound = 0.5 * sum(weil_height(eps) for eps in system.epsilons) \
        + weil_height(beta) / tower.e
    z = balance_vector(mu, system)

    if system.rank == 0:
        identity = cm_height_identity(mu, beta, system)
        report = ReductionReport(
            mu_in=mu, gamma=tower.one("l"), mu_out=mu, z=z, u=(), m=(),
            height_in=height_in, height_out=height_in, bound=bound,
            zeta_prime=zeta, bound_satisfied=height_in <= bound + 1e-9,
            rank_zero=True, cm_identity=identity)
        if not report.bound_satisfied:
            raise VerificationError("height bound violated (implementation bug)")
        return report

    gamma, u, m = round_to_unit(z, system)
    mu_out = gamma * mu
    inside, coords = module.contains(mu_out)
    if not inside:
        raise VerificationError("reduced element escaped the module (implementation bug)")
    # cosmetic: make the leading (highest-index) nonzero module coordinate positive
    lead = next((c for c in reversed(coords) if c != 0), 1)
    if lead < 0:
        mu_out = -mu_out
        gamma = -gamma
    zeta_prime = _torsion_quotient(relative_norm(mu_out), beta, system)
    if zeta_prime is None:
        raise VerificationError("reduction broke the norm relation (implementation bug)")
    height_out = weil_height(mu_out)
    satisfied = height_out <= bound + 1e-9
    if not satisfied:
        raise VerificationError("height bound violated (implementation bug)")
    return ReductionReport(
        mu_in=mu, gamma=gamma, mu_out=mu_out, z=z, u=u, m=m,
        height_in=height_in, height_out=height_out, bound=bound,
        zeta_prime=zeta_prime, bound_satisfied=satisfied)


def cm_height_identity(mu: FieldElement, beta: FieldElement,
                       system: RelativeUnitSystem):
    """Check h(mu) = h(beta)/[l:k] in the rank-zero case.

    Also verifies the structural precondition that every archimedean place
    of k has exactly one place of l above it.
    """
    tower = system.module.tower
    if system.rank != 0:
        raise ValueError("height identity applies only to rank-zero systems")
    for fiber in place_fibers(tower):
        if len(fiber.members) != 1:
            raise ValueError("tower violates CM structure")
    if mu.is_zero:
        raise ValueError("mu must be nonzero")
    if _torsion_quotient(relative_norm(mu), beta, system) is None:
        raise NotASolutionError("not a solution")
    h_mu = weil_height(mu)
    h_beta_over_e = weil_height(beta) / tower.e
    return (h_mu, h_beta_over_e, abs(h_mu - h_beta_over_e) < 1e-9)

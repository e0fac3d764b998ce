"""Balancing, unit rounding, the reduction bound, and the CM identity."""

import math
import random
from fractions import Fraction

import pytest

from normform import (
    Poly,
    archimedean_log_vector,
    balance_vector,
    cm_height_identity,
    reduce_solution,
    relative_norm,
    round_to_unit,
    weil_height,
)
from normform.errors import NotASolutionError
from normform.places_heights import place_fibers
from normform.reduction import BalancedSubspaceVector

LN7_HALF = math.log(7) / 2


# -- balance_vector -----------------------------------------------------------


def test_balance_examples(pell_tower, pell_system):
    t = pell_tower
    z = balance_vector(t.l_element([13, 9]), pell_system)
    logs = archimedean_log_vector(t.l_element([13, 9]))
    mean = sum(logs) / 2
    assert abs(z.coords[0] - (mean - logs[0])) < 1e-12
    assert abs(z.coords[0] + z.coords[1]) < 1e-12
    assert abs(abs(z.coords[0]) - 1.1373108945653914) < 1e-9

    assert balance_vector(t.one("l"), pell_system).coords == (0.0, 0.0)

    z = balance_vector(t.l_element([3, 1]), pell_system)
    assert abs(abs(z.coords[0]) - 0.25593730754683686) < 1e-9


def test_balance_rejects_zero(pell_tower, pell_system):
    with pytest.raises(ValueError):
        balance_vector(pell_tower.zero("l"), pell_system)


def test_balance_fiber_sums_vanish(quartic_system):
    rng = random.Random(51)
    t = quartic_system.module.tower
    for _ in range(50):
        mu = t.l_element(Poly([rng.randint(-9, 9) for _ in range(4)]))
        if mu.is_zero:
            continue
        z = balance_vector(mu, quartic_system)
        for s in z.fiber_sums:
            assert abs(s) < 1e-9


# -- round_to_unit ---------------------------------------------------------------


def test_round_examples(pell_tower, pell_system):
    t = pell_tower
    h = weil_height(t.l_element([1, 1]))

    z = balance_vector(t.l_element([13, 9]), pell_system)
    gamma, u, m = round_to_unit(z, pell_system)
    assert m == (-3,)
    assert abs(u[0] + 2.580769179636) < 1e-9
    assert gamma == t.l_element([-7, 5])
    logs = archimedean_log_vector(gamma)
    discrepancy = sum(abs(a - b) for a, b in zip(logs, z.coords))
    assert discrepancy <= h + 1e-9

    zero = BalancedSubspaceVector((0.0, 0.0), (0.0,))
    gamma, u, m = round_to_unit(zero, pell_system)
    assert gamma == 1 and m == (0,)

    # z equal to a log column: exact solve, zero discrepancy
    col = tuple(row[0] for row in pell_system.log_matrix)
    gamma, u, m = round_to_unit(BalancedSubspaceVector(col, (0.0,)), pell_system)
    assert m == (1,) and gamma == t.l_element([1, 1])
    assert abs(u[0] - 1) < 1e-9


def test_round_rejects_off_span(quartic_system):
    # a vector with nonzero fiber sums is not in the unit-log span
    bad = BalancedSubspaceVector((1.0, 1.0, 1.0), ())
    with pytest.raises(ValueError, match="unit-log span"):
        round_to_unit(bad, quartic_system)


def test_round_ties_toward_zero():
    from normform.reduction import _round_half_toward_zero as rnd

    assert rnd(2.5) == 2 and rnd(-2.5) == -2
    assert rnd(0.5) == 0 and rnd(-0.5) == 0
    assert rnd(2.51) == 3 and rnd(-2.51) == -3
    assert rnd(1.49) == 1 and rnd(-1.49) == -1
    assert rnd(0.0) == 0
    # a tie perturbed in its last bits by the float solve is still a tie
    assert rnd(0.5000000000000001) == 0 and rnd(12.500000000000002) == 12
    assert rnd(-0.5000000000000001) == 0 and rnd(-2.4999999999999996) == -2
    assert rnd(2.500001) == 3 and rnd(-2.500001) == -3


def test_rounding_inequality_500_random(pell_system, quartic_system):
    # unit-lattice rounding: discrepancy bounded by the sum of unit heights
    for system, seed in ((pell_system, 61), (quartic_system, 62)):
        rng = random.Random(seed)
        budget = sum(weil_height(e) for e in system.epsilons)
        s = len(system.epsilons)
        for _ in range(250):
            y = [rng.randint(-4, 4) + rng.uniform(-0.5, 0.5) for _ in range(s)]
            z = tuple(sum(row[j] * y[j] for j in range(s))
                      for row in system.log_matrix)
            gamma, _, _ = round_to_unit(BalancedSubspaceVector(z, ()), system)
            logs = archimedean_log_vector(gamma)
            assert sum(abs(a - b) for a, b in zip(logs, z)) <= budget + 1e-9


def test_fiber_deviation_inequality_200_random(pell_system, quartic_system,
                                               gaussian_system, cyclotomic_system):
    systems = [(pell_system, 71), (quartic_system, 72),
               (gaussian_system, 73), (cyclotomic_system, 74)]
    for system, seed in systems:
        rng = random.Random(seed)
        module = system.module
        tower = module.tower
        budget = sum(weil_height(e) for e in system.epsilons)
        trials = 50
        for _ in range(trials):
            coords = [rng.randint(-9, 9) for _ in range(module.rank)]
            if not any(coords):
                coords[0] = 1
            mu = module.element_from_coordinates(coords)
            z = balance_vector(mu, system)
            gamma, _, _ = round_to_unit(z, system)
            logs = archimedean_log_vector(gamma * mu)
            total = 0.0
            for fiber in place_fibers(tower):
                mean = sum(logs[w.index] for w in fiber.members) / len(fiber.members)
                total += sum(abs(logs[w.index] - mean) for w in fiber.members)
            assert total <= budget + 1e-9


# -- reduce_solution ---------------------------------------------------------------


def test_reduce_pell_example(pell_tower, pell_module, pell_system):
    t = pell_tower
    report = reduce_solution(t.l_element([13, 9]), t.k_element([7]),
                             pell_module, pell_system)
    assert report.mu_out == t.l_element([-1, 2])
    assert report.m == (-3,)
    assert report.gamma == t.l_element([-7, 5])
    assert abs(report.height_out - LN7_HALF) < 1e-9
    assert abs(report.bound - 1.1932984712825423) < 1e-9
    assert report.bound_satisfied
    assert report.zeta_prime == -1
    # equivalence preserved: mu_out/mu_in is exactly the recorded unit power
    power = t.one("l")
    for eps, mj in zip(pell_system.epsilons, report.m):
        power = power * eps ** mj
    assert report.mu_out == report.gamma * report.mu_in
    assert report.gamma == power or report.gamma == -power


def test_reduce_small_example(pell_tower, pell_module, pell_system):
    t = pell_tower
    report = reduce_solution(t.l_element([3, 1]), t.k_element([7]),
                             pell_module, pell_system)
    assert report.m == (-1,)
    assert report.mu_out == t.l_element([-1, 2])
    assert abs(report.height_out - LN7_HALF) < 1e-9


def test_reduce_unit_input(pell_tower, pell_module, pell_system):
    t = pell_tower
    report = reduce_solution(t.l_element([1, 1]), t.k_element([1]),
                             pell_module, pell_system)
    assert report.height_out < 1e-12
    assert report.m == (-1,)
    assert abs(report.bound - 0.5 * weil_height(t.l_element([1, 1]))) < 1e-12


def test_reduce_error_paths(pell_tower, pell_module, pell_system):
    t = pell_tower
    with pytest.raises(NotASolutionError, match="not a solution"):
        reduce_solution(t.l_element([1, 1]), t.k_element([7]),
                        pell_module, pell_system)
    with pytest.raises(ValueError, match="element outside module"):
        reduce_solution(t.l_element([Fraction(1, 2), 1]), t.k_element([1]),
                        pell_module, pell_system)
    with pytest.raises(ValueError, match="algebraic integer"):
        reduce_solution(t.l_element([3, 1]), t.k_element([Fraction(7, 2)]),
                        pell_module, pell_system)


def test_reduce_norm_bookkeeping(pell_tower, pell_module, pell_system):
    # e * sum_{w|v} log|gamma mu|_w = log|beta|_v at each place v of k
    t = pell_tower
    beta = t.k_element([7])
    report = reduce_solution(t.l_element([13, 9]), beta, pell_module, pell_system)
    logs = archimedean_log_vector(report.mu_out)
    from normform import log_abs
    from normform.places_heights import archimedean_places

    for fiber in place_fibers(t):
        lhs = t.e * sum(logs[w.index] for w in fiber.members)
        rhs = log_abs(beta, fiber.v)
        assert abs(lhs - rhs) < 1e-9


def test_reduce_idempotent_height(pell_tower, pell_module, pell_system):
    t = pell_tower
    first = reduce_solution(t.l_element([13, 9]), t.k_element([7]),
                            pell_module, pell_system)
    second = reduce_solution(first.mu_out, t.k_element([7]),
                             pell_module, pell_system)
    assert abs(second.height_out - first.height_out) < 1e-9


def test_reduce_inflated_solutions(pell_tower, pell_module, pell_system):
    t = pell_tower
    eps = t.l_element([1, 1])
    base = t.l_element([3, 1])
    beta = t.k_element([7])
    bound = 0.5 * weil_height(eps) + weil_height(beta) / 2
    for n in range(-8, 9):
        mu = eps ** n * base
        report = reduce_solution(mu, beta, pell_module, pell_system)
        assert report.height_out <= bound + 1e-9


def test_reduce_nonmax_module(pell_tower, pell_nonmax_module, pell_nonmax_system):
    t = pell_tower
    eps = pell_nonmax_system.epsilons[0]
    beta = t.k_element([7])
    base = t.l_element([1, 2])          # 1 + 2*sqrt2, inside Z + 2*sqrt2*Z
    bound = 0.5 * weil_height(eps) + weil_height(beta) / 2
    assert abs(bound - (0.5 * 0.881373587019543 + LN7_HALF)) < 1e-9
    for n in range(-4, 5):
        report = reduce_solution(eps ** n * base, beta,
                                 pell_nonmax_module, pell_nonmax_system)
        assert report.height_out <= bound + 1e-9


def test_reduce_rank_zero_reports_identity(gaussian_tower, gaussian_module,
                                           gaussian_system):
    t = gaussian_tower
    report = reduce_solution(t.l_element([1, 1]), t.k_element([2]),
                             gaussian_module, gaussian_system)
    assert report.rank_zero
    assert report.mu_out == report.mu_in
    assert report.cm_identity is not None
    h_mu, h_b, equal = report.cm_identity
    assert equal and abs(h_mu - math.log(2) / 2) < 1e-9


# -- cm_height_identity ----------------------------------------------------------------


def test_cm_identity_gaussian(gaussian_tower, gaussian_system):
    t = gaussian_tower
    h_mu, h_b, equal = cm_height_identity(t.l_element([1, 1]), t.k_element([2]),
                                          gaussian_system)
    assert equal
    assert abs(h_mu - 0.34657359027997264) < 1e-9
    assert abs(h_b - 0.34657359027997264) < 1e-9

    h_mu, h_b, equal = cm_height_identity(t.l_element([0, 1]), t.one("k"),
                                          gaussian_system)
    assert equal and h_mu == 0.0 and h_b == 0.0


def test_cm_identity_cyclotomic(cyclotomic_tower, cyclotomic_system):
    t = cyclotomic_tower
    mu = t.l_element([1, -1])
    beta = t.k_element([Fraction(5, 2), Fraction(-1, 2)])
    assert relative_norm(mu) == beta
    h_mu, h_b, equal = cm_height_identity(mu, beta, cyclotomic_system)
    assert equal
    assert abs(h_mu - 0.402359478108525) < 1e-9
    assert abs(h_b - 0.402359478108525) < 1e-9


def test_cm_identity_requires_rank_zero(pell_system, pell_tower):
    with pytest.raises(ValueError, match="rank-zero"):
        cm_height_identity(pell_tower.l_element([3, 1]), pell_tower.k_element([7]),
                           pell_system)


def test_reduce_over_imaginary_base():
    # Q(zeta8) over Q(i): complex base places and 4-element base torsion
    from normform import FullModule, build_tower, relative_units, torsion_units

    t = build_tower(Poly([1, 0, 1]), Poly([1, 0, 0, 0, 1]), Poly([0, 0, 1]),
                    [Poly([1]), Poly([0, 1])], 128)
    module = FullModule(t, [t.l_element([1]), t.l_element([0, 1])])
    sqrt2_in_l = t.l_element([1, 1, 0, -1])        # 1 + sqrt2 = 1 + zeta8 - zeta8^3
    assert relative_norm(sqrt2_in_l) == -1
    system = relative_units(module, [sqrt2_in_l], [])
    assert system.ranks == (1, 0, 1)
    assert len(torsion_units(t, "k")) == 4
    rng = random.Random(55)
    budget = 0.5 * weil_height(system.epsilons[0]) + weil_height(t.one("k")) / 2
    for n in range(-3, 4):
        mu = system.epsilons[0] ** n * t.theta()
        report = reduce_solution(mu, t.one("k"), module, system)
        assert report.height_out <= budget + 1e-9
        assert report.height_out < 1e-12       # the class of a root of unity

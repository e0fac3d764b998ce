"""Acceptance suite: one test per criterion, one pass/fail line each.

Expected values tagged as derived are recomputed here from independent
oracles (integer brute force, place-sum height formula, orbit walks);
see notes in the individual tests where a recomputed oracle value is the
authority.
"""

import math
import random
import time
from fractions import Fraction

from normform import (
    Poly,
    archimedean_log_vector,
    balance_vector,
    cm_height_identity,
    coefficient_ring,
    enumerate_solutions,
    partition_classes,
    reduce_solution,
    round_to_unit,
    verify_rank,
    weil_height,
)
from normform.number_field import norm_to_q
from normform.places_heights import place_fibers
from normform.rational_core import least_squares
from normform.reduction import BalancedSubspaceVector

LN7 = math.log(7)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


# -- criterion 1: the height bound on the Pell corpus ---------------------------


def test_criterion_1_height_bound(pell_tower, pell_module, pell_system):
    t = pell_tower
    eps = t.l_element([1, 1])
    base = t.l_element([3, 1])
    beta = t.k_element([7])
    bound = 0.5 * weil_height(eps) + weil_height(beta) / 2
    assert abs(bound - 1.1932984712825423) < 1e-6

    started = time.monotonic()
    for n in range(-8, 9):
        report = reduce_solution(eps ** n * base, beta, pell_module, pell_system)
        assert report.height_out <= bound + 1e-9
    special = reduce_solution(t.l_element([13, 9]), beta, pell_module, pell_system)
    assert abs(special.height_out - LN7 / 2) < 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("criterion 1 (height bound, Pell corpus)",
            f"17 inflations reduced under {bound:.6f} in {elapsed:.3f}s; "
            f"13+9sqrt2 -> height {special.height_out:.6f}")


# -- criterion 2: the rank-zero height identity ----------------------------------


def test_criterion_2_rank_zero_identity(gaussian_tower, gaussian_system,
                                        cyclotomic_tower, cyclotomic_system):
    started = time.monotonic()
    g = gaussian_tower
    h_mu, h_b, equal = cm_height_identity(g.l_element([1, 1]), g.k_element([2]),
                                          gaussian_system)
    assert equal and abs(h_mu - h_b) < 1e-9
    assert abs(h_mu - 0.34657359027997264) < 1e-9

    c = cyclotomic_tower
    mu = c.l_element([1, -1])
    beta = c.k_element([Fraction(5, 2), Fraction(-1, 2)])
    h_mu2, h_b2, equal2 = cm_height_identity(mu, beta, cyclotomic_system)
    assert equal2 and abs(h_mu2 - h_b2) < 1e-9
    assert abs(h_mu2 - 0.402359478108525) < 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("criterion 2 (rank-zero identity)",
            f"Q(i): both sides {h_mu:.6f}; Q(zeta5): both sides {h_mu2:.6f}; "
            f"{elapsed:.3f}s")


# -- criterion 3: rank certificates ------------------------------------------------


def test_criterion_3_rank_certificates(pell_system, gaussian_system,
                                       cyclotomic_system, quartic_system):
    expected = {
        "Q(sqrt2)/Q": (pell_system, (1, 0, 1)),
        "Q(i)/Q": (gaussian_system, (0, 0, 0)),
        "Q(zeta5)/Q(sqrt5)": (cyclotomic_system, (1, 1, 0)),
        "Q(2^(1/4))/Q(sqrt2)": (quartic_system, (2, 1, 1)),
    }
    for name, (system, triple) in expected.items():
        assert verify_rank(system) == triple, name
        if triple[2]:
            assert least_squares(system.log_matrix)[2] == triple[2], name
    _report("criterion 3 (rank certificates)",
            "; ".join(f"{k} -> {v[1]}" for k, v in expected.items()))


# -- criterion 4: the rounding inequality -------------------------------------------


def test_criterion_4_rounding_inequality(pell_system, pell_nonmax_system,
                                         quartic_system):
    systems = [("Pell", pell_system, 91), ("Pell nonmax", pell_nonmax_system, 92),
               ("quartic", quartic_system, 93)]
    worst_overall = 0.0
    for name, system, seed in systems:
        assert system.rank >= 1
        rng = random.Random(seed)
        budget = sum(weil_height(e) for e in system.epsilons)
        s = len(system.epsilons)
        failures = 0
        for _ in range(500):
            y = [rng.randint(-4, 4) + rng.uniform(-0.5, 0.5) for _ in range(s)]
            z = tuple(sum(row[j] * y[j] for j in range(s))
                      for row in system.log_matrix)
            gamma, _, _ = round_to_unit(BalancedSubspaceVector(z, ()), system)
            logs = archimedean_log_vector(gamma)
            diff = sum(abs(a - b) for a, b in zip(logs, z))
            worst_overall = max(worst_overall, diff / budget)
            if diff > budget + 1e-9:
                failures += 1
        assert failures == 0, name
    _report("criterion 4 (rounding inequality)",
            f"500 trials x 3 systems, zero failures, worst ratio "
            f"{worst_overall:.4f} of budget")


# -- criterion 5: the fiber-deviation inequality --------------------------------------


def test_criterion_5_fiber_deviation(pell_system, gaussian_system,
                                     cyclotomic_system, quartic_system):
    systems = [("Pell", pell_system, 94), ("Gaussian", gaussian_system, 95),
               ("cyclotomic", cyclotomic_system, 96), ("quartic", quartic_system, 97)]
    for name, system, seed in systems:
        rng = random.Random(seed)
        module = system.module
        tower = module.tower
        budget = sum(weil_height(e) for e in system.epsilons)
        failures = 0
        for _ in range(200):
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
            if total > budget + 1e-9:
                failures += 1
        assert failures == 0, name
    _report("criterion 5 (fiber-deviation inequality)",
            "200 trials x 4 towers, zero failures")


# -- criterion 6: enumeration and classes ---------------------------------------------


def test_criterion_6_enumeration_classes(pell_module, pell_system, pell_tower,
                                         gaussian_module, gaussian_system,
                                         gaussian_tower):
    started = time.monotonic()

    # independent oracle: integer brute force over the stated box
    pell_oracle = {(x, y) for x in range(-13, 14) for y in range(-13, 14)
                   if (x, y) != (0, 0) and x * x - 2 * y * y in (7, -7)}
    result = enumerate_solutions(pell_module, pell_tower.k_element([7]), 13)
    assert {s.coords for s in result.solutions} == pell_oracle
    # NOTE: the brute-force oracle gives 24 here (the solutions are the sign
    # family of (1,2),(3,1),(5,3),(5,4),(11,8),(13,9)); a stated count of 18
    # is inconsistent with that oracle, so the oracle value is asserted.
    assert len(result.solutions) == len(pell_oracle) == 24
    result = partition_classes(result, pell_system)
    assert len(result.classes) == 2
    for cls in result.classes:
        assert abs(cls.representative.height_out - LN7 / 2) < 1e-9

    # orbit-walk verification: the two classes are the unit orbits of 3 +- sqrt2
    eps = pell_system.epsilons[0]
    orbits = []
    for seed_coeffs in ([3, 1], [3, -1]):
        orbit = set()
        mu = pell_tower.l_element(seed_coeffs)
        for sign in (1, -1):
            el = mu * sign
            for direction in (eps, eps.inverse()):
                walker = el
                while True:
                    ok, coords = pell_module.contains(walker)
                    coords = tuple(int(c) for c in coords)
                    if not all(abs(c) <= 13 for c in coords):
                        break
                    orbit.add(coords)
                    walker = walker * direction
        orbits.append(orbit)
    assert orbits[0] | orbits[1] == pell_oracle
    assert not orbits[0] & orbits[1]
    class_sets = [set(result.solutions[i].coords for i in cls.member_indices)
                  for cls in result.classes]
    assert {frozenset(s) for s in class_sets} == {frozenset(o) for o in orbits}

    gauss_oracle = {(x, y) for x in range(-2, 3) for y in range(-2, 3)
                    if (x, y) != (0, 0) and x * x + y * y == 2}
    gresult = enumerate_solutions(gaussian_module, gaussian_tower.k_element([2]), 2)
    assert {s.coords for s in gresult.solutions} == gauss_oracle
    # NOTE: x^2 + y^2 = 2 has exactly the 4 integer solutions (+-1, +-1); a
    # stated count of 8 is inconsistent with the brute-force oracle.
    assert len(gresult.solutions) == len(gauss_oracle) == 4
    gresult = partition_classes(gresult, gaussian_system)
    assert len(gresult.classes) == 1
    assert len(gresult.classes[0].member_indices) == 4

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("criterion 6 (enumeration + classes)",
            f"Pell: 24 solutions (oracle-verified; stated 18 conflicts with "
            f"the oracle), 2 classes at height ln(7)/2; Gaussian: 4 solutions "
            f"(stated 8 conflicts), 1 class; {elapsed:.3f}s")


# -- criterion 7: height oracle equivalence --------------------------------------------


def test_criterion_7_height_oracles(pell_tower):
    t = pell_tower
    rng = random.Random(98)
    checked_rationals = 0
    while checked_rationals < 50:
        p = rng.randint(-1000, 1000)
        q = rng.randint(1, 1000)
        if p == 0:
            continue
        h = weil_height(t.l_element([Fraction(p, q)]))
        g = math.gcd(abs(p), q)
        assert abs(h - math.log(max(abs(p) // g, q // g))) < 1e-9
        checked_rationals += 1

    checked_integers = 0
    while checked_integers < 100:
        mu = t.l_element(Poly([rng.randint(-40, 40), rng.randint(-40, 40)]))
        if mu.is_zero:
            continue
        logs = archimedean_log_vector(mu)
        oracle = 0.5 * (sum(abs(v) for v in logs)
                        + math.log(abs(float(norm_to_q(mu)))) / 2)
        assert abs(weil_height(mu) - oracle) < 1e-9
        checked_integers += 1
    _report("criterion 7 (height oracles)",
            "50 rationals vs log max(|p|,|q|); 100 integers vs place-sum "
            "+ norm-valuation oracle")


# -- criterion 8: the non-maximal order path -------------------------------------------


def test_criterion_8_nonmaximal_order(pell_tower, pell_nonmax_module,
                                      pell_nonmax_system):
    t = pell_tower
    ring = coefficient_ring(pell_nonmax_module)
    # O_M = Z + 2 sqrt2 Z: same lattice as M itself
    for z in pell_nonmax_module.z_basis:
        assert ring.contains(z)[0]
    for r in ring.ring_z_basis:
        assert pell_nonmax_module.contains(r)[0]
    assert not ring.contains(t.l_element([0, 1]))[0]    # sqrt2 is not a multiplier

    (eps,) = pell_nonmax_system.epsilons
    assert eps == t.l_element([3, 2])                   # least power of 1+sqrt2
    h_eps = weil_height(eps)
    assert abs(h_eps - 0.881373587019543) < 1e-6

    beta = t.k_element([7])
    bound = 0.5 * h_eps + weil_height(beta) / 2
    base = t.l_element([1, 2])
    for n in range(-6, 7):
        report = reduce_solution(eps ** n * base, beta,
                                 pell_nonmax_module, pell_nonmax_system)
        assert report.height_out <= bound + 1e-9
    _report("criterion 8 (non-maximal order)",
            f"O_M = Z + 2sqrt2 Z, eps = 3+2sqrt2, h = {h_eps:.6f}, "
            f"bound {bound:.6f} holds on 13 inflations")

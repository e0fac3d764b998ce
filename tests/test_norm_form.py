"""Norm form expansion, solution enumeration, equivalence classes."""

import math
import random
from fractions import Fraction

import pytest

from normform import (
    FullModule,
    Poly,
    check_solution,
    enumerate_solutions,
    norm_form_poly,
    partition_classes,
    relative_norm,
)
from normform.number_field import embed_k_in_l

LN7_HALF = math.log(7) / 2


def brute_force_pell(bound, rhs):
    """Independent oracle: integer brute force for x^2 - 2 y^2 = +-rhs."""
    out = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and x * x - 2 * y * y in (rhs, -rhs):
                out.add((x, y))
    return out


def brute_force_gauss(bound, rhs):
    out = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) != (0, 0) and x * x + y * y == rhs:
                out.add((x, y))
    return out


# -- norm_form_poly ----------------------------------------------------------------


def test_norm_form_pell(pell_module):
    form = norm_form_poly(pell_module)
    assert dict(form.as_strings()) == {"x1^2": "1", "x2^2": "-2"}


def test_norm_form_gaussian(gaussian_module):
    form = norm_form_poly(gaussian_module)
    assert dict(form.as_strings()) == {"x1^2": "1", "x2^2": "1"}


def test_norm_form_degree_one():
    from normform import build_tower

    t = build_tower(Poly([-2, 0, 1]), Poly([-2, 0, 1]), Poly([0, 1]),
                    [Poly([1]), Poly([0, 1])], 96)
    m = FullModule(t, [t.l_element([1])])
    form = norm_form_poly(m)
    assert dict(form.as_strings()) == {"x1^1": "1"}


def test_norm_form_matches_relative_norm(pell_module, cyclotomic_module,
                                         quartic_module):
    for module, seed in ((pell_module, 81), (cyclotomic_module, 82),
                         (quartic_module, 83)):
        tower = module.tower
        form = norm_form_poly(module)
        rng = random.Random(seed)
        for _ in range(100):
            nu = [tower.k_element(Poly([rng.randint(-5, 5) for _ in range(tower.f)]))
                  for _ in range(tower.e)]
            mu = tower.zero("l")
            for om, v in zip(module.omega_basis, nu):
                mu = mu + om * embed_k_in_l(v)
            assert form.evaluate(nu) == relative_norm(mu)


def test_norm_form_homogeneous(cyclotomic_module):
    tower = cyclotomic_module.tower
    form = norm_form_poly(cyclotomic_module)
    rng = random.Random(84)
    for _ in range(30):
        nu = [tower.k_element(Poly([rng.randint(-4, 4), rng.randint(-4, 4)]))
              for _ in range(tower.e)]
        t_scalar = tower.k_element(Poly([rng.randint(1, 5)]))
        scaled = [t_scalar * v for v in nu]
        assert form.evaluate(scaled) == t_scalar ** tower.e * form.evaluate(nu)


# -- check_solution ------------------------------------------------------------------


def test_check_solution_examples(pell_module, pell_tower):
    beta = pell_tower.k_element([7])
    ok, zeta = check_solution([3, 1], beta, pell_module)
    assert ok and zeta == 1
    ok, zeta = check_solution([1, 2], beta, pell_module)
    assert ok and zeta == -1
    ok, zeta = check_solution([1, 1], beta, pell_module)
    assert not ok and zeta is None


def test_check_solution_zeta_mode_one(pell_module, pell_tower):
    beta = pell_tower.k_element([7])
    ok, _ = check_solution([1, 2], beta, pell_module, zeta_mode="one")
    assert not ok
    ok, zeta = check_solution([3, 1], beta, pell_module, zeta_mode="one")
    assert ok and zeta == 1


def test_check_solution_rejects_zero_vector(pell_module, pell_tower):
    with pytest.raises(ValueError, match="zero vector"):
        check_solution([0, 0], pell_tower.k_element([7]), pell_module)


# -- enumerate_solutions ---------------------------------------------------------------


def test_enumerate_pell_bound5(pell_module, pell_tower):
    result = enumerate_solutions(pell_module, pell_tower.k_element([7]), 5)
    got = {s.coords for s in result.solutions}
    assert got == brute_force_pell(5, 7)
    assert len(got) == 16


def test_enumerate_gaussian(gaussian_module, gaussian_tower):
    result = enumerate_solutions(gaussian_module, gaussian_tower.k_element([2]), 1)
    got = {s.coords for s in result.solutions}
    assert got == brute_force_gauss(1, 2)
    assert len(got) == 4
    assert brute_force_gauss(5, 2) == got    # nothing new in a bigger box


def test_enumerate_insoluble(pell_module, pell_tower):
    result = enumerate_solutions(pell_module, pell_tower.k_element([3]), 20)
    assert result.solutions == ()
    assert brute_force_pell(20, 3) == set()


def test_enumerate_box_cap(pell_module, pell_tower):
    with pytest.raises(ValueError, match="search box too large"):
        enumerate_solutions(pell_module, pell_tower.k_element([7]), 10 ** 6)


def test_enumerate_nonmax_box(pell_nonmax_module, pell_tower):
    # coordinates live on the module basis {1, 2*sqrt2}: x^2 - 8 y^2 = +-7
    result = enumerate_solutions(pell_nonmax_module, pell_tower.k_element([7]), 5)
    got = {s.coords for s in result.solutions}
    expect = {(x, y) for x in range(-5, 6) for y in range(-5, 6)
              if (x, y) != (0, 0) and x * x - 8 * y * y in (7, -7)}
    assert got == expect
    assert (1, 1) in got


# -- partition_classes -----------------------------------------------------------------


def test_partition_pell_two_classes(pell_module, pell_system, pell_tower):
    result = enumerate_solutions(pell_module, pell_tower.k_element([7]), 13)
    result = partition_classes(result, pell_system)
    assert len(result.classes) == 2
    members = sorted(len(c.member_indices) for c in result.classes)
    assert members == [12, 12]
    covered = sorted(i for c in result.classes for i in c.member_indices)
    assert covered == list(range(len(result.solutions)))
    for cls in result.classes:
        assert abs(cls.representative.height_out - LN7_HALF) < 1e-9
        assert cls.representative.bound_satisfied


def test_partition_negation_same_class(pell_module, pell_system, pell_tower):
    from normform.norm_form import equivalent_solutions

    mu = pell_tower.l_element([3, 1])
    assert equivalent_solutions(mu, -mu, pell_system)
    # the conjugate family is genuinely inequivalent
    assert not equivalent_solutions(mu, pell_tower.l_element([3, -1]), pell_system)


def test_partition_gaussian_single_class(gaussian_module, gaussian_system,
                                         gaussian_tower):
    result = enumerate_solutions(gaussian_module, gaussian_tower.k_element([2]), 1)
    result = partition_classes(result, gaussian_system)
    assert len(result.classes) == 1
    assert len(result.classes[0].member_indices) == 4


def test_partition_empty_rejected(pell_module, pell_system, pell_tower):
    empty = enumerate_solutions(pell_module, pell_tower.k_element([3]), 5)
    with pytest.raises(ValueError, match="empty"):
        partition_classes(empty, pell_system)


def test_class_closure(pell_module, pell_system, pell_tower):
    # epsilon and torsion action lands in the same class or leaves the box
    bound = 13
    result = enumerate_solutions(pell_module, pell_tower.k_element([7]), bound)
    result = partition_classes(result, pell_system)
    class_of = {}
    for ci, cls in enumerate(result.classes):
        for i in cls.member_indices:
            class_of[result.solutions[i].coords] = ci
    eps = pell_system.epsilons[0]
    for sol in result.solutions:
        for mult in (eps, eps.inverse(), -pell_tower.one("l")):
            moved = mult * sol.mu
            ok, coords = pell_module.contains(moved)
            assert ok
            coords = tuple(int(c) for c in coords)
            if all(abs(c) <= bound for c in coords):
                assert class_of[coords] == class_of[sol.coords]


def test_representative_bound_cross_module(quartic_module, quartic_system,
                                           quartic_tower):
    from normform import weil_height

    t = quartic_tower
    beta = t.k_element([0, 1])           # sqrt2; norm(theta) = -sqrt2
    result = enumerate_solutions(quartic_module, beta, 2)
    assert result.solutions
    result = partition_classes(result, quartic_system)
    bound = 0.5 * sum(weil_height(e) for e in quartic_system.epsilons) \
        + weil_height(beta) / t.e
    for cls in result.classes:
        assert cls.representative.height_out <= bound + 1e-9

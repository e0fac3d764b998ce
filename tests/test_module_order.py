"""Full modules, coefficient rings, torsion units, relative unit systems."""

import math
import random
from fractions import Fraction

import pytest

from normform import (
    FullModule,
    Poly,
    build_tower,
    coefficient_ring,
    fundamental_unit_real_quadratic,
    is_torsion_unit,
    relative_norm,
    relative_units,
    relative_units_from_epsilons,
    torsion_units,
    verify_rank,
    weil_height,
)
from normform import module_order
from normform.errors import VerificationError
from normform.module_order import CoefficientRing, RelativeUnitSystem
from normform.places_heights import place_fibers
from normform.rational_core import least_squares


# -- FullModule / membership ---------------------------------------------------


def test_build_module_pell(pell_tower, pell_module):
    assert pell_module.rank == 2
    assert [z.as_string() for z in pell_module.z_basis] == ["1", "θ"]


def test_build_module_scaled(pell_tower):
    t = pell_tower
    m = FullModule(t, [t.l_element([1]), t.l_element([0, 2])])
    ok, coords = m.contains(t.l_element([1, 1]))
    assert not ok and coords == [1, Fraction(1, 2)]


def test_build_module_rejects_nonintegral(pell_tower):
    t = pell_tower
    with pytest.raises(ValueError, match="not contained in O_l"):
        FullModule(t, [t.l_element([1]), t.l_element([0, Fraction(1, 2)])])


def test_build_module_rejects_dependent(pell_tower):
    t = pell_tower
    with pytest.raises(ValueError, match="not k-linearly independent"):
        FullModule(t, [t.l_element([1]), t.l_element([3])])


def test_module_contains_examples(pell_module, pell_tower):
    t = pell_tower
    ok, coords = pell_module.contains(t.l_element([3, 1]))
    assert ok and coords == [3, 1]
    ok, coords = pell_module.contains(t.zero("l"))
    assert ok and coords == [0, 0]


# -- coefficient ring --------------------------------------------------------------


def lattices_equal(basis_a, basis_b, module):
    def contains_all(solver_elems, others):
        import normform.rational_core as rc

        rows = [[z.coeff_vector()[r] for z in solver_elems]
                for r in range(len(solver_elems))]
        solver = rc.ExactLinearSolver(rows)
        return all(all(c.denominator == 1 for c in solver.solve(o.coeff_vector()))
                   for o in others)

    return contains_all(basis_a, basis_b) and contains_all(basis_b, basis_a)


def test_coefficient_ring_maximal(pell_module):
    ring = coefficient_ring(pell_module)
    assert lattices_equal(ring.ring_z_basis, pell_module.z_basis, pell_module)


def test_coefficient_ring_nonmaximal(pell_nonmax_module):
    ring = coefficient_ring(pell_nonmax_module)
    assert lattices_equal(ring.ring_z_basis, pell_nonmax_module.z_basis,
                          pell_nonmax_module)


def test_coefficient_ring_gaussian(gaussian_module):
    ring = coefficient_ring(gaussian_module)
    assert lattices_equal(ring.ring_z_basis, gaussian_module.z_basis, gaussian_module)


def test_coefficient_ring_of_scaled_module(pell_tower):
    # M = 2*Z[sqrt2]: the multiplier ring is the full Z[sqrt2], not M
    t = pell_tower
    m = FullModule(t, [t.l_element([2]), t.l_element([0, 2])])
    ring = coefficient_ring(m)
    assert ring.contains(t.one("l"))[0]
    assert ring.contains(t.theta())[0]
    assert not m.contains(t.one("l"))[0]


def test_coefficient_ring_closure_is_exact(pell_nonmax_module):
    ring = coefficient_ring(pell_nonmax_module)
    for a in ring.ring_z_basis:
        for b in ring.ring_z_basis:
            ok, coords = ring.contains(a * b)
            assert ok and all(c.denominator == 1 for c in coords)


def _break_lattice(monkeypatch):
    real = module_order.lattice_hnf
    monkeypatch.setattr(module_order, "lattice_hnf", lambda vecs, dim: real(vecs, dim)[:-1])


def _break_integrality(monkeypatch):
    monkeypatch.setattr(module_order, "is_algebraic_integer", lambda alpha: False)


def _break_membership(first_answer):
    def patch(monkeypatch):
        answers = iter([first_answer])
        monkeypatch.setattr(CoefficientRing, "contains",
                            lambda self, alpha: (next(answers, False), None))
    return patch


@pytest.mark.parametrize("breaks,message", [
    (_break_lattice, "lattice is degenerate"),
    (_break_membership(False), "does not contain 1"),
    (_break_integrality, "escaped O_l"),
    (_break_membership(True), "is not closed"),
])
def test_coefficient_ring_invariants_raise_verification_error(
        breaks, message, pell_nonmax_module, monkeypatch):
    breaks(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        coefficient_ring(pell_nonmax_module)


def test_assemble_system_checks_raise_verification_error(pell_module, monkeypatch):
    real = module_order.integer_kernel
    # one relative unit too many: the rank formula no longer holds
    monkeypatch.setattr(module_order, "integer_kernel",
                        lambda rows, ncols=None: real(rows, ncols) * 2)
    t = pell_module.tower
    with pytest.raises(VerificationError, match="rank certificate failed"):
        relative_units(pell_module, [t.l_element([1, 1])], [])


# -- torsion ------------------------------------------------------------------------


def test_torsion_real_fields(pell_tower, quartic_tower):
    for tower in (pell_tower, quartic_tower):
        units = torsion_units(tower, "l")
        assert [u.as_string() for u in units] == ["1", "-1"]
        assert torsion_units(tower, "k")[0] == 1


def test_torsion_gaussian(gaussian_tower):
    units = torsion_units(gaussian_tower, "l")
    assert [u.as_string() for u in units] == ["1", "θ", "-1", "-θ"]


def test_torsion_cyclotomic5(cyclotomic_tower):
    units = torsion_units(cyclotomic_tower, "l")
    assert len(units) == 10
    orders = sorted(is_torsion_unit(u) for u in units)
    assert orders == [1, 2, 5, 5, 5, 5, 10, 10, 10, 10]
    # closed under multiplication
    assert all((a * b) in units for a in units for b in units)


def test_is_torsion_unit(gaussian_tower, pell_tower):
    g = gaussian_tower
    assert is_torsion_unit(g.l_element([0, 1])) == 4
    assert is_torsion_unit(g.l_element([-1])) == 2
    assert is_torsion_unit(g.one("l")) == 1
    assert is_torsion_unit(g.l_element([1, 1])) is None
    assert is_torsion_unit(pell_tower.l_element([1, 1])) is None
    assert is_torsion_unit(g.zero("l")) is None
    # on the unit circle but not integral, hence not torsion
    not_torsion = g.l_element([Fraction(3, 5), Fraction(4, 5)])
    assert is_torsion_unit(not_torsion) is None


# -- relative units -------------------------------------------------------------------


def test_relative_units_pell(pell_system):
    assert [e.as_string() for e in pell_system.epsilons] == ["θ + 1"]
    assert pell_system.ranks == (1, 0, 1)
    assert verify_rank(pell_system) == (1, 0, 1)


def test_relative_units_nonmax_power_search(pell_nonmax_system):
    assert [e.as_string() for e in pell_nonmax_system.epsilons] == ["2*θ + 3"]
    h = weil_height(pell_nonmax_system.epsilons[0])
    assert abs(h - math.log(3 + 2 * math.sqrt(2)) / 2) < 1e-9


def test_relative_units_gaussian(gaussian_system):
    assert gaussian_system.epsilons == ()
    assert verify_rank(gaussian_system) == (0, 0, 0)


def test_relative_units_cyclotomic(cyclotomic_system):
    assert verify_rank(cyclotomic_system) == (1, 1, 0)


def test_relative_units_quartic(quartic_system):
    assert verify_rank(quartic_system) == (2, 1, 1)
    (eps,) = quartic_system.epsilons
    t = quartic_system.module.tower
    expected = t.l_element([1, 0, 1]) * t.l_element([-1, 1]) ** 2
    assert eps == expected


def test_relative_units_rejects_dependent(quartic_module):
    t = quartic_module.tower
    u = t.l_element([-1, 1])
    with pytest.raises(ValueError, match="supplied units not independent"):
        relative_units(quartic_module, [u, u * u], [t.k_element([1, 1])])


def test_relative_units_rejects_wrong_count(pell_module):
    with pytest.raises(ValueError, match="need exactly"):
        relative_units(pell_module, [], [])


def test_relative_units_rejects_nonunit(pell_module):
    t = pell_module.tower
    with pytest.raises(ValueError, match="not a unit"):
        relative_units(pell_module, [t.l_element([3, 1])], [])


def test_relative_units_rejects_fractional_exponent(cyclotomic_module):
    # k-unit phi^3 cannot express the norm phi^2 with an integer exponent
    t = cyclotomic_module.tower
    golden_l = t.l_element([0, 0, -1, -1])
    phi_cubed = t.k_element([2, 1])           # 2 + sqrt5
    with pytest.raises(ValueError, match="precision failure or invalid unit data"):
        relative_units(cyclotomic_module, [golden_l], [phi_cubed])


def test_epsilon_invariants(pell_system, pell_nonmax_system, quartic_system):
    for system in (pell_system, pell_nonmax_system, quartic_system):
        module = system.module
        for eps in system.epsilons:
            # eps M = M, exactly
            assert module.stabilized_by(eps)
            # Norm_{l/k}(eps) is a listed torsion unit of k
            nrm = relative_norm(eps)
            assert any(nrm == t for t in system.torsion_k)
            # log columns sum to zero on every fiber
        for j in range(len(system.epsilons)):
            for fiber in place_fibers(module.tower):
                s = sum(system.log_matrix[w.index][j] for w in fiber.members)
                assert abs(s) < 1e-9


def test_relative_units_from_epsilons(pell_module):
    t = pell_module.tower
    system = relative_units_from_epsilons(pell_module, [t.l_element([1, 1])])
    assert verify_rank(system) == (1, 0, 1)
    with pytest.raises(ValueError, match="does not stabilize"):
        relative_units_from_epsilons(
            FullModule(t, [t.l_element([1]), t.l_element([0, 2])]),
            [t.l_element([1, 1])])


def test_verify_rank_detects_mismatch(pell_system):
    broken = RelativeUnitSystem(pell_system.module, pell_system.epsilons,
                                pell_system.log_matrix, pell_system.torsion_k,
                                (2, 1, 1))
    with pytest.raises(ValueError, match="rank certificate failed"):
        verify_rank(broken)


def test_rank_formula_across_corpus(pell_system, gaussian_system,
                                    cyclotomic_system, quartic_system):
    for system in (pell_system, gaussian_system, cyclotomic_system, quartic_system):
        r_l, r_k, s = system.ranks
        assert s == r_l - r_k == len(system.epsilons)
        if s:
            assert least_squares(system.log_matrix)[2] == s


# -- fundamental units -----------------------------------------------------------------


def test_fundamental_unit_sqrt2(pell_tower):
    # convenience helper works on any tower whose base is x^2 - d; here we
    # need one with a quadratic base, so build Q(sqrt2) as its own extension
    t = build_tower(Poly([-2, 0, 1]), Poly([-2, 0, 1]), Poly([0, 1]),
                    [Poly([1]), Poly([0, 1])], 96)
    u = fundamental_unit_real_quadratic(t)
    assert u.coeff_vector() == [1, 1]


def test_fundamental_unit_sqrt5(cyclotomic_tower):
    u = fundamental_unit_real_quadratic(cyclotomic_tower)
    assert u.coeff_vector() == [Fraction(1, 2), Fraction(1, 2)]


def test_fundamental_unit_sqrt3():
    t = build_tower(Poly([-3, 0, 1]), Poly([-3, 0, 1]), Poly([0, 1]),
                    [Poly([1]), Poly([0, 1])], 96)
    u = fundamental_unit_real_quadratic(t)
    assert u.coeff_vector() == [2, 1]       # 2 + sqrt3


def test_fundamental_unit_requires_quadratic(pell_tower):
    with pytest.raises(ValueError):
        fundamental_unit_real_quadratic(pell_tower)

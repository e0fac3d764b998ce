"""The one unit test of O_M: the module's regular representation.

``reference_stabilized_by`` is the former body of ``FullModule.stabilized_by``,
kept here as the reference: it inverts alpha in the field and tests alpha*z
and alpha^-1*z for membership on every Z-basis element z.  The table-based
test must agree with it on unit powers, torsion multiples, small and
non-integral elements and zero, and every caller must share one
multiplication table per module.
"""

import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normform import FieldElement, FullModule, Poly, build_tower, cli, relative_units
from normform.module_order import torsion_units
from normform.norm_form import enumerate_solutions, equivalent_solutions
from normform.problemfile import build_context, parse_problem
from normform.rational_core import integer_det

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def reference_stabilized_by(module, alpha):
    """True iff alpha*M = M, by field inversion and membership tests."""
    if alpha.is_zero:
        return False
    inv = alpha.inverse()
    for z in module.z_basis:
        if not module.contains(alpha * z)[0]:
            return False
        if not module.contains(inv * z)[0]:
            return False
    return True


@functools.lru_cache(maxsize=None)
def module_and_units(name):
    """(module, units to power): a corpus module with its relative units, the
    dependent-units problem with its supplied l-units (which need not lie in
    O_M), 2*Z[sqrt2] with 1+sqrt2, and Z + 2iZ, where i is torsion outside O_M."""
    if name == "2Z[sqrt2]":
        tower = build_tower(Poly([0, 1]), Poly([-2, 0, 1]), Poly([]), [Poly([1])], 128)
        module = FullModule(tower, [tower.l_element([2]), tower.l_element([0, 2])])
        return module, relative_units(module, [tower.l_element([1, 1])], []).epsilons
    if name == "Z+2iZ":
        tower = build_tower(Poly([0, 1]), Poly([1, 0, 1]), Poly([]), [Poly([1])], 128)
        return FullModule(tower, [tower.l_element([1]), tower.l_element([0, 2])]), ()
    ctx = build_context(parse_problem((PROBLEMS / name).read_text()))
    if "dependent" in name:
        return ctx.module, tuple(ctx.tower.l_element(p) for p in ctx.problem.units_l)
    return ctx.module, ctx.system.epsilons


MODULES = [p.name for p in sorted(PROBLEMS.glob("*.json"))] + ["2Z[sqrt2]", "Z+2iZ"]


@st.composite
def module_elements(draw):
    """(module name, kind, torsion index, exponents, coefficients)."""
    name = draw(st.sampled_from(MODULES))
    module, units = module_and_units(name)
    degree = module.rank
    coefficient = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
    return (name, draw(st.sampled_from(["unit", "small", "half", "half_theta", "zero"])),
            draw(st.integers(0, len(torsion_units(module.tower, "l")) - 1)),
            tuple(draw(st.integers(-6, 6)) for _ in units),
            tuple(draw(st.lists(coefficient, min_size=degree, max_size=degree))))


def element(spec):
    name, kind, t_index, exponents, coefficients = spec
    module, units = module_and_units(name)
    tower = module.tower
    if kind == "unit":
        alpha = torsion_units(tower, "l")[t_index]
        for eps, m in zip(units, exponents):
            alpha = alpha * eps ** m
        return alpha
    return {"small": lambda: tower.l_element(list(coefficients)),
            "half": lambda: tower.l_element([Fraction(1, 2)]),
            "half_theta": lambda: tower.l_element([0, Fraction(1, 2)]),
            "zero": lambda: tower.zero("l")}[kind]()


@settings(max_examples=200, deadline=None)
@given(spec=module_elements())
@example(spec=("pell_nonmax.json", "unit", 0, (1,), (0, 0)))
@example(spec=("Z+2iZ", "unit", 1, (), (0, 0)))
@example(spec=("2Z[sqrt2]", "unit", 1, (-3,), (0, 0)))
@example(spec=("quartic2_dependent_units.json", "unit", 0, (1, -2), (0, 0, 0, 0)))
@example(spec=("cyclotomic5.json", "unit", 7, (), (0, 0, 0, 0)))
def test_stabilized_by_agrees_with_the_reference(spec):
    module, _ = module_and_units(spec[0])
    alpha = element(spec)
    assert module.stabilized_by(alpha) == reference_stabilized_by(module, alpha)


def test_reference_sees_both_answers():
    pell_nonmax, (eps,) = module_and_units("pell_nonmax.json")
    root = eps.tower.l_element([1, 1])                  # eps = (1+sqrt2)^2
    assert not reference_stabilized_by(pell_nonmax, root)
    assert reference_stabilized_by(pell_nonmax, eps)
    z2i, _ = module_and_units("Z+2iZ")
    assert not z2i.stabilized_by(z2i.tower.l_element([0, 1]))
    assert z2i.stabilized_by(z2i.tower.l_element([-1]))


def test_stabilized_by_does_no_field_division(monkeypatch):
    calls = []
    real = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda self: calls.append(1) or real(self))
    for name in MODULES:
        module, units = module_and_units(name)
        for eps in units:
            module.stabilized_by(eps)
        module.stabilized_by(module.tower.l_element([Fraction(1, 2)]))
    assert calls == []


# -- one table per module ------------------------------------------------------------------


@pytest.fixture
def table_builds(monkeypatch):
    """The number of multiplication tables built while the test runs."""
    builds = []
    prop = vars(FullModule)["table"]
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda module: builds.append(module) or real(module))
    return builds


@pytest.mark.parametrize("name,bound", [("pell_nonmax.json", 20), ("quartic2.json", 2)])
def test_one_table_per_solve(table_builds, monkeypatch, tmp_path, name, bound):
    stabilized = []
    real = FullModule.stabilized_by
    monkeypatch.setattr(FullModule, "stabilized_by",
                        lambda self, alpha: stabilized.append(1) or real(self, alpha))
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(PROBLEMS / name), "--coeff-bound", str(bound),
                     "--output", str(out)]) == 0
    # the unit system and the class partition both read the table
    assert stabilized and '"class_count": 0' not in out.read_text()
    assert len(table_builds) == 1


def test_one_table_across_equivalence_calls(table_builds):
    ctx = build_context(parse_problem((PROBLEMS / "pell.json").read_text()))
    solutions = enumerate_solutions(ctx.module, ctx.beta(), 10).solutions
    a, b, c = (s.mu for s in solutions[:3])
    equivalent_solutions(a, b, ctx.system)
    equivalent_solutions(a, c, ctx.system)
    assert len(table_builds) == 1 and table_builds[0] is ctx.module


# -- the determinant -----------------------------------------------------------------------


def fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10 ** 12, 10 ** 12))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(rows=square_matrices())
@example(rows=[[0, 1], [1, 0]])
@example(rows=[[0, 0, 1], [0, 2, 3], [4, 5, 6]])
@example(rows=[[1, 2], [2, 4]])
def test_integer_det_matches_fraction_elimination(rows):
    assert integer_det(rows) == fraction_det(rows)


def test_unit_matrix_is_the_regular_representation():
    module, (eps,) = module_and_units("quartic2.json")
    matrix = module.unit_matrix(module.coordinates(eps))
    assert abs(integer_det(matrix)) == 1
    # column j holds the coordinates of eps*z_j
    for j, z in enumerate(module.z_basis):
        assert [row[j] for row in matrix] == module.coordinates(eps * z)
    assert module.unit_matrix(module.coordinates(eps + eps)) is None       # det 16

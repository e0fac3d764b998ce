"""The norm form compiled to integer columns, against the exact form.

``reference_box_solutions`` is the former box loop of ``enumerate_solutions``,
kept here as the reference: it evaluates the exact ``Fraction`` form at
every point.  The compiled enumeration must return the same ``Solution``
tuples on every corpus problem, and its integer columns divided by the
denominator must equal the exact form at any integer point.
"""

import functools
import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normform import FullModule, Poly, build_tower, enumerate_solutions, norm_form_poly
from normform.errors import VerificationError
from normform.module_order import torsion_units
from normform.norm_form import NormFormPoly, Solution
from normform.problemfile import build_context, parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
ALL_PROBLEMS = sorted(PROBLEMS.glob("*.json"))


def reference_box_solutions(module, beta, coeff_bound, zeta_mode):
    """The Fraction box loop: the exact form at every nonzero point."""
    tower = module.tower
    form = norm_form_poly(module)
    if zeta_mode == "one":
        targets = [(beta, tower.one("k"))]
    else:
        targets = [(t * beta, t) for t in torsion_units(tower, "k")]
    solutions = []
    rng = range(-coeff_bound, coeff_bound + 1)
    for coords in itertools.product(rng, repeat=module.rank):
        if not any(coords):
            continue
        nu = tower.k_elements(coords)
        value = form.evaluate(nu)
        for target, zeta in targets:
            if value == target:
                mu = module.element_from_coordinates(coords)
                solutions.append(Solution(tuple(coords), tuple(nu), mu, zeta))
                break
    return tuple(solutions)


@functools.lru_cache(maxsize=None)
def corpus_context(name):
    return build_context(parse_problem((PROBLEMS / name).read_text()))


@functools.lru_cache(maxsize=None)
def octic_module():
    """Q(2^(1/8)) over Q(sqrt2) with M = Z[theta]: e = 4, eight coordinates."""
    tower = build_tower(Poly([-2, 0, 1]), Poly([-2] + [0] * 7 + [1]), Poly([0] * 4 + [1]),
                        [Poly([1]), Poly([0, 1])], 128)
    return FullModule(tower, [tower.l_element([0] * i + [1]) for i in range(4)])


@functools.lru_cache(maxsize=None)
def compiled(module):
    form = norm_form_poly(module)
    return form, form.integer_form()


def assert_exact_at(module, coords):
    form, integer = compiled(module)
    exact = form.evaluate(module.tower.k_elements(coords)).coeff_vector()
    assert [Fraction(v, integer.denominator) for v in integer.values(coords)] == exact


@pytest.mark.parametrize("path", ALL_PROBLEMS, ids=lambda p: p.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_columns_equal_the_exact_form(path, data):
    module = corpus_context(path.name).module
    coords = tuple(data.draw(st.lists(st.integers(-40, 40), min_size=module.rank,
                                      max_size=module.rank)))
    assert_exact_at(module, coords)


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_integer_columns_equal_the_exact_form_octic(coords):
    assert_exact_at(octic_module(), tuple(coords))


def test_octic_form_has_86_integer_monomials():
    _, integer = compiled(octic_module())
    assert len(integer.variables) == 86
    assert all(len(idx) == 4 for idx in integer.variables)


def test_half_integral_basis_clears_a_denominator():
    # psi_2 = (1+sqrt5)/2: the compiled columns over Z-coordinates are
    # integral once multiplied by the denominator, and no smaller one works
    _, integer = compiled(corpus_context("cyclotomic5.json").module)
    assert integer.denominator > 1
    assert gcd(integer.denominator, *(c for col in integer.columns for c in col)) == 1


def test_non_integral_target_has_no_key():
    module = corpus_context("cyclotomic5.json").module
    _, integer = compiled(module)
    half = module.tower.k_element([Fraction(1, 2 * integer.denominator)])
    assert integer.scaled(half) is None


@pytest.mark.parametrize("zeta_mode", ["one", "any_torsion"])
@pytest.mark.parametrize("path", ALL_PROBLEMS, ids=lambda p: p.name)
def test_compiled_box_matches_the_fraction_loop(path, zeta_mode):
    ctx = corpus_context(path.name)
    module, beta = ctx.module, ctx.beta()
    top = 20 if module.rank == 2 else 3
    reference = reference_box_solutions(module, beta, top, zeta_mode)
    for bound in range(1, top + 1):
        # the box of a smaller bound is a sub-box, visited in the same order
        expect = tuple(s for s in reference if max(map(abs, s.coords)) <= bound)
        got = enumerate_solutions(module, beta, bound, zeta_mode=zeta_mode).solutions
        assert got == expect


def break_first_column(value):
    """An integer_form whose first monomial's phi^0 coefficient is `value`."""
    real = NormFormPoly.integer_form

    def broken(form):
        integer = real(form)
        columns = ((value,) + integer.columns[0][1:],) + integer.columns[1:]
        return replace(integer, columns=columns)

    return broken


def test_compiled_mismatch_raises_verification_error(monkeypatch):
    ctx = corpus_context("pell.json")
    # x1^2 now has coefficient 7 = beta, so (1, 0) hits though N(1) = 1
    monkeypatch.setattr(NormFormPoly, "integer_form", break_first_column(7))
    with pytest.raises(VerificationError, match="compiled norm form disagrees"):
        enumerate_solutions(ctx.module, ctx.beta(), 2)


def test_hits_are_evaluated_exactly_once_each(monkeypatch):
    ctx = corpus_context("pell.json")
    calls = []
    real = NormFormPoly.evaluate

    def counted(form, nu):
        calls.append(nu)
        return real(form, nu)

    monkeypatch.setattr(NormFormPoly, "evaluate", counted)
    result = enumerate_solutions(ctx.module, ctx.beta(), 13)
    assert len(calls) == len(result.solutions) == 24

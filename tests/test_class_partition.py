"""Solution equivalence on module coordinates, against the field-arithmetic test.

``reference_equivalent`` is the former body of ``equivalent_solutions``,
kept here as the reference: it divides in the field, takes the log vector of
the quotient, applies exact unit powers and finishes with
``is_torsion_unit`` and the field-arithmetic ``reference_stabilized_by``.
The coordinate test must agree with it on every ordered pair of corpus
solutions and on random unit and torsion multiples, and
``partition_classes`` must do none of that field work outside the reduction
of each class representative.
"""

import functools
import itertools
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normform import (
    FieldElement,
    FullModule,
    Poly,
    build_tower,
    cli,
    enumerate_solutions,
    partition_classes,
    relative_units,
)
from normform import norm_form
from normform.errors import VerificationError
from normform.module_order import is_torsion_unit, torsion_units
from normform.norm_form import equivalent_solutions
from normform.places_heights import archimedean_log_vector
from normform.problemfile import build_context, parse_problem
from normform.rational_core import SPAN_RESIDUAL_TOL, least_squares
from test_unit_matrix import reference_stabilized_by

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# the dependent-units problem has no relative unit system to partition with
CORPUS = [p for p in sorted(PROBLEMS.glob("*.json")) if "dependent" not in p.stem]


def reference_equivalent(a, b, system):
    """True iff b/a is a torsion multiple of an exact relative-unit power."""
    rest = b / a
    u, residual, _ = least_squares(system.log_matrix, archimedean_log_vector(rest))
    if residual > SPAN_RESIDUAL_TOL:
        return False
    for eps, mj in zip(system.epsilons, (round(x) for x in u)):
        rest = rest * eps ** (-mj)
    return is_torsion_unit(rest) is not None and reference_stabilized_by(system.module, rest)


@functools.lru_cache(maxsize=None)
def corpus_context(name):
    return build_context(parse_problem((PROBLEMS / name).read_text()))


@functools.lru_cache(maxsize=None)
def corpus_solutions(name, zeta_mode):
    """The solution set at the bounds of the compiled-form comparison."""
    ctx = corpus_context(name)
    top = 20 if ctx.module.rank == 2 else 3
    return enumerate_solutions(ctx.module, ctx.beta(), top, zeta_mode=zeta_mode)


@pytest.mark.parametrize("zeta_mode", ["one", "any_torsion"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_agrees_with_the_reference_on_every_corpus_pair(path, zeta_mode):
    system = corpus_context(path.name).system
    solutions = corpus_solutions(path.name, zeta_mode).solutions
    verdicts = Counter()
    for a, b in itertools.product(solutions, repeat=2):
        expect = reference_equivalent(a.mu, b.mu, system)
        assert equivalent_solutions(a.mu, b.mu, system) == expect, (a.coords, b.coords)
        verdicts[expect] += 1
    assert verdicts[True] >= len(solutions)       # every solution is equivalent to itself


@pytest.mark.parametrize("name", ["pell.json", "pell_nonmax.json", "gaussian.json",
                                  "quartic2.json", "cyclotomic5.json"])
def test_partition_matches_the_reference_classes(name):
    system = corpus_context(name).system
    result = partition_classes(corpus_solutions(name, "any_torsion"), system)
    solutions = result.solutions
    for cls in result.classes:
        witness = solutions[cls.member_indices[0]].mu
        for idx, sol in enumerate(solutions):
            assert (idx in cls.member_indices) == reference_equivalent(witness, sol.mu, system)


# -- random unit and torsion multiples --------------------------------------------------

# the generator of l/k's nontrivial automorphism, as coefficients of theta
# powers: it fixes k, so sigma(nu) has the norm of nu
AUTOMORPHISM = {
    "pell.json": [0, -1],
    "gaussian.json": [0, -1],
    "quartic2.json": [0, -1],
    "cyclotomic5.json": [-1, -1, -1, -1],      # zeta^4 = zeta^-1
}


def automorphism(name, alpha):
    """sigma(alpha), by Horner's rule in sigma(theta)."""
    tower = alpha.tower
    image = tower.l_element(AUTOMORPHISM[name])
    acc = tower.zero("l")
    for c in reversed(alpha.coeff_vector()):
        acc = acc * image + tower.l_element([c])
    return acc


@st.composite
def unit_multiple_pairs(draw):
    """(problem, nu, t index, m, kind, other) for the pair (t*eps^m*nu, nu'):
    t is a root of unity of l, m lies in [-6, 6], and nu' is nu, sigma(nu)
    (equal norm, often inequivalent) or the unrelated module element other."""
    name = draw(st.sampled_from(sorted(AUTOMORPHISM)))
    ctx = corpus_context(name)
    box = st.lists(st.integers(-4, 4), min_size=ctx.module.rank,
                   max_size=ctx.module.rank).filter(any).map(tuple)
    return (name, draw(box), draw(st.integers(0, len(torsion_units(ctx.tower, "l")) - 1)),
            tuple(draw(st.integers(-6, 6)) for _ in ctx.system.epsilons),
            draw(st.sampled_from(["same", "conjugate", "other"])), draw(box))


@settings(max_examples=120, deadline=None)
@given(spec=unit_multiple_pairs())
@example(spec=("gaussian.json", (2, 1), 0, (), "conjugate", (1, 0)))     # 2+i, 2-i
def test_agrees_with_the_reference_on_unit_multiples(spec):
    name, coords, t_index, exponents, kind, other = spec
    ctx = corpus_context(name)
    system, module = ctx.system, ctx.module
    nu = module.element_from_coordinates(coords)
    a = torsion_units(ctx.tower, "l")[t_index] * nu
    for eps, m in zip(system.epsilons, exponents):
        a = a * eps ** m
    b = {"same": nu, "conjugate": automorphism(name, nu),
         "other": module.element_from_coordinates(other)}[kind]
    for x, y in ((a, b), (b, a)):
        assert equivalent_solutions(x, y, system) == reference_equivalent(x, y, system)
    if kind == "same":
        assert equivalent_solutions(a, b, system)


def test_equal_norm_conjugates_can_be_inequivalent():
    ctx = corpus_context("gaussian.json")
    a, b = ctx.tower.l_element([2, 1]), ctx.tower.l_element([2, -1])
    assert not equivalent_solutions(a, b, ctx.system)
    assert not reference_equivalent(a, b, ctx.system)
    # 1+i and 1-i differ by the unit -i
    c, d = ctx.tower.l_element([1, 1]), ctx.tower.l_element([1, -1])
    assert equivalent_solutions(c, d, ctx.system)


# -- a root of unity that does not stabilize M -------------------------------------------


@functools.lru_cache(maxsize=None)
def z2i_system():
    """M = Z + 2iZ in Q(i): i is a root of unity with i*M not inside M."""
    tower = build_tower(Poly([0, 1]), Poly([1, 0, 1]), Poly([]), [Poly([1])], 128)
    module = FullModule(tower, [tower.l_element([1]), tower.l_element([0, 2])])
    return relative_units(module, [], [])


def test_torsion_ratio_outside_the_coefficient_ring_splits_classes():
    system = z2i_system()
    tower = system.module.tower
    two_i, minus_two = tower.l_element([0, 2]), tower.l_element([-2])
    assert not equivalent_solutions(two_i, minus_two, system)
    assert not reference_equivalent(two_i, minus_two, system)
    result = enumerate_solutions(system.module, tower.k_element([4]), 3)
    assert sorted(s.coords for s in result.solutions) == [(-2, 0), (0, -1), (0, 1), (2, 0)]
    result = partition_classes(result, system)
    classes = sorted(sorted(result.solutions[i].coords for i in c.member_indices)
                     for c in result.classes)
    assert classes == [[(-2, 0), (2, 0)], [(0, -1), (0, 1)]]


# -- the unit-matrix invariant ------------------------------------------------------------


def test_unit_that_does_not_stabilize_the_module_raises():
    ctx = corpus_context("pell_nonmax.json")
    # 1+sqrt2 is a unit of O_l, but (1+sqrt2)*1 has coordinate 1/2 on 2*sqrt2
    broken = replace(ctx.system, epsilons=(ctx.tower.l_element([1, 1]),))
    solutions = enumerate_solutions(ctx.module, ctx.beta(), 5)
    with pytest.raises(VerificationError, match="relative unit 1 does not act on the module"):
        partition_classes(solutions, broken)


# -- work counts --------------------------------------------------------------------------


@pytest.mark.parametrize("name,bound", [("pell.json", 60), ("cyclotomic5.json", 4)])
def test_partition_does_no_field_division_or_torsion_search(monkeypatch, tmp_path,
                                                            name, bound):
    depth = Counter()
    outside, total = Counter(), Counter()

    def scoped(key, fn):
        def wrapper(*args, **kwargs):
            total[key] += 1
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1
        return wrapper

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            total[key] += 1
            if depth["partition"] and not depth["reduce"]:
                outside[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "partition_classes",
                        scoped("partition", norm_form.partition_classes))
    monkeypatch.setattr(norm_form, "reduce_solution",
                        scoped("reduce", norm_form.reduce_solution))
    monkeypatch.setattr(FieldElement, "inverse", counted("inverse", FieldElement.inverse))
    monkeypatch.setattr(FullModule, "stabilized_by",
                        counted("stabilized_by", FullModule.stabilized_by))
    torsion_test = counted("is_torsion_unit", is_torsion_unit)
    for module in [m for n, m in sys.modules.items() if n.startswith("normform")]:
        if vars(module).get("is_torsion_unit") is is_torsion_unit:
            monkeypatch.setattr(module, "is_torsion_unit", torsion_test)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(PROBLEMS / name), "--coeff-bound", str(bound),
                     "--output", str(out)]) == 0
    # the counters are wired in: one partition, a reduction per class, and
    # torsion tests inside those reductions
    assert total["partition"] == 1 and total["reduce"] > 0
    assert total["is_torsion_unit"] > 0
    assert outside == Counter()

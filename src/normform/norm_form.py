"""Norm form polynomials, bounded solution enumeration, equivalence classes.

The norm form is expanded exactly: the coordinates are formal variables and
the determinant of the generic multiplication matrix is taken over k, so
every coefficient is an exact k-element.  Enumeration walks a coordinate
box on the form compiled to integer coefficients over the Z-coordinates of
M, and verifies every hit exactly in the field; equivalence of two
solutions is decided numerically on the unit-log system and then verified
exactly in the field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import lcm, prod
from operator import mul

from .errors import VerificationError
from .module_order import FullModule, RelativeUnitSystem, is_torsion_unit, torsion_units
from .number_field import FieldElement, embed_k_in_l, is_algebraic_integer, relative_norm
from .places_heights import archimedean_log_vector
from .rational_core import SPAN_RESIDUAL_TOL, least_squares
from .reduction import ReductionReport, reduce_solution

__all__ = ["NormFormPoly", "IntegerNormForm", "Solution", "SolutionClass", "SolutionSet",
           "norm_form_poly", "check_solution", "enumerate_solutions",
           "partition_classes"]

BOX_CAP = 10 ** 8


@dataclass(frozen=True)
class NormFormPoly:
    """Homogeneous degree-e form in e variables with exact k-coefficients."""

    module: FullModule
    monomials: tuple  # ((exponent tuple, k-element), ...)

    @property
    def degree(self) -> int:
        return self.module.tower.e

    def evaluate(self, nu) -> FieldElement:
        """Exact value at a vector of k-elements."""
        tower = self.module.tower
        nu = [v if isinstance(v, FieldElement) else tower.k_element([v]) for v in nu]
        acc = tower.zero("k")
        for expo, coeff in self.monomials:
            term = coeff
            for v, p in zip(nu, expo):
                for _ in range(p):
                    term = term * v
            acc = acc + term
        return acc

    def as_strings(self):
        return [("*".join([f"x{i+1}^{p}" for i, p in enumerate(expo) if p]) or "1",
                 coeff.as_string()) for expo, coeff in self.monomials]

    def integer_form(self) -> "IntegerNormForm":
        """The form over the e*f Z-coordinates x_{i*f+j} of M, where
        nu_i = sum_j x_{i*f+j} psi_j, with its denominators cleared."""
        tower = self.module.tower
        f = tower.f
        # powers[p]: (sum_j psi_j y_j)^p as {exponents of y_0..y_{f-1}: k-element}
        powers = [{(0,) * f: tower.one("k")}]
        for _ in range(self.degree):
            powers.append(_mul_by_linear(powers[-1], tower.psi_basis))
        expanded = {}
        for expo, coeff in self.monomials:
            for combo in itertools.product(*(powers[p].items() for p in expo)):
                key = sum((part for part, _ in combo), ())
                term = coeff
                for _, c in combo:
                    term = term * c
                expanded[key] = expanded[key] + term if key in expanded else term
        terms = sorted(((k, v.coeff_vector()) for k, v in expanded.items() if not v.is_zero),
                       reverse=True)
        denominator = lcm(*(c.denominator for _, vec in terms for c in vec))
        variables = tuple(tuple(v for v, p in enumerate(expo) for _ in range(p))
                          for expo, _ in terms)
        columns = tuple(tuple(int(vec[power] * denominator) for _, vec in terms)
                        for power in range(f))
        return IntegerNormForm(variables, columns, denominator)


@dataclass(frozen=True)
class IntegerNormForm:
    """A norm form as integer coefficient columns over the Z-coordinates of M.

    Monomial m is the product of the coordinates listed in variables[m]
    (with multiplicity); columns[p][m] is `denominator` times its coefficient
    of phi^p.
    """

    variables: tuple
    columns: tuple
    denominator: int

    def values(self, coords) -> tuple:
        """`denominator` times the phi-power coefficients of the form at an
        integer coordinate vector."""
        monos = [prod(map(coords.__getitem__, idx)) for idx in self.variables]
        return tuple(sum(map(mul, column, monos)) for column in self.columns)

    def scaled(self, alpha: FieldElement):
        """`denominator` times alpha's coefficient vector, or None when that
        is not integral (then no integer point can take the value alpha)."""
        vec = [c * self.denominator for c in alpha.coeff_vector()]
        if any(c.denominator != 1 for c in vec):
            return None
        return tuple(int(c) for c in vec)


@dataclass(frozen=True)
class Solution:
    coords: tuple          # integer coordinates over the Z-basis of M
    nu: tuple              # the e coordinates over O_k, as k-elements
    mu: FieldElement
    zeta: FieldElement


@dataclass(frozen=True)
class SolutionClass:
    member_indices: tuple
    representative: ReductionReport


@dataclass(frozen=True)
class SolutionSet:
    beta: FieldElement
    solutions: tuple
    search_box: int
    norm_form: NormFormPoly
    classes: tuple = None


def _mul_by_linear(poly, linear):
    """Multiply a monomial dict by a linear form (list of k-coeffs per var)."""
    out = {}
    for expo, coeff in poly.items():
        for i, c in enumerate(linear):
            if c.is_zero:
                continue
            new = list(expo)
            new[i] += 1
            key = tuple(new)
            prev = out.get(key)
            term = coeff * c
            out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if not v.is_zero}


def norm_form_poly(module: FullModule) -> NormFormPoly:
    """Expand the norm form exactly as a generic multiplication determinant."""
    tower = module.tower
    e = tower.e
    # c[i][n][m]: k-coefficient of omega_m in omega_i * omega_n
    coeffs = [[tower.k_elements(module.coordinates(om_i * om_n))
               for om_n in module.omega_basis] for om_i in module.omega_basis]
    # entry (m, n) of the generic matrix is the linear form sum_i c[i][n][m] x_i
    entry = [[[coeffs[i][n][m] for i in range(e)] for n in range(e)] for m in range(e)]
    one_poly = {tuple([0] * e): tower.one("k")}
    memo = {}

    def minor(row, cols):
        if not cols:
            return one_poly
        key = cols
        if key in memo:
            return memo[key]
        acc = {}
        sign = 1
        for pos, col in enumerate(sorted(cols)):
            sub = minor(row + 1, cols - frozenset([col]))
            term = _mul_by_linear(sub, entry[row][col])
            for expo, coeff in term.items():
                signed = coeff if sign > 0 else -coeff
                prev = acc.get(expo)
                acc[expo] = signed if prev is None else prev + signed
            sign = -sign
        acc = {k: v for k, v in acc.items() if not v.is_zero}
        memo[key] = acc
        return acc

    form = minor(0, frozenset(range(e)))
    monomials = tuple(sorted(form.items(), key=lambda kv: kv[0], reverse=True))
    return NormFormPoly(module, monomials)


def check_solution(nu, beta: FieldElement, module: FullModule,
                   zeta_mode: str = "any_torsion"):
    """Test one coordinate vector: returns (is_solution, zeta or None)."""
    tower = module.tower
    if beta.is_zero or not is_algebraic_integer(beta):
        raise ValueError("beta must be a nonzero algebraic integer")
    nu = [v if isinstance(v, FieldElement) else tower.k_element([v]) for v in nu]
    if len(nu) != tower.e:
        raise ValueError("coordinate vector has the wrong length")
    if all(v.is_zero for v in nu):
        raise ValueError("zero vector is not a solution candidate")
    for v in nu:
        if not is_algebraic_integer(v):
            raise ValueError("coordinates must be algebraic integers in k")
    mu = tower.zero("l")
    for om, v in zip(module.omega_basis, nu):
        mu = mu + om * embed_k_in_l(v)
    zeta = relative_norm(mu) / beta
    if zeta_mode == "one":
        return (zeta == 1), (zeta if zeta == 1 else None)
    if is_torsion_unit(zeta) is None:
        return False, None
    return True, zeta


def enumerate_solutions(module: FullModule, beta: FieldElement, coeff_bound: int,
                        zeta_mode: str = "any_torsion") -> SolutionSet:
    """All solutions whose Z-basis coordinates are bounded by coeff_bound.

    Completeness is only relative to the box; the box is recorded in the
    result so callers can enlarge it.
    """
    tower = module.tower
    if beta.is_zero or not is_algebraic_integer(beta):
        raise ValueError("beta must be a nonzero algebraic integer")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    n = module.rank
    if (2 * coeff_bound + 1) ** n > BOX_CAP:
        raise ValueError("search box too large")
    form = norm_form_poly(module)
    compiled = form.integer_form()
    torsion = torsion_units(tower, "k")
    if zeta_mode == "one":
        targets = [(beta, tower.one("k"))]
    else:
        targets = [(t * beta, t) for t in torsion]
    lookup = {}
    for target, zeta in targets:
        key = compiled.scaled(target)
        if key is not None:
            lookup.setdefault(key, (target, zeta))
    solutions = []
    rng = range(-coeff_bound, coeff_bound + 1)
    # the zero point takes the value 0, which no target (a unit times
    # beta != 0) has, so it never hits
    for coords in itertools.product(rng, repeat=n):
        hit = lookup.get(compiled.values(coords))
        if hit is None:
            continue
        target, zeta = hit
        nu = tower.k_elements(coords)
        if form.evaluate(nu) != target:
            raise VerificationError(f"compiled norm form disagrees with the exact "
                                    f"form at coordinates {list(coords)}")
        solutions.append(Solution(coords, tuple(nu),
                                  module.element_from_coordinates(coords), zeta))
    return SolutionSet(beta, tuple(solutions), coeff_bound, form)


def equivalent_solutions(a: FieldElement, b: FieldElement,
                         system: RelativeUnitSystem) -> bool:
    """True iff b/a is a torsion multiple of an exact relative-unit power.

    The exponents come from the unit-log system on the log vector of b/a,
    rounded; the torsion and module-unit tests on the rest are exact.
    """
    rest = b / a
    u, residual, _ = least_squares(system.log_matrix, archimedean_log_vector(rest))
    if residual > SPAN_RESIDUAL_TOL:
        return False
    for eps, mj in zip(system.epsilons, (round(x) for x in u)):
        rest = rest * eps ** (-mj)
    return is_torsion_unit(rest) is not None and system.module.stabilized_by(rest)


def partition_classes(solution_set: SolutionSet,
                      system: RelativeUnitSystem) -> SolutionSet:
    """Group solutions into equivalence classes and reduce a representative."""
    if not solution_set.solutions:
        raise ValueError("cannot partition an empty solution set")
    module = system.module
    classes = []       # list of (witness index, [member indices])
    for idx, sol in enumerate(solution_set.solutions):
        for entry in classes:
            witness = solution_set.solutions[entry[0]]
            if equivalent_solutions(witness.mu, sol.mu, system):
                entry[1].append(idx)
                break
        else:
            classes.append((idx, [idx]))
    out = []
    for witness_idx, members in classes:
        witness = solution_set.solutions[witness_idx]
        report = reduce_solution(witness.mu, solution_set.beta, module, system)
        out.append(SolutionClass(tuple(members), report))
    return replace(solution_set, classes=tuple(out))

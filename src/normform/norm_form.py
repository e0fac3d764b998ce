"""Norm form polynomials, bounded solution enumeration, equivalence classes.

The norm form is expanded exactly: the coordinates are formal variables and
the determinant of the generic multiplication matrix is taken over k, so
every coefficient is an exact k-element.  Enumeration walks a coordinate
box on the form compiled to integer coefficients over the Z-coordinates of
M, and verifies every hit exactly in the field.  Equivalence of two
solutions takes its unit exponents from the unit-log system and is then
decided exactly on their Z-coordinates, through integer unit matrices and
the regular representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import lcm, prod
from operator import mul

from .errors import VerificationError
from .module_order import (
    FullModule,
    RelativeUnitSystem,
    is_torsion_unit,
    torsion_orders,
    torsion_units,
)
from .number_field import FieldElement, embed_k_in_l, is_algebraic_integer, relative_norm
from .places_heights import archimedean_log_vector
from .rational_core import SPAN_RESIDUAL_TOL, ExactLinearSolver, least_squares
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


class _CoordinateEquivalence:
    """Exact multiplication on M's Z-coordinates through the module's regular
    representation Reg (FullModule.regular), built once per partition."""

    def __init__(self, system: RelativeUnitSystem):
        module = self.module = system.module
        self.system = system
        self.top = max(torsion_orders(module.rank))
        self.units = []
        for idx, eps in enumerate(system.epsilons, 1):
            forward = module.unit_matrix(module.coordinates(eps))
            if forward is None:
                raise VerificationError(f"relative unit {idx} does not act on the module "
                                        f"by an integer matrix")
            # a relative unit stabilizes M: Reg(eps) has determinant +-1, so
            # Reg(eps)^-1 is integral too
            backward = [[int(v) for v in row] for row in ExactLinearSolver(forward).inverse_rows]
            self.units.append((forward, backward))
        self._inverses = {}

    def _inverse(self, coords):
        """(Q, s) with Reg(coords)^-1 = D * Q / s, Q as columns."""
        if coords not in self._inverses:
            rows = ExactLinearSolver(self.module.regular(coords)).inverse_rows
            scale = lcm(*(v.denominator for row in rows for v in row))
            self._inverses[coords] = (tuple(zip(*([int(v * scale) for v in row]
                                                  for row in rows))), scale)
        return self._inverses[coords]

    def point(self, coords, mu: FieldElement):
        """(integer coordinates, log vector) of a solution; the log vector is
        only read at positive relative rank."""
        return tuple(coords), (archimedean_log_vector(mu) if self.system.rank else ())

    def equivalent(self, a, b) -> bool:
        """The equivalence test on two points made by `point`.

        With eps^m rounded from the unit-log system, b ~ a iff rest =
        b*eps^-m/a is a root of unity with rest*M = M, that is iff
        R = Reg(rest) is an integer matrix with R^t = I for some t <= top.
        """
        system = self.system
        coords = b[0]
        if system.rank:
            target = [y - x for x, y in zip(a[1], b[1])]
            u, residual, _ = least_squares(system.log_matrix, target)
            if residual > SPAN_RESIDUAL_TOL:
                return False
            for (forward, backward), m in zip(self.units, (round(x) for x in u)):
                matrix = backward if m > 0 else forward
                for _ in range(abs(m)):
                    coords = [sum(map(mul, row, coords)) for row in matrix]
        # R = Reg(coords) * Reg(a)^-1 = (D * Reg(coords)) * Q / s
        columns, scale = self._inverse(a[0])
        rest_matrix = []
        for row in self.module.regular(coords):
            out = []
            for column in columns:
                value, remainder = divmod(sum(map(mul, row, column)), scale)
                if remainder:
                    return False
                out.append(value)
            rest_matrix.append(out)
        # Reg is injective and Reg(x) e_1 holds the coordinates of x*z_1, so
        # R^t = I iff R^t e_1 = e_1
        e1 = [1] + [0] * (len(rest_matrix) - 1)
        vector = e1
        for _ in range(self.top):
            vector = [sum(map(mul, row, vector)) for row in rest_matrix]
            if vector == e1:
                return True
        return False


def equivalent_solutions(a, b, system: RelativeUnitSystem, test=None) -> bool:
    """True iff b = t*eps^m*a for a root of unity t with t*M = M and an exact
    relative-unit power eps^m.

    a and b are l-elements, or, inside partition_classes, the points of two
    solutions made by the partition's shared _CoordinateEquivalence `test`.
    """
    if test is None:
        test = _CoordinateEquivalence(system)
        ca, cb = (system.module.coordinates(x) for x in (a, b))
        # d*a and d*b have integer coordinates and the same quotient
        d = lcm(*(c.denominator for c in ca + cb))
        a, b = (test.point([int(c * d) for c in cs], x) for cs, x in ((ca, a), (cb, b)))
    return test.equivalent(a, b)


def partition_classes(solution_set: SolutionSet,
                      system: RelativeUnitSystem) -> SolutionSet:
    """Group solutions into equivalence classes and reduce a representative."""
    if not solution_set.solutions:
        raise ValueError("cannot partition an empty solution set")
    module = system.module
    test = _CoordinateEquivalence(system)
    points = [test.point(sol.coords, sol.mu) for sol in solution_set.solutions]
    classes = []       # list of (witness index, [member indices])
    for idx, point in enumerate(points):
        for entry in classes:
            if equivalent_solutions(points[entry[0]], point, system, test):
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

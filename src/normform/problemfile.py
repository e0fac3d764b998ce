"""Problem files: the JSON interchange format for towers, modules, and data.

Rationals are strings "p/q" (or "p"), so files round-trip bit-exactly.
Field elements are coefficient vectors in powers of the field generator,
always shorter than the degree of the owning minimal polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .module_order import (
    FullModule,
    RelativeUnitSystem,
    relative_units,
    relative_units_from_epsilons,
)
from .number_field import FieldTower, build_tower
from .rational_core import Poly, rat_from_str, rat_to_str

__all__ = ["ProblemFile", "parse_problem", "serialize_problem", "ProblemContext"]

DEFAULT_PRECISION_BITS = 128
ZETA_MODES = ("any_torsion", "one")


@dataclass
class ProblemFile:
    base_minpoly: Poly
    integral_basis: list
    ext_minpoly: Poly
    k_generator_in_l: Poly
    module_basis: list
    beta: Poly = None
    mu: Poly = None
    units_l: list = None
    units_k: list = None
    relative_units: list = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    zeta_mode: str = "any_torsion"


def _parse_coeffs(raw, what: str) -> Poly:
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise ValueError(f"{what} must be a list of rational strings")
    try:
        return Poly([rat_from_str(v) for v in raw])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} has an invalid rational: {exc}") from None


def _parse_element(raw, what: str, max_degree: int) -> Poly:
    poly = _parse_coeffs(raw, what)
    if len(raw) > max_degree:
        raise ValueError(f"{what} has {len(raw)} coefficients; the owning "
                         f"minimal polynomial allows at most {max_degree}")
    return poly


def parse_problem(text) -> ProblemFile:
    """Parse a problem file from JSON text or an already-decoded dict."""
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    try:
        base = data["base_field"]
        ext = data["extension"]
        module_basis_raw = data["module_basis"]
    except KeyError as exc:
        raise ValueError(f"problem file is missing section {exc}") from None
    f_k = _parse_coeffs(base["minpoly"], "base minpoly")
    f_l = _parse_coeffs(ext["minpoly_over_Q"], "extension minpoly")
    deg_k, deg_l = f_k.degree, f_l.degree
    psi = [_parse_element(v, "integral basis element", deg_k)
           for v in base["integral_basis"]]
    phi_in_theta = _parse_element(ext["k_generator_in_l"], "k generator", deg_l)
    module_basis = [_parse_element(v, "module basis element", deg_l)
                    for v in module_basis_raw]

    def optional_elements(key, max_degree):
        if key not in data or data[key] is None:
            return None
        return [_parse_element(v, f"{key} element", max_degree) for v in data[key]]

    precision = _checked_precision(data.get("precision_bits", DEFAULT_PRECISION_BITS))
    zeta_mode = data.get("zeta_mode", "any_torsion")
    if zeta_mode not in ZETA_MODES:
        raise ValueError(f"zeta_mode must be one of {ZETA_MODES}")
    beta = data.get("beta")
    mu = data.get("mu")
    return ProblemFile(
        base_minpoly=f_k,
        integral_basis=psi,
        ext_minpoly=f_l,
        k_generator_in_l=phi_in_theta,
        module_basis=module_basis,
        beta=_parse_element(beta, "beta", deg_k) if beta is not None else None,
        mu=_parse_element(mu, "mu", deg_l) if mu is not None else None,
        units_l=optional_elements("units_l", deg_l),
        units_k=optional_elements("units_k", deg_k),
        relative_units=optional_elements("relative_units", deg_l),
        precision_bits=precision,
        zeta_mode=zeta_mode,
    )


def _element_strings(poly: Poly, degree: int):
    coeffs = [poly.coeff(i) for i in range(degree)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return [rat_to_str(c) for c in coeffs]


def problem_to_dict(pf: ProblemFile) -> dict:
    deg_k, deg_l = pf.base_minpoly.degree, pf.ext_minpoly.degree
    out = {
        "base_field": {
            "minpoly": [rat_to_str(pf.base_minpoly.coeff(i)) for i in range(deg_k + 1)],
            "integral_basis": [_element_strings(p, deg_k) for p in pf.integral_basis],
        },
        "extension": {
            "minpoly_over_Q": [rat_to_str(pf.ext_minpoly.coeff(i)) for i in range(deg_l + 1)],
            "k_generator_in_l": _element_strings(pf.k_generator_in_l, deg_l),
        },
        "module_basis": [_element_strings(p, deg_l) for p in pf.module_basis],
        "precision_bits": pf.precision_bits,
        "zeta_mode": pf.zeta_mode,
    }
    if pf.beta is not None:
        out["beta"] = _element_strings(pf.beta, deg_k)
    if pf.mu is not None:
        out["mu"] = _element_strings(pf.mu, deg_l)
    if pf.units_l is not None:
        out["units_l"] = [_element_strings(p, deg_l) for p in pf.units_l]
    if pf.units_k is not None:
        out["units_k"] = [_element_strings(p, deg_k) for p in pf.units_k]
    if pf.relative_units is not None:
        out["relative_units"] = [_element_strings(p, deg_l) for p in pf.relative_units]
    return out


def serialize_problem(pf: ProblemFile) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(problem_to_dict(pf), indent=2, sort_keys=True) + "\n"


@dataclass
class ProblemContext:
    """Everything a command needs, built once from a problem file."""

    problem: ProblemFile
    tower: FieldTower
    module: FullModule
    _system: RelativeUnitSystem = field(default=None, repr=False)

    @property
    def system(self) -> RelativeUnitSystem:
        if self._system is None:
            pf = self.problem
            if pf.relative_units is not None:
                eps = [self.tower.l_element(p) for p in pf.relative_units]
                self._system = relative_units_from_epsilons(self.module, eps)
            elif pf.units_l is not None:
                units_l = [self.tower.l_element(p) for p in pf.units_l]
                units_k = [self.tower.k_element(p) for p in (pf.units_k or [])]
                self._system = relative_units(self.module, units_l, units_k)
            else:
                raise ValueError("problem file supplies neither units_l nor relative_units")
        return self._system

    def beta(self):
        if self.problem.beta is None:
            raise ValueError("problem file has no beta")
        return self.tower.k_element(self.problem.beta)

    def mu(self):
        if self.problem.mu is None:
            raise ValueError("problem file has no mu")
        return self.tower.l_element(self.problem.mu)


def _checked_precision(precision):
    """The working precision in bits, from a problem file or the CLI flag."""
    if not isinstance(precision, int) or precision < 32:
        raise ValueError("precision_bits must be an integer >= 32")
    return precision


def build_context(pf: ProblemFile, precision_bits: int = None) -> ProblemContext:
    precision = _checked_precision(pf.precision_bits if precision_bits is None
                                   else precision_bits)
    tower = build_tower(pf.base_minpoly, pf.ext_minpoly, pf.k_generator_in_l,
                        pf.integral_basis, precision)
    module = FullModule(tower, [tower.l_element(p) for p in pf.module_basis])
    return ProblemContext(pf, tower, module)

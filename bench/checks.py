"""Exact checks of CLI reports, recomputed without ``normform``.

Norms and module coordinates are recomputed with ``bench.exact``; heights
come from an independent oracle: the characteristic polynomial from
``sympy``, its squarefree part, and the Mahler measure from
``mpmath.polyroots`` at four times the CLI's default 128-bit precision.
Every base field used here is real, so the roots of unity of k are +-1.
Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from . import exact

ORACLE_BITS = 4 * 128
HEIGHT_TOL = 1e-9


def _reported(coeff_strings) -> list:
    return exact.poly(Fraction(c) for c in coeff_strings)


def oracle_height(alpha, f) -> float:
    """Weil height of alpha in Q[x]/(f) via the Mahler measure of its minimal polynomial."""
    import sympy

    f = exact.poly(f)
    d = len(f) - 1
    x = sympy.Symbol("x")
    cols = [exact.padded(exact.mulmod(alpha, [0] * j + [1], f), d) for j in range(d)]
    matrix = sympy.Matrix(d, d, lambda i, j: sympy.Rational(cols[j][i].numerator,
                                                            cols[j][i].denominator))
    minpoly = sympy.Poly(matrix.charpoly(x).as_expr(), x, domain="QQ").sqf_part()
    _, integral = minpoly.clear_denoms()
    _, primitive = integral.primitive()
    coeffs = [int(c) for c in primitive.all_coeffs()]
    with mpmath.workprec(ORACLE_BITS):
        if len(coeffs) == 1:
            roots = []
        else:
            roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=ORACLE_BITS)
        total = mpmath.log(abs(coeffs[0]))
        for r in roots:
            total += max(mpmath.mpf(0), mpmath.log(abs(r)))
        return float(total / (len(coeffs) - 1))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= HEIGHT_TOL * max(1.0, abs(b))


def _membership(tower, mu):
    """Z-basis coordinates of mu in M if they are all integers, else None."""
    coords = exact.solve(tower.z_basis(), mu)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    return coords


def _norm_is_torsion_times(tower, mu, beta) -> bool:
    """N_{l/k}(mu) / beta is +-1."""
    norm = tower.rel_norm(mu)
    target = tower.embed_k(beta)
    return norm == target or norm == exact.scale(target, -1)


class Checker:
    """Checks one workload's reports; caches the oracle heights it reuses."""

    def __init__(self):
        self._heights = {}

    def height(self, alpha, f) -> float:
        key = (tuple(alpha), tuple(f))
        if key not in self._heights:
            self._heights[key] = oracle_height(alpha, f)
        return self._heights[key]

    def check(self, op, report: dict) -> list:
        if op.command == "reduce":
            return self.check_reduce(op, report)
        if op.command == "solve":
            return self.check_solve(op, report)
        return self.check_height(op, report)

    def check_reduce(self, op, report) -> list:
        """mu_out in M, N(mu_out)/beta torsion, h(mu_out) <= bound; all recomputed."""
        tower, res = op.tower, report["result"]
        beta = _reported(op.problem["beta"])
        mu_out = _reported(res["mu_out"])
        errors = []
        if not mu_out or _membership(tower, mu_out) is None:
            errors.append("mu_out is not in the module")
        if not _norm_is_torsion_times(tower, mu_out, beta):
            errors.append("N(mu_out)/beta is not a root of unity")
        h_eps = self.height(exact.poly(tower.eps), tower.f_l) if tower.rank else 0.0
        bound = 0.5 * h_eps + self.height(beta, tower.f_k) / tower.e
        h_out = self.height(mu_out, tower.f_l) if mu_out else float("inf")
        if h_out > bound + HEIGHT_TOL:
            errors.append(f"h(mu_out)={h_out} exceeds the bound {bound}")
        if not _close(float(res["bound"]), bound):
            errors.append(f"reported bound {res['bound']} != recomputed {bound}")
        if not _close(float(res["height_out"]), h_out):
            errors.append(f"reported height_out {res['height_out']} != oracle {h_out}")
        return errors

    def check_solve(self, op, report) -> list:
        """Every listed solution solves its equation; the planted one is classified."""
        tower, res = op.tower, report["result"]
        beta = _reported(op.problem["beta"])
        box = int(op.argv_tail[-1])
        z_basis = tower.z_basis()
        omega = [exact.poly(om) for om in tower.omega]
        f_l = exact.poly(tower.f_l)
        errors = []
        if res["search_box"] != box:
            errors.append(f"search box {res['search_box']} != {box}")
        solutions = res["solutions"]
        if res["solution_count"] != len(solutions):
            errors.append("solution_count disagrees with the listed solutions")
        for idx, sol in enumerate(solutions):
            coords = sol["coords"]
            if len(coords) != len(z_basis) or any(abs(c) > box for c in coords):
                errors.append(f"solution {idx} lies outside the box")
                continue
            mu = []
            for c, z in zip(coords, z_basis):
                mu = exact.add(mu, exact.scale(z, c))
            from_nu = []
            for v, om in zip(sol["nu"], omega):
                from_nu = exact.add(from_nu, exact.mulmod(tower.embed_k(_reported(v)), om, f_l))
            if from_nu != mu:
                errors.append(f"solution {idx}: nu does not match its coordinates")
            zeta = _reported(sol["zeta"])
            if zeta not in ([1], [-1]):
                errors.append(f"solution {idx}: zeta {sol['zeta']} is not +-1")
            elif tower.rel_norm(mu) != tower.embed_k(exact.scale(beta, zeta[0])):
                errors.append(f"solution {idx}: N(mu) != zeta * beta")
        members = sorted(i for c in res["classes"] for i in c["members"])
        if members != list(range(len(solutions))) or res["class_count"] != len(res["classes"]):
            errors.append("classes do not partition the solutions")
        planted = [i for i, s in enumerate(solutions) if tuple(s["coords"]) == op.planted]
        if not planted or planted[0] not in members:
            errors.append("the planted solution is not in a reported class")
        for c in res["classes"]:
            rep = _reported(c["representative"]["mu_out"])
            if not rep or _membership(tower, rep) is None \
                    or not _norm_is_torsion_times(tower, rep, beta):
                errors.append("a class representative does not solve the equation")
        return errors

    def check_height(self, op, report) -> list:
        """The reported height agrees with the oracle's."""
        res = report["result"]
        alpha = _reported(op.problem["mu"])
        if _reported(res["element"]) != alpha:
            return ["report echoes a different element"]
        expected = self.height(alpha, op.tower.f_l)
        if not _close(float(res["height"]), expected):
            return [f"height {res['height']} != oracle {expected}"]
        return []

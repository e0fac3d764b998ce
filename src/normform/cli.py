"""Command line interface: height, reduce, solve, units, verify.

Exit codes: 0 ok, 2 input error, 3 not a solution, 4 precision failure,
5 verification failure.  Reports go to stdout (or --output) as JSON with
exact elements as coordinate strings and reals at 12 significant digits;
stderr carries only the error name.  ``timing_seconds`` is the wall time of
the whole command, from reading the problem file to the finished result.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .errors import NotASolutionError, PrecisionError, VerificationError
from .module_order import verify_rank
from .norm_form import enumerate_solutions, partition_classes
from .number_field import FieldElement, relative_norm
from .places_heights import (FIBER_TOL, archimedean_log_vector, archimedean_places, fiber_sums,
                             place_fibers, weil_height)
from .problemfile import build_context, parse_problem, problem_to_dict
from .rational_core import SPAN_RESIDUAL_TOL, Poly, rat_to_str
from .reduction import HEIGHT_TOL, TIE_TOL, cm_height_identity, reduce_solution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_A_SOLUTION = 3
EXIT_PRECISION = 4
EXIT_VERIFY = 5


def _real(x: float) -> str:
    return f"{x:.12g}"


def _element_out(el: FieldElement):
    return [rat_to_str(c) for c in el.coeff_vector()]


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(?:/\d+)?)?(?:\*)?(?P<gen>θ|φ)?(?:\^(?P<power>\d+))?$")


def parse_element_expr(text: str, tower, owner: str = "l") -> FieldElement:
    """Parse "13+9θ", "θ^2-1/2", or a JSON coefficient list like ["13","9"]."""
    text = text.strip()
    if text.startswith("["):
        coeffs = [Fraction(v) for v in json.loads(text)]
        return tower.element(owner, Poly(coeffs))
    compact = text.replace(" ", "")
    compact = re.sub(r"(?<=[0-9θφ)])-", "+-", compact.replace("theta", "θ").replace("phi", "φ"))
    coeffs = {}
    for term in compact.split("+"):
        if not term:
            continue
        match = _TERM_RE.match(term)
        if not match or (match.group("num") is None and match.group("gen") is None):
            raise ValueError(f"cannot parse element term {term!r}")
        coeff = Fraction(match.group("num") or 1)
        if match.group("sign") == "-":
            coeff = -coeff
        power = 0
        if match.group("gen"):
            power = int(match.group("power") or 1)
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
    size = max(coeffs) + 1 if coeffs else 0
    vec = [coeffs.get(i, Fraction(0)) for i in range(size)]
    return tower.element(owner, Poly(vec))


def _tower_summary(ctx):
    tower = ctx.tower
    places_l = archimedean_places(tower, "l")
    places_k = archimedean_places(tower, "k")
    real_l = sum(1 for p in places_l if p.is_real)
    real_k = sum(1 for p in places_k if p.is_real)
    return {
        "degree_l": tower.degree("l"),
        "degree_k": tower.degree("k"),
        "e": tower.e,
        "f": tower.f,
        "signature_l": [real_l, len(places_l) - real_l],
        "signature_k": [real_k, len(places_k) - real_k],
        "places_l": len(places_l),
        "places_k": len(places_k),
        "fiber_sizes": [len(fb.members) for fb in place_fibers(tower)],
    }


def _base_report(command, ctx):
    return {
        "command": command,
        "precision_bits": ctx.tower.precision_bits,
        "problem": problem_to_dict(ctx.problem),
        "tower": _tower_summary(ctx),
    }


def _ranks_out(system):
    r_l, r_k, s = system.ranks
    return {"r_l": r_l, "r_k": r_k, "r_rel": s}


def _reduction_out(report):
    out = {
        "mu_in": _element_out(report.mu_in),
        "gamma": _element_out(report.gamma),
        "mu_out": _element_out(report.mu_out),
        "z": [_real(v) for v in report.z.coords],
        "u": [_real(v) for v in report.u],
        "m": list(report.m),
        "height_in": _real(report.height_in),
        "height_out": _real(report.height_out),
        "bound": _real(report.bound),
        "zeta_prime": _element_out(report.zeta_prime),
        "bound_satisfied": report.bound_satisfied,
        "rank_zero": report.rank_zero,
    }
    if report.cm_identity is not None:
        h_mu, h_b, equal = report.cm_identity
        out["cm_identity"] = {"h_mu": _real(h_mu), "h_beta_over_e": _real(h_b),
                              "equal": equal}
    return out


def cmd_height(ctx, element_text):
    element = (parse_element_expr(element_text, ctx.tower)
               if element_text is not None else ctx.mu())
    if element.is_zero:
        raise ValueError("cannot take the height of zero")
    report = _base_report("height", ctx)
    report["result"] = {
        "element": _element_out(element),
        "height": _real(weil_height(element)),
        "log_vector": [_real(v) for v in archimedean_log_vector(element)],
    }
    return report, EXIT_OK


def cmd_reduce(ctx):
    system = ctx.system
    reduction = reduce_solution(ctx.mu(), ctx.beta(), ctx.module, system)
    report = _base_report("reduce", ctx)
    report["ranks"] = _ranks_out(system)
    report["result"] = _reduction_out(reduction)
    return report, EXIT_OK


def cmd_solve(ctx, coeff_bound):
    system = ctx.system
    beta = ctx.beta()
    sols = enumerate_solutions(ctx.module, beta, coeff_bound,
                               zeta_mode=ctx.problem.zeta_mode)
    if sols.solutions:
        sols = partition_classes(sols, system)
    report = _base_report("solve", ctx)
    report["ranks"] = _ranks_out(system)
    report["result"] = {
        "norm_form": [{"monomial": mono, "coefficient": coeff}
                      for mono, coeff in sols.norm_form.as_strings()],
        "beta": _element_out(beta),
        "zeta_mode": ctx.problem.zeta_mode,
        "search_box": sols.search_box,
        "solution_count": len(sols.solutions),
        "solutions": [{"coords": list(s.coords),
                       "nu": [_element_out(v) for v in s.nu],
                       "zeta": _element_out(s.zeta)} for s in sols.solutions],
        "class_count": len(sols.classes or ()),
        "classes": [{"members": list(c.member_indices),
                     "representative": _reduction_out(c.representative)}
                    for c in (sols.classes or ())],
        "complete_only_within_box": True,
    }
    return report, EXIT_OK


def cmd_units(ctx):
    system = ctx.system
    report = _base_report("units", ctx)
    report["ranks"] = _ranks_out(system)
    report["result"] = {
        "epsilons": [{"element": _element_out(eps),
                      "height": _real(weil_height(eps)),
                      "norm": _element_out(relative_norm(eps))}
                     for eps in system.epsilons],
        "log_matrix": [[_real(v) for v in row] for row in system.log_matrix],
        "torsion_k": [_element_out(t) for t in system.torsion_k],
    }
    return report, EXIT_OK


def cmd_verify(ctx):
    checks = []
    failed = None

    def run(name, fn):
        nonlocal failed
        if failed is not None:
            return
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail})
        except PrecisionError:
            raise  # a precision failure is exit 4, not a failed check
        except Exception as exc:  # noqa: BLE001 - every other failure maps to exit 5
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            failed = name

    def rank_certificate():
        triple = verify_rank(ctx.system)
        return {"r_l": triple[0], "r_k": triple[1], "r_rel": triple[2]}

    def balanced_log_columns():
        system = ctx.system
        sums = [t for column in zip(*system.log_matrix) for t in fiber_sums(ctx.tower, column)]
        largest = max(map(abs, sums), default=0.0)
        if largest > FIBER_TOL:
            raise AssertionError(f"fiber sum {max(sums, key=abs)} exceeds {FIBER_TOL}")
        return {"epsilons": len(system.epsilons), "max_abs_fiber_sum": _real(largest),
                "margin": _real(FIBER_TOL - largest)}

    def unit_certificate():
        """Both rounding inequalities in closed form: one margin per unit.

        Write L_j for column j of the unit-log matrix.  round_to_unit writes
        z = L u + r with every |r_w| <= SPAN_RESIDUAL_TOL and rounds
        m_j = round(u_j), so |m_j - u_j| <= 1/2 + TIE_TOL, and the triangle
        inequality gives ||L m - z||_1 <= sum_j (1/2 + TIE_TOL)||L_j||_1 + ||r||_1.
        A unit's log vector sums to 0 and its positive part is its height, so
        (1/2)||L_j||_1 = h(eps_j): when every margin h(eps_j) - (1/2)||L_j||_1
        is at least -HEIGHT_TOL, the bound is the budget sum_j h(eps_j) plus
        the reported slack.  When the columns have zero fiber sums (exact for
        relative units; the fiber_sums check bounds the computed ones), the
        fiber deviation of log|gamma*mu|, z being mu's balancing vector, is
        ||L m - z||_1, so the same bound holds.
        """
        system = ctx.system
        norms = [sum(abs(v) for v in col) for col in zip(*system.log_matrix)]
        heights = [weil_height(eps) for eps in system.epsilons]
        margins = [h - 0.5 * norm for h, norm in zip(heights, norms)]
        for j, margin in enumerate(margins):
            if margin < -HEIGHT_TOL:
                raise AssertionError(f"unit {j}: (1/2)||L_{j}||_1 exceeds h(eps_{j}) "
                                     f"by {-margin}, more than HEIGHT_TOL")
        slack = (len(system.log_matrix) * SPAN_RESIDUAL_TOL + len(norms) * HEIGHT_TOL
                 + TIE_TOL * sum(norms))
        return {"budget": _real(sum(heights)), "margins": [_real(m) for m in margins],
                "slack": _real(slack)}

    def rounding_inequality():
        if ctx.system.rank == 0:
            return {"skipped": "rank zero"}
        return unit_certificate()

    def fiber_deviation_inequality():
        detail = unit_certificate()
        # a computed fiber sum s of column j adds |m_j|*|s| to the deviation
        column_sums = [fiber_sums(ctx.tower, col) for col in zip(*ctx.system.log_matrix)]
        detail["slack_per_exponent"] = _real(max((sum(map(abs, t)) for t in column_sums),
                                                 default=0.0))
        return detail

    def rank_zero_identity():
        system = ctx.system
        if system.rank != 0:
            return {"skipped": "rank positive"}
        for fiber in place_fibers(ctx.tower):
            if len(fiber.members) != 1:
                raise AssertionError("tower violates CM structure")
        if ctx.problem.mu is None or ctx.problem.beta is None:
            return {"structural_only": True}
        h_mu, h_b, equal = cm_height_identity(ctx.mu(), ctx.beta(), system)
        if not equal:
            raise AssertionError(f"h(mu)={h_mu} but h(beta)/e={h_b}")
        return {"h_mu": _real(h_mu), "h_beta_over_e": _real(h_b),
                "margin": _real(HEIGHT_TOL - abs(h_mu - h_b))}

    run("rank_certificate", rank_certificate)
    run("fiber_sums", balanced_log_columns)
    run("rounding_inequality", rounding_inequality)
    run("fiber_deviation_inequality", fiber_deviation_inequality)
    run("rank_zero_identity", rank_zero_identity)

    report = _base_report("verify", ctx)
    report["result"] = {"checks": checks, "all_passed": failed is None,
                        "first_failure": failed}
    return report, (EXIT_OK if failed is None else EXIT_VERIFY)


def _emit(report, output_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normform",
        description="Solve and normalize relative norm form equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to the problem JSON file")
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--zeta-mode", choices=["any", "one"], default=None)
        p.add_argument("--output", default=None)

    p_height = sub.add_parser("height", help="Weil height of an element of l")
    common(p_height)
    p_height.add_argument("element", nargs="?", default=None,
                          help='element expression, e.g. "13+9θ" (default: mu)')

    common(sub.add_parser("reduce", help="reduce mu to a bounded-height solution"))

    p_solve = sub.add_parser("solve", help="enumerate and classify solutions")
    common(p_solve)
    p_solve.add_argument("--coeff-bound", type=int, default=10)

    common(sub.add_parser("units", help="construct the relative unit system"))
    common(sub.add_parser("verify", help="run the invariant checks"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with open(args.problem, encoding="utf-8") as fh:
            problem = parse_problem(fh.read())
        if args.zeta_mode:
            problem.zeta_mode = "any_torsion" if args.zeta_mode == "any" else "one"
        ctx = build_context(problem, precision_bits=args.precision_bits)
        if args.command == "height":
            report, code = cmd_height(ctx, args.element)
        elif args.command == "reduce":
            report, code = cmd_reduce(ctx)
        elif args.command == "solve":
            report, code = cmd_solve(ctx, args.coeff_bound)
        elif args.command == "units":
            report, code = cmd_units(ctx)
        else:
            report, code = cmd_verify(ctx)
    except NotASolutionError as exc:
        print(f"NotASolutionError: {exc}", file=sys.stderr)
        return EXIT_NOT_A_SOLUTION
    except PrecisionError as exc:
        print(f"PrecisionError: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VerificationError as exc:
        print(f"VerificationError: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report["timing_seconds"] = round(time.monotonic() - started, 3)
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())

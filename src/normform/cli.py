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
import random
import re
import sys
import time
from fractions import Fraction

from .errors import NotASolutionError, PrecisionError, VerificationError
from .module_order import verify_rank
from .norm_form import enumerate_solutions, norm_form_poly, partition_classes
from .number_field import FieldElement, relative_norm
from .places_heights import archimedean_log_vector, archimedean_places, place_fibers, weil_height
from .problemfile import build_context, parse_problem, problem_to_dict
from .rational_core import Poly, rat_to_str
from .reduction import balance_vector, cm_height_identity, reduce_solution, round_to_unit

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
    form = norm_form_poly(ctx.module)
    report = _base_report("solve", ctx)
    report["ranks"] = _ranks_out(system)
    report["result"] = {
        "norm_form": [{"monomial": mono, "coefficient": coeff}
                      for mono, coeff in form.as_strings()],
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


def cmd_verify(ctx, trials_31=200, trials_32=100):
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

    def fiber_sums():
        system = ctx.system
        for j in range(len(system.epsilons)):
            for fiber in place_fibers(ctx.tower):
                total = sum(system.log_matrix[w.index][j] for w in fiber.members)
                if abs(total) > 1e-9:
                    raise AssertionError(f"fiber sum {total} exceeds 1e-9")
        return {"epsilons": len(system.epsilons)}

    def rounding_inequality():
        system = ctx.system
        if system.rank == 0:
            return {"skipped": "rank zero"}
        rng = random.Random(20260810)
        budget = sum(weil_height(eps) for eps in system.epsilons)
        worst = 0.0
        from .reduction import BalancedSubspaceVector

        for _ in range(trials_31):
            y = [rng.randint(-4, 4) + rng.uniform(-0.5, 0.5)
                 for _ in system.epsilons]
            z = tuple(sum(row[j] * y[j] for j in range(len(y)))
                      for row in system.log_matrix)
            zvec = BalancedSubspaceVector(z, ())
            gamma, _, _ = round_to_unit(zvec, system)
            logs = archimedean_log_vector(gamma)
            diff = sum(abs(a - b) for a, b in zip(logs, z))
            worst = max(worst, diff)
            if diff > budget + 1e-9:
                raise AssertionError(f"discrepancy {diff} exceeds {budget}")
        return {"trials": trials_31, "worst": _real(worst), "budget": _real(budget)}

    def fiber_deviation_inequality():
        system = ctx.system
        rng = random.Random(20260811)
        budget = sum(weil_height(eps) for eps in system.epsilons)
        worst = 0.0
        for _ in range(trials_32):
            coords = [rng.randint(-9, 9) for _ in range(ctx.module.rank)]
            if not any(coords):
                coords[0] = 1
            mu = ctx.module.element_from_coordinates(coords)
            z = balance_vector(mu, system)
            gamma, _, _ = round_to_unit(z, system)
            product = gamma * mu
            logs = archimedean_log_vector(product)
            total = 0.0
            for fiber in place_fibers(ctx.tower):
                mean = sum(logs[w.index] for w in fiber.members) / len(fiber.members)
                total += sum(abs(logs[w.index] - mean) for w in fiber.members)
            worst = max(worst, total)
            if total > budget + 1e-9:
                raise AssertionError(f"fiber deviation {total} exceeds {budget}")
        return {"trials": trials_32, "worst": _real(worst), "budget": _real(budget)}

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
        return {"h_mu": _real(h_mu), "h_beta_over_e": _real(h_b)}

    run("rank_certificate", rank_certificate)
    run("fiber_sums", fiber_sums)
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

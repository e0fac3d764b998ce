"""Seeded generator of the benchmark's problem files.

Every input the CLI sees is a problem file written here from ``--seed``; the
same seed writes byte-identical files.  Each workload is a fixed pool of
strata (tower and exponent, tower and box, degree and bit-length) with the
elements inside each stratum drawn from the seed, so two seeds give
different inputs with the same mix of costs: an op's cost depends mostly on
its stratum.  The pool order interleaves the towers and strides through the
values, so any prefix of the cycle the timed loop walks is close to the
whole pool's mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import exact

WORKLOADS = ("reduce", "solve", "heights")


@dataclass(frozen=True)
class Tower:
    """Q ⊆ k ⊆ l with a full module M = sum O_k omega_i, as problem data.

    ``sigma`` is the image of theta under the generator of Gal(l/k) (only
    for the quadratic extensions the reduce and solve workloads use), and
    ``eps`` is the unit whose powers inflate solutions: the relative unit of
    M when the relative rank is 1, a root of unity of l when it is 0.
    """

    name: str
    f_k: tuple
    psi: tuple
    f_l: tuple
    phi: tuple
    omega: tuple
    rank: int = None
    units_l: tuple = None
    units_k: tuple = None
    sigma: tuple = None
    eps: tuple = None

    @property
    def degree(self) -> int:
        return len(self.f_l) - 1

    @property
    def e(self) -> int:
        return (len(self.f_l) - 1) // (len(self.f_k) - 1)

    def z_basis(self):
        """Z-basis omega_i * psi_j of M, in the order the library uses."""
        f = exact.poly(self.f_l)
        return [exact.mulmod(exact.poly(om), self.embed_k(exact.poly(p)), f)
                for om in self.omega for p in self.psi]

    def embed_k(self, b) -> list:
        return exact.compose(b, exact.poly(self.phi), exact.poly(self.f_l))

    def rel_norm(self, mu) -> list:
        """N_{l/k}(mu) = mu * sigma(mu), as an element of l."""
        f = exact.poly(self.f_l)
        return exact.mulmod(mu, exact.compose(mu, exact.poly(self.sigma), f), f)

    def k_coords(self, x):
        """Coefficients of x in the powers of phi, or None if x is not in k."""
        f = exact.poly(self.f_l)
        powers = [exact.powmod(exact.poly(self.phi), j, f)
                  for j in range(len(self.f_k) - 1)]
        return exact.solve(powers, x)

    def problem(self, mu=None, beta=None) -> dict:
        """Problem-file document; precision and zeta mode stay at defaults."""
        out = {
            "base_field": {"minpoly": exact.to_strings(self.f_k),
                           "integral_basis": [exact.to_strings(exact.poly(p))
                                              for p in self.psi]},
            "extension": {"minpoly_over_Q": exact.to_strings(self.f_l),
                          "k_generator_in_l": exact.to_strings(exact.poly(self.phi))},
            "module_basis": [exact.to_strings(exact.poly(om)) for om in self.omega],
        }
        if self.units_l is not None:
            out["units_l"] = [exact.to_strings(exact.poly(u)) for u in self.units_l]
            out["units_k"] = [exact.to_strings(exact.poly(u)) for u in self.units_k]
        if mu is not None:
            out["mu"] = exact.to_strings(mu)
        if beta is not None:
            out["beta"] = exact.to_strings(beta)
        return out


PELL = Tower("pell", (0, 1), ((1,),), (-2, 0, 1), (0,), ((1,), (0, 1)), rank=1,
             units_l=((1, 1),), units_k=(), sigma=(0, -1), eps=(1, 1))
PELL_NONMAX = Tower("pell_nonmax", (0, 1), ((1,),), (-2, 0, 1), (0,), ((1,), (0, 2)),
                    rank=1, units_l=((1, 1),), units_k=(), sigma=(0, -1), eps=(3, 2))
GAUSSIAN = Tower("gaussian", (0, 1), ((1,),), (1, 0, 1), (0,), ((1,), (0, 1)), rank=0,
                 units_l=(), units_k=(), sigma=(0, -1), eps=(0, 1))
QUARTIC2 = Tower("quartic2", (-2, 0, 1), ((1,), (0, 1)), (-2, 0, 0, 0, 1), (0, 0, 1),
                 ((1,), (0, 1)), rank=1, units_l=((1, 0, 1), (-1, 1)), units_k=((1, 1),),
                 sigma=(0, -1), eps=(3, -2, 2, -2))
CYCLOTOMIC5 = Tower("cyclotomic5", (-5, 0, 1), ((1,), ("1/2", "1/2")), (1, 1, 1, 1, 1),
                    (-1, 0, -2, -2), ((1,), (0, 1)), rank=0,
                    units_l=((0, 0, -1, -1),), units_k=(("1/2", "1/2"),),
                    sigma=(-1, -1, -1, -1), eps=(0, 1))

# Inflation exponents n per tower, across [-24, 24] where every op
# succeeds at the default precision.  That precision gives exit 4 from
# |n| = 14 on quartic2 and |n| = 19 on pell_nonmax, so those two towers stop
# a few steps short of it (|n| <= 10 and 16): no op of the workload fails.
# Each value is used `replicates` times.  The fast degree-2 ops are three
# quarters of the pool, so the median falls inside their cluster rather than
# at its edge next to the degree-4 ops, which take five times as long.
REDUCE_EXPONENTS = ((PELL, tuple(range(-24, 25, 4)), 4),
                    (PELL_NONMAX, tuple(range(-16, 17, 4)), 4),
                    (GAUSSIAN, tuple(range(-24, 25, 4)), 4),
                    (QUARTIC2, tuple(range(-10, 11, 2)), 2),
                    (CYCLOTOMIC5, tuple(range(-24, 25, 4)), 2))
# Coefficient bounds B per tower: pell and gaussian at 8..20, the degree-4
# towers at 1 and 2.  Each value is used `replicates` times.
SOLVE_BOXES = ((PELL, (8, 11, 14, 17, 20), 12),
               (GAUSSIAN, (8, 11, 14, 17, 20), 12),
               (QUARTIC2, (1, 2), 18),
               (CYCLOTOMIC5, (1, 2), 18))
# Coefficient bit-lengths per degree, up to where every op succeeds at the
# default precision: exit 4 starts near 14 bits at degree 6 and 8 bits at
# degree 8, so those stop at 11 and 5 bits.  Degree 4 gets 96 ops, degree 6
# 44 and degree 8 10, so a 35-second run completes over a hundred ops, and
# the slow, widely spread degree-8 ops stay few enough that the 90th
# percentile falls among degree-6 ops.
HEIGHT_BITS = ((4, tuple(range(1, 25)) * 4), (6, tuple(range(1, 12)) * 4),
               (8, tuple(range(1, 6)) * 2))


def radical_tower(n: int) -> Tower:
    """Q(2^(1/n)) over Q(sqrt2), with M = Z[2^(1/n)] = sum O_k theta^i."""
    e = n // 2
    theta_pow = lambda i: (0,) * i + (1,)  # noqa: E731
    return Tower(f"radical{n}", (-2, 0, 1), ((1,), (0, 1)), (-2,) + (0,) * (n - 1) + (1,),
                 theta_pow(e), tuple(theta_pow(i) for i in range(e)))


@dataclass
class Op:
    """One CLI invocation on one generated problem file."""

    key: str
    command: str
    tower: Tower
    problem: dict
    props: dict
    argv_tail: tuple = ()
    planted: tuple = None   # Z-basis coordinates of the planted solution (solve)

    def argv(self, directory: Path) -> list:
        return [self.command, str(directory / f"{self.key}.json"), *self.argv_tail]


def _bits(coeffs) -> int:
    return max((abs(Fraction(c).numerator).bit_length() for c in coeffs), default=0)


def _small_module_element(rng, tower: Tower, bound: int):
    """A nonzero element of M with Z-basis coordinates in [-bound, bound]."""
    z = tower.z_basis()
    while True:
        coords = [rng.randint(-bound, bound) for _ in z]
        if any(coords):
            break
    value = []
    for c, zb in zip(coords, z):
        value = exact.add(value, exact.scale(zb, c))
    return coords, value


def _norm_in_k(tower: Tower, mu):
    beta = tower.k_coords(tower.rel_norm(mu))
    if beta is None:
        raise RuntimeError(f"relative norm left k on {tower.name}")
    return exact.poly(beta)


def _reduce_op(rng, tower: Tower, n: int, key: str) -> Op:
    f = exact.poly(tower.f_l)
    _, nu = _small_module_element(rng, tower, 3)
    eps = exact.poly(tower.eps)
    if n < 0:
        # eps^-1 = sigma(eps) / N(eps), and N(eps) = +-1
        n_eps = tower.k_coords(tower.rel_norm(eps))
        eps = exact.scale(exact.compose(eps, exact.poly(tower.sigma), f), 1 / n_eps[0])
    mu = exact.mulmod(exact.powmod(eps, abs(n), f), nu, f)
    beta = _norm_in_k(tower, nu)
    props = {"tower": tower.name, "degree": tower.degree, "rank": tower.rank,
             "bits": _bits(mu), "n": n}
    return Op(key, "reduce", tower, tower.problem(mu=mu, beta=beta), props)


def _solve_op(rng, tower: Tower, box: int, key: str) -> Op:
    coords, nu = _small_module_element(rng, tower, min(box, 3))
    beta = _norm_in_k(tower, nu)
    rank_z = len(tower.z_basis())
    props = {"tower": tower.name, "degree": tower.degree, "rank": tower.rank,
             "bits": _bits(beta), "box": box, "box_points": (2 * box + 1) ** rank_z - 1}
    return Op(key, "solve", tower, tower.problem(beta=beta), props,
              argv_tail=("--coeff-bound", str(box)), planted=tuple(coords))


def _height_op(rng, n: int, bits: int, key: str) -> Op:
    """A random element of Q(2^(1/n)) whose largest coefficient has ``bits`` bits."""
    tower = radical_tower(n)
    top = (1 << bits) - 1
    alpha = [rng.randint(-top, top) for _ in range(n)]
    alpha[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1 << (bits - 1), top)
    alpha = exact.poly(alpha)
    props = {"tower": tower.name, "degree": n, "rank": None, "bits": _bits(alpha)}
    return Op(key, "height", tower, tower.problem(mu=alpha), props)


def _interleave(columns):
    """Merge lists so that each one is spread evenly over the result."""
    keyed = [((j + 0.5) / len(col), c, j) for c, col in enumerate(columns)
             for j in range(len(col))]
    return [columns[c][j] for _, c, j in sorted(keyed)]


def _spread(values, shift: int, replicates: int = 1):
    """values * replicates in a fixed order that strides through them, so
    neighbouring ops get distant values (7 is coprime to every length here)."""
    seq = list(values) * replicates
    if len(seq) % 7 == 0:
        raise ValueError("stride 7 must be coprime to the number of values")
    return [seq[(7 * j + shift) % len(seq)] for j in range(len(seq))]


def generate(workload: str, seed: int):
    """(warm-up op, pool of timed ops) for one workload and seed.

    Strata (tower and exponent, tower and box, degree and bit-length) are
    fixed; the seed draws the elements inside them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reduce":
        warm = _reduce_op(rng, PELL, 1, "warmup")
        strata = _interleave([[(t, n) for n in _spread(exps, 3 * i, reps)]
                              for i, (t, exps, reps) in enumerate(REDUCE_EXPONENTS)])
        make = _reduce_op
    elif workload == "solve":
        warm = _solve_op(rng, GAUSSIAN, 8, "warmup")
        strata = _interleave([[(t, b) for b in _spread(boxes, i, reps)]
                              for i, (t, boxes, reps) in enumerate(SOLVE_BOXES)])
        make = _solve_op
    else:
        warm = _height_op(rng, 4, 2, "warmup")
        strata = _interleave([[(n, b) for b in _spread(bits, 5 * i)]
                              for i, (n, bits) in enumerate(HEIGHT_BITS)])
        make = _height_op
    pool = [make(rng, what, value, f"op{i:03d}") for i, (what, value) in enumerate(strata)]
    return warm, pool


def write_problems(ops, directory: Path) -> None:
    """Write each op's problem file as canonical JSON."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        text = json.dumps(op.problem, indent=2, sort_keys=True) + "\n"
        (directory / f"{op.key}.json").write_text(text, encoding="utf-8")


def input_spread(ops) -> dict:
    """Min, median and max of each numeric input property, and the tower mix."""
    out = {"ops": len(ops), "towers": {}}
    for op in ops:
        out["towers"][op.props["tower"]] = out["towers"].get(op.props["tower"], 0) + 1
    for prop in ("degree", "rank", "bits", "n", "box_points"):
        values = sorted(op.props[prop] for op in ops if op.props.get(prop) is not None)
        if values:
            out[prop] = {"min": values[0], "median": values[len(values) // 2],
                         "max": values[-1]}
    return out

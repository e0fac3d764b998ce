"""Places, normalized absolute values, and the Weil height."""

import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from normform import (
    Poly,
    archimedean_log_vector,
    archimedean_places,
    build_tower,
    char_poly,
    embed_k_in_l,
    log_abs,
    place_fibers,
    poly_complex_roots,
    primitive_part,
    weil_height,
)
from normform.number_field import is_algebraic_integer, norm_to_q
from normform.module_order import torsion_units
from normform.problemfile import parse_problem
from normform.rational_core import squarefree_part

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def test_places_pell(pell_tower):
    places = archimedean_places(pell_tower, "l")
    assert [(p.is_real, p.d_w) for p in places] == [(True, 1), (True, 1)]
    base = archimedean_places(pell_tower, "k")
    assert [(p.is_real, p.d_w) for p in base] == [(True, 1)]


def test_places_gaussian(gaussian_tower):
    places = archimedean_places(gaussian_tower, "l")
    assert [(p.is_real, p.d_w) for p in places] == [(False, 2)]


def test_place_counts_match_unit_rank(quartic_tower, cyclotomic_tower):
    # sum of local degrees is the global degree
    for tower in (quartic_tower, cyclotomic_tower):
        for tag in ("k", "l"):
            places = archimedean_places(tower, tag)
            assert sum(p.d_w for p in places) == tower.degree(tag)


def test_fibers_pell(pell_tower):
    fibers = place_fibers(pell_tower)
    assert len(fibers) == 1 and len(fibers[0].members) == 2


def test_fibers_gaussian(gaussian_tower):
    fibers = place_fibers(gaussian_tower)
    assert len(fibers) == 1 and len(fibers[0].members) == 1


def test_fibers_quartic(quartic_tower):
    # over sqrt2 > 0: two real places; over sqrt2 < 0: one complex place
    t = quartic_tower
    fibers = place_fibers(t)
    assert len(fibers) == 2
    by_sign = {}
    for fb in fibers:
        k_root = t.embeddings_k[fb.v.embedding_index]
        by_sign[k_root.re > 0] = fb
    assert len(by_sign[True].members) == 2
    assert all(w.is_real for w in by_sign[True].members)
    assert len(by_sign[False].members) == 1
    assert not by_sign[False].members[0].is_real


def test_every_l_place_in_exactly_one_fiber(cyclotomic_tower, quartic_tower):
    for tower in (cyclotomic_tower, quartic_tower):
        fibers = place_fibers(tower)
        seen = [w.index for fb in fibers for w in fb.members]
        assert sorted(seen) == list(range(len(archimedean_places(tower, "l"))))


# -- log_abs -------------------------------------------------------------------


def test_log_abs_examples(pell_tower, gaussian_tower):
    t = pell_tower
    alpha = t.l_element([3, 1])
    w_pos = archimedean_places(t, "l")[1]          # embedding theta -> +sqrt2
    assert abs(log_abs(alpha, w_pos) - 0.5 * math.log(3 + math.sqrt(2))) < 1e-12
    assert log_abs(t.one("l"), w_pos) == 0.0
    g = gaussian_tower
    w = archimedean_places(g, "l")[0]
    assert abs(log_abs(g.l_element([1, 1]), w) - math.log(2) / 2) < 1e-12


def test_log_abs_zero_rejected(pell_tower):
    w = archimedean_places(pell_tower, "l")[0]
    with pytest.raises(ValueError, match="log of zero"):
        log_abs(pell_tower.zero("l"), w)


def test_log_vector_examples(pell_tower):
    t = pell_tower
    vec = archimedean_log_vector(t.l_element([1, 1]))
    h = 0.4406867935097715
    assert abs(vec[0] + h) < 1e-12 and abs(vec[1] - h) < 1e-12
    assert archimedean_log_vector(t.one("l")) == (0.0, 0.0)
    vec = archimedean_log_vector(t.l_element([13, 9]))
    assert abs(vec[1] - 1.6237884318292197) < 1e-12
    assert abs(vec[0] + 0.6508333573015631) < 1e-12


# -- weil_height ----------------------------------------------------------------


def test_height_examples(pell_tower, gaussian_tower):
    t = pell_tower
    assert abs(weil_height(t.l_element([2])) - math.log(2)) < 1e-12
    assert weil_height(t.one("l")) == 0.0
    assert abs(weil_height(t.l_element([1, 1])) - 0.4406867935097715) < 1e-12
    assert abs(weil_height(t.l_element([Fraction(1, 2)])) - math.log(2)) < 1e-12
    assert weil_height(gaussian_tower.l_element([0, 1])) == 0.0   # h(i) = 0


def test_height_of_zero_rejected(pell_tower):
    with pytest.raises(ValueError):
        weil_height(pell_tower.zero("l"))


def test_height_torsion_invariance(gaussian_tower, cyclotomic_tower):
    rng = random.Random(41)
    for tower in (gaussian_tower, cyclotomic_tower):
        torsion = torsion_units(tower, "l")
        d = tower.degree("l")
        for _ in range(25):
            alpha = tower.l_element(Poly([rng.randint(-9, 9) for _ in range(d)]))
            if alpha.is_zero:
                continue
            h = weil_height(alpha)
            for zeta in torsion:
                assert weil_height(zeta * alpha) == h


def test_height_inverse_symmetry(pell_tower, gaussian_tower):
    rng = random.Random(42)
    for tower in (pell_tower, gaussian_tower):
        d = tower.degree("l")
        for _ in range(100):
            alpha = tower.l_element(Poly([rng.randint(-20, 20) for _ in range(d)]))
            if alpha.is_zero:
                continue
            assert abs(weil_height(alpha) - weil_height(alpha.inverse())) < 1e-9


def test_height_submultiplicative(pell_tower):
    rng = random.Random(43)
    t = pell_tower
    for _ in range(60):
        a = t.l_element(Poly([rng.randint(-9, 9), rng.randint(-9, 9)]))
        b = t.l_element(Poly([rng.randint(-9, 9), rng.randint(-9, 9)]))
        if a.is_zero or b.is_zero:
            continue
        assert weil_height(a * b) <= weil_height(a) + weil_height(b) + 1e-9


def test_height_of_rationals_is_log_max(pell_tower):
    rng = random.Random(44)
    t = pell_tower
    for _ in range(50):
        p = rng.randint(-1000, 1000)
        q = rng.randint(1, 1000)
        if p == 0:
            continue
        h = weil_height(t.l_element([Fraction(p, q)]))
        g = math.gcd(abs(p), q)
        assert abs(h - math.log(max(abs(p) // g, q // g))) < 1e-9


def test_unit_log_sum_vanishes(pell_tower, quartic_tower):
    # units of any order have archimedean log sum zero
    units = [pell_tower.l_element([1, 1]), quartic_tower.l_element([-1, 1]),
             quartic_tower.l_element([1, 0, 1])]
    for u in units:
        assert abs(float(norm_to_q(u))) == 1
        assert abs(sum(archimedean_log_vector(u))) < 1e-9


def test_height_norm_consistency_for_integers(pell_tower, cyclotomic_tower):
    # archimedean part of the product formula for algebraic integers
    rng = random.Random(45)
    for tower in (pell_tower, cyclotomic_tower):
        d = tower.degree("l")
        for _ in range(40):
            mu = tower.l_element(Poly([rng.randint(-9, 9) for _ in range(d)]))
            if mu.is_zero:
                continue
            total = sum(archimedean_log_vector(mu))
            expect = math.log(abs(float(norm_to_q(mu)))) / d
            assert abs(total - expect) < 1e-9


def test_height_place_sum_oracle_for_integers(pell_tower):
    # h = (sum_w |log|mu|_w| + log|Norm(mu)|/d) / 2 for algebraic integers
    rng = random.Random(46)
    t = pell_tower
    for _ in range(100):
        mu = t.l_element(Poly([rng.randint(-30, 30), rng.randint(-30, 30)]))
        if mu.is_zero:
            continue
        logs = archimedean_log_vector(mu)
        oracle = 0.5 * (sum(abs(v) for v in logs)
                        + math.log(abs(float(norm_to_q(mu)))) / 2)
        assert abs(weil_height(mu) - oracle) < 1e-9


# -- the place-sum height against the Mahler-measure reference -----------------


def _mahler_oracle(alpha, prec=128):
    """The former height: Mahler measure of the primitive minimal polynomial,
    from fresh Durand-Kerner roots of the characteristic polynomial."""
    minpoly = squarefree_part(char_poly(alpha))
    _, q = primitive_part(minpoly)
    with mp.workprec(2 * prec + 16):
        total = mpmath.log(int(q.lead))
        for root in poly_complex_roots(q, 2 * prec):
            mag = abs(root.to_mpc())
            if abs(mag - 1) <= root.error_radius:
                continue
            if mag > 1:
                total += mpmath.log(mag)
        return float(total / minpoly.degree)


def _radical_tower(n):
    """l = Q(2^(1/n)), k = Q(sqrt2) via phi = theta^(n/2)."""
    return build_tower(Poly([-2, 0, 1]), Poly([-2] + [0] * (n - 1) + [1]),
                       Poly.monomial(n // 2), [Poly([1]), Poly([0, 1])], 128)


def _sample_elements(tower, rng, bound, count):
    d_l, d_k = tower.degree("l"), tower.degree("k")
    out = []
    for _ in range(count):
        out.append(tower.l_element([rng.randint(-bound, bound) for _ in range(d_l)]))
        out.append(tower.l_element([Fraction(rng.randint(-bound, bound), rng.randint(1, 6))
                                    for _ in range(d_l)]))
        out.append(tower.k_element([Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
                                    for _ in range(d_k)]))
    out.append(tower.l_element([Fraction(rng.randint(1, 50), rng.randint(51, 99))]))
    return [a for a in out if not a.is_zero]


@pytest.mark.parametrize("n,bound", [(2, 2 ** 20), (4, 2 ** 12), (6, 40), (8, 9)])
def test_place_sum_height_matches_mahler_oracle(n, bound):
    rng = random.Random(300 + n)
    tower = _radical_tower(n)
    for alpha in _sample_elements(tower, rng, bound, 3):
        assert abs(weil_height(alpha) - _mahler_oracle(alpha)) < 1e-12


def test_place_sum_height_matches_oracle_on_cyclotomic(cyclotomic_tower):
    rng = random.Random(308)
    t = cyclotomic_tower
    golden = t.psi_basis[1]
    elements = _sample_elements(t, rng, 30, 3) + [golden, golden * 7 - 2,
                                                  embed_k_in_l(golden) + t.theta()]
    for alpha in elements:
        assert abs(weil_height(alpha) - _mahler_oracle(alpha)) < 1e-12


def test_roots_of_unity_have_height_exactly_zero(cyclotomic_tower):
    # the stored conjugates of zeta5 are rounded, so only the certified
    # unit-circle clamp makes these exact
    torsion = torsion_units(cyclotomic_tower, "l")
    assert len(torsion) == 10
    assert all(weil_height(zeta) == 0.0 for zeta in torsion)


def test_high_degree_heights_within_budget():
    # d = 12 and 16: about 10 ms per height; the budget leaves wide room
    rng = random.Random(312)
    for n in (12, 16):
        tower = _radical_tower(n)
        elements = [tower.l_element([rng.randint(-2 ** 24, 2 ** 24) for _ in range(n)])
                    for _ in range(3)]
        start = time.perf_counter()
        heights = [weil_height(a) for a in elements]
        assert time.perf_counter() - start < 3.0
        assert all(h > 0 for h in heights)
        assert abs(weil_height(tower.theta()) - math.log(2) / n) < 1e-12
        b = tower.k_element([Fraction(3, 5), 7])
        assert abs(weil_height(embed_k_in_l(b)) - weil_height(b)) < 1e-12
    small = tower.l_element([rng.randint(-9, 9) for _ in range(16)])
    assert abs(weil_height(small.inverse()) - weil_height(small)) < 1e-9


def test_weil_height_does_no_root_finding(monkeypatch, quartic_tower, cyclotomic_tower):
    def refuse(*args, **kwargs):
        raise AssertionError("weil_height must not find roots")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "normform" and hasattr(module, "poly_complex_roots"):
            monkeypatch.setattr(module, "poly_complex_roots", refuse)
    for t in (quartic_tower, cyclotomic_tower):
        for alpha in (t.l_element([5, -3, 0, 2]), t.l_element([Fraction(1, 3), 2, 0, 1]),
                      t.k_element([Fraction(5, 2), Fraction(1, 2)]), t.one("l")):
            weil_height(alpha)


def _corpus_towers():
    towers = {}
    for path in sorted(PROBLEMS_DIR.glob("*.json")):
        pf = parse_problem(path.read_text())
        key = (pf.base_minpoly, pf.ext_minpoly, pf.k_generator_in_l,
               tuple(pf.integral_basis))
        if key not in towers:
            towers[key] = build_tower(pf.base_minpoly, pf.ext_minpoly,
                                      pf.k_generator_in_l, pf.integral_basis, 128)
    return list(towers.values())


def test_is_algebraic_integer_agrees_with_char_poly():
    rng = random.Random(320)
    towers = _corpus_towers()
    assert len(towers) == 4
    for t in towers:
        for owner in ("l", "k"):
            d = t.degree(owner)
            basis = ([embed_k_in_l(p) for p in t.psi_basis] if owner == "l"
                     else list(t.psi_basis))
            for _ in range(30):
                coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                          for _ in range(d)]
                alpha = t.element(owner, coeffs)
                # Z-combinations of the integral basis: integral, often not in Z[gen]
                beta = sum((rng.randint(-5, 5) * b for b in basis), t.zero(owner))
                for x in (alpha, beta, alpha * beta):
                    assert is_algebraic_integer(x) == char_poly(x).is_integral()

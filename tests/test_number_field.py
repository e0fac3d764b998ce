"""Tower construction, element arithmetic, and relative norms."""

import random
from fractions import Fraction

import mpmath
import pytest

from normform import (
    Poly,
    build_tower,
    char_poly,
    embed_k_in_l,
    mult_matrix,
    relative_norm,
)
from normform.number_field import norm_to_q
from normform.rational_core import squarefree_part


def random_element(tower, owner, rng, span=9):
    d = tower.degree(owner)
    return tower.element(owner, Poly([rng.randint(-span, span) for _ in range(d)]))


# -- build_tower ---------------------------------------------------------------


def test_build_tower_pell(pell_tower):
    t = pell_tower
    assert (t.e, t.f) == (2, 1)
    assert len(t.embeddings_l) == 2
    assert all(r.is_real for r in t.embeddings_l)


def test_build_tower_quartic_fibers(quartic_tower):
    t = quartic_tower
    assert (t.e, t.f) == (2, 2)
    # group embeddings of l by their restriction to k
    groups = {}
    for i, k_idx in enumerate(t.fiber_of_l_embedding):
        groups.setdefault(k_idx, []).append(i)
    assert sorted(len(g) for g in groups.values()) == [2, 2]
    # the two real embeddings of l restrict to the positive root of x^2 - 2
    real_idx = [i for i, r in enumerate(t.embeddings_l) if r.is_real]
    k_of_reals = {t.fiber_of_l_embedding[i] for i in real_idx}
    assert len(k_of_reals) == 1
    k_root = t.embeddings_k[k_of_reals.pop()]
    assert k_root.is_real and k_root.re > 0


def test_build_tower_gaussian(gaussian_tower):
    t = gaussian_tower
    assert (t.e, t.f) == (2, 1)
    assert not any(r.is_real for r in t.embeddings_l)


def test_build_tower_rejects_bad_generator_embedding():
    with pytest.raises(ValueError, match="generator embedding invalid"):
        build_tower(Poly([-2, 0, 1]), Poly([-2, 0, 0, 0, 1]), Poly([0, 1]),
                    [Poly([1]), Poly([0, 1])], 96)


def test_build_tower_rejects_nonintegral_basis():
    with pytest.raises(ValueError, match="not an algebraic integer"):
        build_tower(Poly([-2, 0, 1]), Poly([-2, 0, 0, 0, 1]), Poly([0, 0, 1]),
                    [Poly([1]), Poly([0, Fraction(1, 2)])], 96)


def test_build_tower_rejects_nonsquarefree():
    with pytest.raises(ValueError, match="squarefree"):
        build_tower(Poly([0, 1]), Poly([1, 2, 1]), Poly([]), [Poly([1])], 96)


def test_degenerate_extension_is_allowed():
    # l = k: e = 1, the norm is the identity
    t = build_tower(Poly([-2, 0, 1]), Poly([-2, 0, 1]), Poly([0, 1]),
                    [Poly([1]), Poly([0, 1])], 96)
    assert t.e == 1
    a = t.l_element([3, 5])
    assert relative_norm(a).coeff_vector() == a.coeff_vector()


def test_degree_one_base_with_nonzero_generator():
    # Q may also be presented as x - 1 with generator 1
    t = build_tower(Poly([-1, 1]), Poly([-2, 0, 1]), Poly([1]), [Poly([1])], 96)
    assert (t.e, t.f) == (2, 1)
    assert relative_norm(t.l_element([3, 1])) == 7


# -- arithmetic ------------------------------------------------------------------


def test_arithmetic_examples(pell_tower):
    t = pell_tower
    theta = t.theta()
    assert (1 + theta) * (-1 + theta) == 1
    alpha = t.l_element([5, 7])
    assert alpha * t.one("l") == alpha
    assert theta.inverse() == t.l_element([0, Fraction(1, 2)])
    assert theta * theta.inverse() == 1


def test_division_by_zero(pell_tower):
    with pytest.raises(ZeroDivisionError):
        pell_tower.one("l") / pell_tower.zero("l")


def test_cross_field_arithmetic_rejected(pell_tower):
    with pytest.raises(ValueError, match="cross-field"):
        pell_tower.one("l") + pell_tower.one("k")


def test_field_axioms_random(cyclotomic_tower):
    rng = random.Random(11)
    t = cyclotomic_tower
    for _ in range(50):
        a = random_element(t, "l", rng)
        b = random_element(t, "l", rng)
        c = random_element(t, "l", rng)
        assert (a + b) * c == a * c + b * c
        if not b.is_zero:
            assert (a / b) * b == a


# -- embedding k in l -------------------------------------------------------------


def test_embed_examples(quartic_tower):
    t = quartic_tower
    assert embed_k_in_l(t.one("k")) == t.one("l")
    assert embed_k_in_l(t.phi()) == t.l_element([0, 0, 1])
    assert embed_k_in_l(t.phi() + 1) == t.l_element([1, 0, 1])


def test_embed_is_ring_hom(quartic_tower):
    rng = random.Random(12)
    t = quartic_tower
    for _ in range(30):
        a = random_element(t, "k", rng)
        b = random_element(t, "k", rng)
        assert embed_k_in_l(a * b) == embed_k_in_l(a) * embed_k_in_l(b)
        assert embed_k_in_l(a + b) == embed_k_in_l(a) + embed_k_in_l(b)


# -- matrices and characteristic polynomials ----------------------------------------


def test_mult_matrix_examples(pell_tower):
    t = pell_tower
    assert mult_matrix(t.theta()) == [[0, 2], [1, 0]]
    assert mult_matrix(t.one("l")) == [[1, 0], [0, 1]]
    assert mult_matrix(t.zero("l")) == [[0, 0], [0, 0]]


def test_char_poly_examples(pell_tower):
    t = pell_tower
    assert char_poly(t.theta()) == Poly([-2, 0, 1])
    assert char_poly(t.one("l")) == Poly([1, -2, 1])
    assert char_poly(t.l_element([3, 1])) == Poly([7, -6, 1])


def test_char_poly_annihilates(cyclotomic_tower):
    rng = random.Random(13)
    t = cyclotomic_tower
    for _ in range(20):
        a = random_element(t, "l", rng, span=4)
        cp = char_poly(a)
        assert cp.evaluate(a, zero=t.zero("l")) == 0
        assert cp.degree == 4 and cp.lead == 1


def test_char_poly_is_minpoly_power(pell_tower, quartic_tower):
    # rational element in a quartic field: char poly = (x - a)^4
    t = quartic_tower
    a = t.l_element([3])
    assert char_poly(a) == Poly([-3, 1]) * Poly([-3, 1]) * Poly([-3, 1]) * Poly([-3, 1])
    assert squarefree_part(char_poly(a)) == Poly([-3, 1])


# -- relative norm ------------------------------------------------------------------


def test_norm_examples(pell_tower, gaussian_tower):
    assert relative_norm(pell_tower.l_element([3, 1])) == 7
    assert relative_norm(gaussian_tower.l_element([1, 1])) == 2
    # scalar from k: norm is the e-th power
    t = pell_tower
    assert relative_norm(t.l_element([5])) == 25


def test_norm_of_zero_is_zero(pell_tower):
    assert relative_norm(pell_tower.zero("l")).is_zero


def test_norm_multiplicative(pell_tower, gaussian_tower, cyclotomic_tower):
    for tower, seed in ((pell_tower, 21), (gaussian_tower, 22), (cyclotomic_tower, 23)):
        rng = random.Random(seed)
        for _ in range(200):
            a = random_element(tower, "l", rng, span=6)
            b = random_element(tower, "l", rng, span=6)
            assert relative_norm(a * b) == relative_norm(a) * relative_norm(b)


def test_norm_transitive(cyclotomic_tower, quartic_tower):
    for tower, seed in ((cyclotomic_tower, 31), (quartic_tower, 32)):
        rng = random.Random(seed)
        for _ in range(50):
            mu = random_element(tower, "l", rng, span=5)
            if mu.is_zero:
                continue
            assert norm_to_q(mu) == norm_to_q(relative_norm(mu))


def test_norm_matches_root_product(quartic_tower):
    rng = random.Random(33)
    t = quartic_tower
    for _ in range(20):
        mu = random_element(t, "l", rng, span=4)
        if mu.is_zero:
            continue
        prod = mpmath.mpf(1)
        for i in range(t.degree("l")):
            prod *= abs(mu.embed_numeric(i))
        assert abs(float(prod) - abs(float(norm_to_q(mu)))) < 1e-6 * (1 + float(prod))


def test_fiber_separation(quartic_tower):
    # restriction values within a fiber coincide, across fibers they differ
    t = quartic_tower
    threshold = mpmath.mpf(2) ** (-t.precision_bits // 4)
    values = []
    with mpmath.mp.workprec(t.precision_bits + 16):
        for root in t.embeddings_l:
            values.append(t.phi_in_theta.evaluate(root.to_mpc(), zero=mpmath.mpc(0)))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            same = t.fiber_of_l_embedding[i] == t.fiber_of_l_embedding[j]
            dist = abs(values[i] - values[j])
            if same:
                assert dist < threshold
            else:
                assert dist > 10 * threshold

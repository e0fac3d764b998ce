"""Session-scoped fixtures for the four test towers."""

from fractions import Fraction
from pathlib import Path

import pytest

from normform import (
    FullModule,
    Poly,
    build_tower,
    relative_units,
)

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def pell_tower():
    """l = Q(sqrt2), k = Q."""
    return build_tower(Poly([0, 1]), Poly([-2, 0, 1]), Poly([]), [Poly([1])], 128)


@pytest.fixture(scope="session")
def pell_module(pell_tower):
    t = pell_tower
    return FullModule(t, [t.l_element([1]), t.l_element([0, 1])])


@pytest.fixture(scope="session")
def pell_system(pell_module):
    t = pell_module.tower
    return relative_units(pell_module, [t.l_element([1, 1])], [])


@pytest.fixture(scope="session")
def pell_nonmax_module(pell_tower):
    t = pell_tower
    return FullModule(t, [t.l_element([1]), t.l_element([0, 2])])


@pytest.fixture(scope="session")
def pell_nonmax_system(pell_nonmax_module):
    t = pell_nonmax_module.tower
    return relative_units(pell_nonmax_module, [t.l_element([1, 1])], [])


@pytest.fixture(scope="session")
def gaussian_tower():
    """l = Q(i), k = Q."""
    return build_tower(Poly([0, 1]), Poly([1, 0, 1]), Poly([]), [Poly([1])], 128)


@pytest.fixture(scope="session")
def gaussian_module(gaussian_tower):
    t = gaussian_tower
    return FullModule(t, [t.l_element([1]), t.l_element([0, 1])])


@pytest.fixture(scope="session")
def gaussian_system(gaussian_module):
    return relative_units(gaussian_module, [], [])


@pytest.fixture(scope="session")
def cyclotomic_tower():
    """l = Q(zeta5), k = Q(sqrt5) with integral basis {1, (1+sqrt5)/2}."""
    return build_tower(
        Poly([-5, 0, 1]),
        Poly([1, 1, 1, 1, 1]),
        Poly([-1, 0, -2, -2]),
        [Poly([1]), Poly([Fraction(1, 2), Fraction(1, 2)])],
        128,
    )


@pytest.fixture(scope="session")
def cyclotomic_module(cyclotomic_tower):
    t = cyclotomic_tower
    return FullModule(t, [t.l_element([1]), t.l_element([0, 1])])


@pytest.fixture(scope="session")
def cyclotomic_system(cyclotomic_module):
    t = cyclotomic_module.tower
    golden_l = t.l_element([0, 0, -1, -1])            # (1+sqrt5)/2 inside l
    golden_k = t.k_element([Fraction(1, 2), Fraction(1, 2)])
    return relative_units(cyclotomic_module, [golden_l], [golden_k])


@pytest.fixture(scope="session")
def quartic_tower():
    """l = Q(2^(1/4)), k = Q(sqrt2) via phi = theta^2."""
    return build_tower(
        Poly([-2, 0, 1]),
        Poly([-2, 0, 0, 0, 1]),
        Poly([0, 0, 1]),
        [Poly([1]), Poly([0, 1])],
        128,
    )


@pytest.fixture(scope="session")
def quartic_module(quartic_tower):
    t = quartic_tower
    return FullModule(t, [t.l_element([1]), t.l_element([0, 1])])


@pytest.fixture(scope="session")
def quartic_system(quartic_module):
    t = quartic_module.tower
    units_l = [t.l_element([1, 0, 1]), t.l_element([-1, 1])]
    return relative_units(quartic_module, units_l, [t.k_element([1, 1])])

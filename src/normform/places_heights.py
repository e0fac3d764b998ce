"""Archimedean places, normalized absolute values, and the Weil height.

Heights are a sum over the archimedean places of the element's field,
evaluated at the tower's certified embeddings:
h(alpha) = (1/d) (log a + sum_w d_w log+ |alpha|_w), where a is the leading
coefficient of the primitive characteristic polynomial (Mahler's identity
M(alpha) = a prod max(1, |alpha_i|)).  No ideal factorization and no root
finding per element is needed, and a is 1 without any characteristic
polynomial for elements visibly in Z[gen].  A conjugate certified on the
unit circle contributes exactly 0.  Every real-valued result is recomputed
at twice the working precision; a disagreement raises instead of returning
quietly.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import PrecisionError, VerificationError
from .number_field import FieldElement, FieldTower, char_poly, in_power_order
from .rational_core import primitive_part

__all__ = ["Place", "PlaceFiber", "archimedean_places", "place_fibers", "fiber_sums",
           "FIBER_TOL", "log_abs", "weil_height", "archimedean_log_vector"]

FIBER_TOL = 1e-9  # largest fiber sum of a balanced vector over the places of l


@dataclass(frozen=True)
class Place:
    """One archimedean place: a real embedding or a conjugate pair."""

    field_tag: str
    index: int
    is_real: bool
    d_w: int
    d: int
    embedding_index: int
    embedding_indices: tuple


@dataclass(frozen=True)
class PlaceFiber:
    """The places of l lying over one place v of k."""

    v: Place
    members: tuple


def archimedean_places(tower: FieldTower, field_tag: str):
    """One place per real embedding plus one per conjugate pair."""
    key = ("places", field_tag)
    if key in tower._cache:
        return tower._cache[key]
    embeds = tower.embeddings(field_tag)
    d = tower.degree(field_tag)
    places = []
    i = 0
    while i < len(embeds):
        if embeds[i].is_real:
            places.append(Place(field_tag, len(places), True, 1, d, i, (i,)))
            i += 1
        else:
            places.append(Place(field_tag, len(places), False, 2, d, i, (i, i + 1)))
            i += 2
    if sum(p.d_w for p in places) != d:
        raise VerificationError("place local degrees do not sum to the field degree")
    tower._cache[key] = tuple(places)
    return tower._cache[key]


def place_fibers(tower: FieldTower):
    """Group the places of l by the place of k their embeddings restrict to."""
    key = ("fibers",)
    if key in tower._cache:
        return tower._cache[key]
    places_k = archimedean_places(tower, "k")
    places_l = archimedean_places(tower, "l")
    k_place_of_embedding = {}
    for p in places_k:
        for idx in p.embedding_indices:
            k_place_of_embedding[idx] = p.index
    members = {p.index: [] for p in places_k}
    for w in places_l:
        below = {k_place_of_embedding[tower.fiber_of_l_embedding[idx]]
                 for idx in w.embedding_indices}
        if len(below) != 1:
            raise PrecisionError("embedding fibration is not conjugation-stable")
        members[below.pop()].append(w)
    fibers = tuple(PlaceFiber(v, tuple(members[v.index])) for v in places_k)
    if not all(f.members for f in fibers):
        raise VerificationError("a place of k has no place of l above it")
    if sum(len(f.members) for f in fibers) != len(places_l):
        raise VerificationError("place fibers do not partition the places of l")
    tower._cache[key] = fibers
    return fibers


def fiber_sums(tower: FieldTower, vector):
    """Per place v of k, the sum of vector[w.index] over the places w above v."""
    return tuple(sum(vector[w.index] for w in fiber.members) for fiber in place_fibers(tower))


def _log_abs_at(alpha: FieldElement, place: Place, hi: bool):
    prec = alpha.tower.precision_bits * (2 if hi else 1)
    ((value, radius),) = alpha.conjugates(hi, (place.embedding_index,))
    with mp.workprec(prec + 16):
        mag = abs(value)
        if mag <= radius:
            raise PrecisionError("embedding value not certified nonzero")
        return mpmath.mpf(place.d_w) / place.d * mpmath.log(mag)


def log_abs(alpha: FieldElement, place: Place) -> float:
    """log |alpha|_w with the local-degree normalization (d_w/d) log ||.||."""
    if alpha.owner != place.field_tag:
        raise ValueError("place belongs to a different field level")
    if alpha.is_zero:
        raise ValueError("log of zero")
    lo = _log_abs_at(alpha, place, hi=False)
    hi = _log_abs_at(alpha, place, hi=True)
    if abs(lo - hi) > mpmath.mpf(2) ** (-alpha.tower.precision_bits // 4):
        raise PrecisionError("log re-evaluation disagreed; raise precision")
    return float(hi)


def archimedean_log_vector(alpha: FieldElement):
    """The vector (log |alpha|_w) over the archimedean places of l."""
    if alpha.owner != "l":
        raise ValueError("archimedean_log_vector expects an l-element")
    if alpha.is_zero:
        raise ValueError("log of zero")
    return tuple(log_abs(alpha, w) for w in archimedean_places(alpha.tower, "l"))


def _place_sum(alpha: FieldElement, lead: int, hi: bool):
    """(1/d) log of lead * prod_w max(1, |alpha|_w)^d_w, the Mahler measure."""
    prec = alpha.tower.precision_bits * (2 if hi else 1)
    places = archimedean_places(alpha.tower, alpha.owner)
    values = alpha.conjugates(hi, [w.embedding_index for w in places])
    with mp.workprec(prec + 16):
        measure = mpmath.mpf(lead)
        for w, (value, radius) in zip(places, values):
            mag = abs(value)
            if abs(mag - 1) <= radius:
                continue  # a conjugate certified on the unit circle contributes 0
            if mag > 1:
                measure *= mag ** w.d_w
        return mpmath.log(measure) / alpha.tower.degree(alpha.owner)


def weil_height(alpha: FieldElement) -> float:
    """Weil height as a place sum over the tower's certified embeddings.

    Degree normalization makes the value independent of the field the
    element is viewed in, and the unit-circle clamp makes the height of a
    root of unity exactly zero.
    """
    if alpha.is_zero:
        raise ValueError("height of zero")
    if in_power_order(alpha):
        lead = 1
    else:
        _, q = primitive_part(char_poly(alpha))
        lead = int(q.lead)
    prec = alpha.tower.precision_bits
    lo = _place_sum(alpha, lead, hi=False)
    hi = _place_sum(alpha, lead, hi=True)
    if abs(lo - hi) > mpmath.mpf(2) ** (-prec // 4):
        raise PrecisionError("height re-evaluation disagreed; raise precision")
    return float(hi)

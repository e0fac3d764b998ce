"""The unit-log least-squares routine against the routines it replaced.

``reference_float_rank`` (Gauss-Jordan with an absolute pivot tolerance) and
``reference_solve_least_squares`` (normal equations) are the former rank and
solve of the unit-log system, kept here as references: on every corpus log
matrix and on generated matrices, ``least_squares`` must give the same rank
and the same solution within 1e-9.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normform import cli, relative_norm
from normform.errors import PrecisionError
from normform.places_heights import archimedean_places, log_abs
from normform.problemfile import build_context, parse_problem
from normform.rational_core import least_squares
from normform.reduction import balance_vector

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SOLUTION_TOL = 1e-9


def reference_float_rank(rows, tol=1e-8) -> int:
    work = [list(map(float, r)) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = max(range(rank, len(work)), key=lambda i: abs(work[i][col]), default=None)
        if piv is None or abs(work[piv][col]) < tol:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivval = work[rank][col]
        work[rank] = [v / pivval for v in work[rank]]
        for i in range(len(work)):
            if i != rank:
                f = work[i][col]
                if f:
                    work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def reference_solve_least_squares(matrix_rows, target):
    """Normal-equations solve with full pivoting; returns (solution, residual)."""
    m = len(matrix_rows)
    s = len(matrix_rows[0]) if m else 0
    if s == 0:
        return [], max((abs(t) for t in target), default=0.0)
    gram = [[sum(matrix_rows[w][i] * matrix_rows[w][j] for w in range(m))
             for j in range(s)] for i in range(s)]
    rhs = [sum(matrix_rows[w][i] * target[w] for w in range(m)) for i in range(s)]
    idx = list(range(s))
    for col in range(s):
        piv = max(range(col, s), key=lambda i: abs(gram[i][col]))
        if abs(gram[piv][col]) < 1e-14:
            raise PrecisionError("unit log matrix is numerically singular")
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        idx[col], idx[piv] = idx[piv], idx[col]
        for i in range(col + 1, s):
            f = gram[i][col] / gram[col][col]
            gram[i] = [a - f * b for a, b in zip(gram[i], gram[col])]
            rhs[i] -= f * rhs[col]
    sol = [0.0] * s
    for i in range(s - 1, -1, -1):
        sol[i] = (rhs[i] - sum(gram[i][j] * sol[j] for j in range(i + 1, s))) / gram[i][i]
    residual = max(abs(sum(matrix_rows[w][j] * sol[j] for j in range(s)) - target[w])
                   for w in range(m))
    return sol, residual


def assert_agrees(rows, targets):
    """Same rank as the reference; on full column rank, the same solutions."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = least_squares(rows)[2]
    assert rank == reference_float_rank(rows)
    if rank < ncols:
        return
    for target in targets:
        x, residual, solved_rank = least_squares(rows, target)
        ref_x, ref_residual = reference_solve_least_squares(rows, list(target))
        assert solved_rank == rank
        assert len(x) == len(ref_x)
        assert all(abs(a - b) <= SOLUTION_TOL for a, b in zip(x, ref_x)), (x, ref_x)
        assert abs(residual - ref_residual) <= SOLUTION_TOL


CORPUS = [p for p in sorted(PROBLEMS.glob("*.json")) if "dependent" not in p.stem]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_agrees_with_references_on_corpus_log_matrices(path):
    ctx = build_context(parse_problem(path.read_text()))
    tower, system, module = ctx.tower, ctx.system, ctx.module
    places_l = archimedean_places(tower, "l")
    places_k = archimedean_places(tower, "k")
    rng = random.Random(20261018)
    elements = [module.element_from_coordinates([rng.randint(-9, 9) or 1 for _ in range(module.rank)])
                for _ in range(8)]
    # the reduction's target: balancing vectors of module elements
    assert_agrees(system.log_matrix, [balance_vector(mu, system).coords for mu in elements])
    # the equivalence test's target: log vectors of quotients of module elements
    assert_agrees(system.log_matrix, [[log_abs(b / a, w) for w in places_l]
                                      for a, b in zip(elements, elements[1:])])
    pf = ctx.problem
    if pf.units_l is not None:
        units_l = [tower.l_element(p) for p in pf.units_l]
        units_k = [tower.k_element(p) for p in pf.units_k or []]
        assert_agrees([[log_abs(u, w) for u in units_l] for w in places_l], [])
        # relative_units writes each relative norm of an l-unit over the k-units
        assert_agrees([[log_abs(u, v) for u in units_k] for v in places_k],
                      [[log_abs(relative_norm(u), v) for v in places_k] for u in units_l])


@st.composite
def low_rank_matrices(draw):
    """m x n products B C of small integer matrices, B m x r and C r x n, scaled.

    At these sizes a full-rank product has every QR pivot above 3e-6 times
    the scale, far from both rank tolerances, so the two ranks must agree.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, m))
    r = draw(st.integers(0, n))
    entry = st.integers(-2, 2)
    b = [[draw(entry) for _ in range(r)] for _ in range(m)]
    c = [[draw(entry) for _ in range(n)] for _ in range(r)]
    scale = draw(st.floats(0.05, 20.0))
    return [[scale * sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)]
            for i in range(m)]


@st.composite
def well_conditioned_systems(draw):
    """Full column rank: the n x n identity stacked on random rows, shuffled and
    scaled, so the smallest singular value is at least the scale."""
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 3))
    cell = st.floats(-3.0, 3.0)
    rows = [[float(i == j) for j in range(n)] for i in range(n)]
    rows += [[draw(cell) for _ in range(n)] for _ in range(extra)]
    rows = draw(st.permutations(rows))
    scale = draw(st.floats(0.1, 10.0))
    target = [draw(st.floats(-10.0, 10.0)) for _ in rows]
    return [[scale * v for v in row] for row in rows], target


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices())
def test_rank_agrees_with_reference_including_rank_deficient(rows):
    assert least_squares(rows)[2] == reference_float_rank(rows)


@settings(max_examples=300, deadline=None)
@given(well_conditioned_systems())
def test_solution_agrees_with_reference(system):
    rows, target = system
    assert_agrees(rows, [target])


def test_rank_deficient_columns_get_zero():
    # the second column is twice the first: rank 1, one basic solution
    x, residual, rank = least_squares([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [3.0, 3.0, 0.0])
    assert rank == 1
    assert x.count(0.0) == 1
    assert residual < 1e-12


def test_rank_threshold_is_relative_to_the_largest_column():
    # a pivot counts when above RANK_RTOL = 1e-8 times max(1, largest column norm)
    assert least_squares([[1.0, 1.0], [1.0, 1.0 + 1e-6]])[2] == 2
    assert least_squares([[1.0, 1.0], [1.0, 1.0 + 1e-10]])[2] == 1
    assert least_squares([[1e6, 1e6], [1e6, 1e6 + 1.0]])[2] == 2
    assert least_squares([[1e6, 1e6], [1e6, 1e6 + 1e-4]])[2] == 1


def test_zero_columns_report_the_target_as_residual():
    assert least_squares([[], [], []], [0.5, -2.0, 1.0]) == ([], 2.0, 0)
    assert least_squares([[0.0], [1e-12]])[2] == 0


@pytest.mark.parametrize("command", ["units", "reduce"])
def test_dependent_supplied_units_exit_2(command, capsys):
    path = PROBLEMS / "quartic2_dependent_units.json"
    assert cli.main([command, str(path)]) == 2
    assert "supplied units not independent" in capsys.readouterr().err

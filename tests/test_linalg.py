"""Row reduction, kernels and coordinates: properties over a prime field,
GF(2), a binary extension and an odd-characteristic extension."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from agcyclic import GF
from agcyclic.linalg import in_row_space, left_kernel, rref, solve_coordinates

FIELDS = [GF(2), GF(5), GF(2, 3), GF(3, 2)]
PROPERTY = settings(max_examples=100)


def combine(field, coeffs, mat):
    """sum_i coeffs[i] * mat[i], one scalar operation at a time."""
    out = [0] * mat.shape[1]
    for c, row in zip(coeffs, mat):
        out = [field.add_i(x, field.mul_i(int(c), int(y))) for x, y in zip(out, row)]
    return out


def draw_matrix(data, field, max_rows=5, max_cols=7):
    """A matrix whose rows are random combinations of at most `rows` random
    rows, so that rank deficiency is common."""
    rows = data.draw(st.integers(0, max_rows))
    cols = data.draw(st.integers(1, max_cols))
    rank_bound = data.draw(st.integers(0, rows))
    elements = st.integers(0, field.q - 1)
    base = np.array(
        [data.draw(st.lists(elements, min_size=cols, max_size=cols)) for _ in range(rank_bound)],
        dtype=np.int64,
    ).reshape(rank_bound, cols)
    out = [combine(field, data.draw(st.lists(elements, min_size=rank_bound,
                                             max_size=rank_bound)), base)
           for _ in range(rows)]
    return np.array(out, dtype=np.int64).reshape(rows, cols), rank_bound


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_rref_is_idempotent_and_spans_the_rows(data, field):
    mat, rank_bound = draw_matrix(data, field)
    reduced, pivots = rref(field, mat)
    assert reduced.shape[0] == len(pivots) <= rank_bound
    assert (reduced[:, list(pivots)] == np.eye(len(pivots), dtype=np.int64)).all()
    again, again_pivots = rref(field, reduced)
    assert again_pivots == pivots and (again == reduced).all()
    assert all(in_row_space(field, reduced, pivots, row) for row in mat)


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_left_kernel_annihilates_with_complementary_dimension(data, field):
    mat, _ = draw_matrix(data, field)
    kernel = left_kernel(field, mat)
    rank = rref(field, mat)[0].shape[0]
    assert kernel.shape == (mat.shape[0] - rank, mat.shape[0])
    assert not any(any(combine(field, row, mat)) for row in kernel)
    reduced, _ = rref(field, kernel)
    assert reduced.shape == kernel.shape and (reduced == kernel).all()


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_solve_coordinates_round_trips(data, field):
    mat, _ = draw_matrix(data, field)
    elements = st.integers(0, field.q - 1)
    coeffs = data.draw(st.lists(elements, min_size=mat.shape[0], max_size=mat.shape[0]))
    target = combine(field, coeffs, mat)
    solution = solve_coordinates(field, mat, target)
    assert solution is not None and combine(field, solution, mat) == target
    other = data.draw(st.lists(elements, min_size=mat.shape[1], max_size=mat.shape[1]))
    reduced, pivots = rref(field, mat)
    solution = solve_coordinates(field, mat, other)
    if in_row_space(field, reduced, pivots, other):
        assert combine(field, solution, mat) == other
    else:
        assert solution is None

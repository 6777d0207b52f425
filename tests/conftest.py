import numpy as np
import pytest


def _to_dense(A, interior=None):
    """A banded matrix as a dense array: entry (i, i + off) of each stored
    diagonal that falls inside the matrix, data of 7 numbers standing for
    the same stencil in every row. A grid operator writes only its interior
    rows, and its vectors are zero on the frame, so a dense oracle of it
    passes interior, the mask of the interior nodes, and gets the block of
    those rows and columns."""
    a = np.zeros((A.rows, A.rows))
    data = np.broadcast_to(A.data.T, (A.rows, len(A.offsets))).T
    for off, d in zip(A.offsets, data):
        i = np.arange(max(0, -off), min(A.rows, A.rows - off))
        a[i, i + off] = d[i]
    return a if interior is None else a[np.ix_(interior, interior)]


@pytest.fixture
def to_dense():
    return _to_dense

import numpy as np
import pytest


def _to_dense(A):
    """A banded matrix as a dense array: entry (i, i + off) of each stored
    diagonal that falls inside the matrix."""
    a = np.zeros((A.rows, A.rows))
    for off, d in zip(A.offsets, A.data):
        i = np.arange(max(0, -off), min(A.rows, A.rows - off))
        a[i, i + off] = d[i]
    return a


@pytest.fixture
def to_dense():
    return _to_dense

"""Shared helpers for the test suite.

The numeric differentiation helper here is deliberately local to the tests:
it re-derives derivatives from loss evaluations alone so that library
gradients and test expectations come from two independent routes.
"""

import numpy as np
import pytest

from renlab import trainer


def numeric_grad(loss_of, arr, h=1e-6):
    """Central-difference gradient of ``loss_of()`` w.r.t. ``arr``, in place.

    ``loss_of`` must recompute the loss from the current contents of ``arr``
    on every call.  The array is restored entry by entry.
    """
    out = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        keep = arr[idx]
        arr[idx] = keep + h
        hi = loss_of()
        arr[idx] = keep - h
        lo = loss_of()
        arr[idx] = keep
        out[idx] = (hi - lo) / (2.0 * h)
    return out


def rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread-count getter, with the caller's count set
    to 2 for the test and put back afterwards."""
    api = trainer._blas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS loaded in this process")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)

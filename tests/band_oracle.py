"""Test-side dense-to-band packing: the oracle that band code is held to."""

import numpy as np

from kolmoflow.spectral import OperatorMatrix


def band_of(a) -> OperatorMatrix:
    """The operator of the dense square matrix `a`, in a band array as narrow
    as its nonzero diagonals allow (a diagonal of signed zeros is not
    nonzero); diagonal k of `a` goes to row b - k, the package's layout."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    b = max((abs(k) for k in range(1 - m, m) if np.any(np.diagonal(a, k))), default=0)
    ab = np.zeros((2 * b + 1, m), dtype=complex)
    for k in range(-b, b + 1):
        if k >= 0:
            ab[b - k, k:] = np.diagonal(a, k)
        else:
            ab[b - k, :m + k] = np.diagonal(a, k)
    return OperatorMatrix(ab)

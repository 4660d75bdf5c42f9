"""Products of cosines and sines over arithmetic lattices of angles.

These identities are the combinatorial engine behind the discriminant
bounds: a product of squared cosines over a pi/d lattice collapses to a
single sine, and the pairwise sine product of any d angles is maximised
exactly by such a lattice.

Every function takes an array of any shape (or a float) and evaluates it
elementwise with one numpy operation per factor; a 0-d result comes back
as a Python float.
"""

import math

import numpy as np

from .errors import DomainError, check_degree


def _result(arr: np.ndarray):
    return float(arr) if arr.ndim == 0 else arr


def cos_sq_product(x, d: int):
    """prod_{k=0}^{d-1} cos^2(x + pi k / d), elementwise in x."""
    check_degree(d)
    x = np.asarray(x, dtype=float)
    prod = np.ones(x.shape)
    for k in range(d):
        c = np.cos(x + math.pi * k / d)
        prod *= c * c
    return _result(prod)


def cos_sq_product_closed_form(x, d: int):
    """Closed form of cos_sq_product: 2^(2-2d) cos^2(dx) for odd d,
    2^(2-2d) sin^2(dx) for even d."""
    check_degree(d)
    x = np.asarray(x, dtype=float)
    t = np.cos(d * x) if d % 2 else np.sin(d * x)
    return _result(2.0 ** (2 - 2 * d) * t * t)


def sine_product_identity_residual(x, d: int):
    """sin(dx) - 2^(d-1) prod_{k=0}^{d-1} sin(x + pi k / d), elementwise
    in x; zero in exact arithmetic for every x."""
    check_degree(d)
    x = np.asarray(x, dtype=float)
    prod = np.ones(x.shape)
    for k in range(d):
        prod *= np.sin(x + math.pi * k / d)
    return _result(np.sin(d * x) - 2.0 ** (d - 1) * prod)


def pairwise_sin_sq_product(ys):
    """prod_{j<k} sin^2(y_j - y_k) over the d >= 2 angles on the last
    axis of ys: a float for one row of angles, an array of the leading
    shape otherwise.

    Each row is first shifted by its minimum and reduced mod pi; both
    operations leave every sin^2 of a difference unchanged. The product
    runs over the column pairs in the order (0,1), (0,2), ..., (d-2,d-1).
    """
    y = np.asarray(ys, dtype=float)
    if y.ndim == 0 or y.shape[-1] < 2:
        raise DomainError("need at least two angles")
    y = np.fmod(y - y.min(axis=-1, keepdims=True), math.pi)
    d = y.shape[-1]
    prod = np.ones(y.shape[:-1])
    for j in range(d):
        for k in range(j + 1, d):
            s = np.sin(y[..., j] - y[..., k])
            prod *= s * s
    return _result(prod)


def log_hadamard_bound(d: int) -> float:
    """log of the sharp upper bound 2^(-d(d-1)) d^d on
    pairwise_sin_sq_product, attained exactly when the sorted angles form
    an arithmetic progression with difference pi/d."""
    check_degree(d)
    return d * math.log(d) - d * (d - 1) * math.log(2.0)

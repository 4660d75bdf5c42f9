import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_poly.errors import DomainError
from extremal_poly.trig_products import (
    cos_sq_product,
    cos_sq_product_closed_form,
    log_hadamard_bound,
    pairwise_sin_sq_product,
    sine_product_identity_residual,
)
from extremal_poly.verification import run_suite


def _ref_cos_sq_product(x, d):
    prod = 1.0
    for k in range(d):
        prod *= math.cos(x + math.pi * k / d) ** 2
    return prod


def _ref_cos_sq_closed_form(x, d):
    t = math.cos(d * x) if d % 2 else math.sin(d * x)
    return 2.0 ** (2 - 2 * d) * t * t


def _ref_sine_residual_terms(x, d):
    prod = 1.0
    for k in range(d):
        prod *= math.sin(x + math.pi * k / d)
    return math.sin(d * x), 2.0 ** (d - 1) * prod


def _ref_pairwise(ys):
    base = min(ys)
    vals = [math.fmod(y - base, math.pi) for y in ys]
    prod = 1.0
    for j in range(len(vals)):
        for k in range(j + 1, len(vals)):
            prod *= math.sin(vals[j] - vals[k]) ** 2
    return prod


def test_cos_product_hand_value():
    # d=2, x=pi/4: cos^2(pi/4) cos^2(3pi/4) = 1/4
    assert cos_sq_product(math.pi / 4, 2) == pytest.approx(0.25, rel=1e-14)
    assert cos_sq_product_closed_form(math.pi / 4, 2) == pytest.approx(0.25)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=2, max_value=10),
)
def test_cos_product_matches_closed_form(x, d):
    assert abs(cos_sq_product(x, d) - cos_sq_product_closed_form(x, d)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=2, max_value=10),
)
def test_sine_product_identity(x, d):
    assert abs(sine_product_identity_residual(x, d)) < 5e-15 * 2.0 ** (d - 1)


def test_pairwise_product_ap_equality():
    for d in range(2, 8):
        ys = [k * math.pi / d for k in range(d)]
        got = pairwise_sin_sq_product(ys)
        assert abs(math.log(got) - log_hadamard_bound(d)) <= math.log1p(1e-9)


def test_pairwise_product_never_exceeds_bound():
    rng = np.random.default_rng(99)
    for d in range(2, 8):
        # one (300, d) draw gives the values of 300 draws of d angles
        vals = pairwise_sin_sq_product(rng.uniform(0.0, math.pi, size=(300, d)))
        assert vals.shape == (300,)
        with np.errstate(divide="ignore"):
            logs = np.log(vals)
        assert np.all(logs <= log_hadamard_bound(d) + math.log1p(1e-9))


def test_pairwise_product_shift_invariance():
    ys = [0.1, 0.9, 2.2]
    shifted = [y + 17.3 for y in ys]
    assert pairwise_sin_sq_product(shifted) == pytest.approx(
        pairwise_sin_sq_product(ys), rel=1e-9
    )


def test_pairwise_product_needs_two():
    # on the last axis, whatever the leading shape
    for ys in ([1.0], [], 1.0, np.zeros((5, 1)), np.zeros((3, 0))):
        with pytest.raises(DomainError):
            pairwise_sin_sq_product(ys)


def test_bound_values():
    assert math.exp(log_hadamard_bound(2)) == pytest.approx(1.0)
    assert math.exp(log_hadamard_bound(3)) == pytest.approx(27.0 / 64.0)
    assert log_hadamard_bound(4) == pytest.approx(4 * math.log(4) - 12 * math.log(2))


def test_degree_validation():
    with pytest.raises(DomainError):
        cos_sq_product(0.0, 1)
    with pytest.raises(DomainError):
        log_hadamard_bound(0)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_pairwise_batch_equals_rows_bitwise(d):
    ys = np.random.default_rng(d).uniform(-4.0, 4.0, size=(500, d))
    batch = pairwise_sin_sq_product(ys)
    rows = [pairwise_sin_sq_product(row) for row in ys]
    assert batch.tolist() == rows
    stacked = pairwise_sin_sq_product(ys.reshape(50, 10, d))
    assert np.array_equal(stacked, batch.reshape(50, 10))


@pytest.mark.parametrize("d", [2, 3, 6, 10])
def test_kernels_match_math_reference(d):
    xs = np.random.default_rng(100 + d).uniform(-10.0, 10.0, size=400)
    got_cos = cos_sq_product(xs, d)
    got_closed = cos_sq_product_closed_form(xs, d)
    got_res = sine_product_identity_residual(xs, d)
    for i, x in enumerate(xs.tolist()):
        assert got_cos[i] == pytest.approx(_ref_cos_sq_product(x, d), rel=1e-14)
        assert got_closed[i] == pytest.approx(_ref_cos_sq_closed_form(x, d), rel=1e-14)
        # the residual cancels two terms, so compare against their size
        lhs, rhs = _ref_sine_residual_terms(x, d)
        assert abs(got_res[i] - (lhs - rhs)) <= 1e-14 * (abs(lhs) + abs(rhs))
    ys = np.random.default_rng(200 + d).uniform(0.0, math.pi, size=(400, d))
    got_pair = pairwise_sin_sq_product(ys)
    for i, row in enumerate(ys.tolist()):
        assert got_pair[i] == pytest.approx(_ref_pairwise(row), rel=1e-14)


@pytest.mark.parametrize(
    "fn", [cos_sq_product, cos_sq_product_closed_form, sine_product_identity_residual]
)
def test_angle_kernels_keep_shape(fn):
    assert type(fn(0.3, 4)) is float
    assert type(fn(np.float64(0.3), 4)) is float
    assert fn(np.linspace(0.0, 1.0, 5), 4).shape == (5,)
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    out = fn(grid, 4)
    assert out.shape == (2, 3)
    assert out.tolist() == [[fn(x, 4) for x in row] for row in grid.tolist()]


def test_pairwise_kernel_keeps_leading_shape():
    assert type(pairwise_sin_sq_product([0.1, 0.7, 2.0])) is float
    assert pairwise_sin_sq_product(np.full((4, 3), 0.5) + np.arange(3)).shape == (4,)
    assert pairwise_sin_sq_product(np.zeros((2, 5, 3))).shape == (2, 5)


def test_verify_trig_lines_are_pinned():
    lines = {r.name: r.detail for r in run_suite(deep=True)}
    assert lines["cos-product"] == (
        "d in 2..10, 1000 points each, worst abs residual <1e-12"
    )
    assert lines["sine-product"] == (
        "d in 2..10, 200 points each, worst abs residual <1e-12"
    )
    assert lines["pairwise-bound"] == (
        "worst log excess -1.421e-07, AP equality log err <1e-12"
    )

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from multirdd.kernels import KernelKind, evaluate, in_support, one_sided_moment, weights_vector
from oracles import moment_quadrature

ALL_KINDS = list(KernelKind)


def test_triangular_peak_and_support():
    assert evaluate(KernelKind.TRIANGULAR, 0.0) == 1.0
    assert evaluate(KernelKind.TRIANGULAR, 2.0) == 0.0


def test_uniform_constant_on_support():
    assert evaluate(KernelKind.UNIFORM, 0.3) == 0.5


def test_nan_input_rejected():
    with pytest.raises(ValueError, match="NaN"):
        evaluate(KernelKind.UNIFORM, float("nan"))


def test_from_name_round_trip_and_unknown():
    for kind in ALL_KINDS:
        assert KernelKind.from_name(kind.value) is kind
    assert KernelKind.from_name("  Uniform ") is KernelKind.UNIFORM
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelKind.from_name("gaussian")


def test_weights_vector_uniform():
    w = weights_vector(KernelKind.UNIFORM, 10.0, np.array([-3.0, 0.0, 12.0]))
    assert np.allclose(w, [0.5, 0.5, 0.0])


def test_weights_vector_triangular_single():
    w = weights_vector(KernelKind.TRIANGULAR, 2.0, np.array([1.0]))
    assert np.allclose(w, [0.5])


def test_weights_vector_empty():
    assert weights_vector(KernelKind.EPANECHNIKOV, 1.0, np.array([])).shape == (0,)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_weights_vector_tiny_bandwidth_gives_zero_weight_without_a_warning(kind):
    # z / h overflows to inf off the cutoff: outside the support, so weight 0, and no warning
    # (the test configuration turns a RuntimeWarning into an error)
    w = weights_vector(kind, 1e-320, np.array([-1.0, 0.0, 1e-160, 2.0]))
    assert w[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0] and w[1] > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("h", [0.25, 1.0, 1e-320])
def test_the_support_holds_every_weight_positive_row(kind, h):
    # z = 0, +-h and one ulp beyond +-h; at h = 1e-320 the last two overflow z / h to inf
    beyond = np.nextafter(h, np.inf)
    z = np.array([0.0, -h, h, -beyond, beyond])
    with np.errstate(over="ignore"):
        inside = in_support(z / h)
    assert inside.tolist() == [True, True, True, False, False]
    positive = weights_vector(kind, h, z) > 0
    assert not (positive & ~inside).any()
    if kind is KernelKind.UNIFORM:
        assert positive.tolist() == inside.tolist()


def test_weights_vector_bad_bandwidth():
    with pytest.raises(ValueError, match="positive"):
        weights_vector(KernelKind.UNIFORM, 0.0, np.array([0.1]))


def test_moment_frozen_values():
    # symmetry plus unit mass puts half the mass on each side
    assert one_sided_moment(KernelKind.TRIANGULAR, 0) == pytest.approx(0.5, abs=1e-15)
    # quadrature oracle of u^2 (1 - u) on [0, 1] gives 1/12
    assert one_sided_moment(KernelKind.TRIANGULAR, 2) == pytest.approx(1.0 / 12.0, abs=1e-12)
    # quadrature oracle of u * 0.25 on [0, 1] gives 0.125
    assert one_sided_moment(KernelKind.UNIFORM, 1, squared=True) == pytest.approx(
        0.125, abs=1e-12
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("squared", [False, True])
def test_moments_match_quadrature(kind, order, squared):
    got = one_sided_moment(kind, order, squared=squared)
    want = moment_quadrature(kind.value, order, squared)
    assert got == pytest.approx(want, abs=1e-10)


def test_moment_order_out_of_range():
    with pytest.raises(ValueError):
        one_sided_moment(KernelKind.UNIFORM, 9)
    with pytest.raises(ValueError):
        one_sided_moment(KernelKind.UNIFORM, -1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unit_total_mass(kind):
    value, _ = integrate.quad(
        lambda u: evaluate(kind, u), -1.0, 1.0, points=[0.0], epsabs=1e-13, epsrel=1e-13
    )
    assert value == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    u=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_symmetry_nonnegativity_support(kind, u):
    value = evaluate(kind, u)
    assert value == evaluate(kind, -u)
    assert value >= 0.0
    if abs(u) > 1:
        assert value == 0.0

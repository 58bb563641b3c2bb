"""Tests for the one-dimensional reflection map, its streaming form, the
componentwise box projection and the local-time bookkeeping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorokhod_sde import (
    ReflectionAccumulator1D,
    ReflectionDomain,
    minimal_push_oracle,
    reflect_box,
    reflect_stream_1d,
    total_variation,
)

TOL_BOUNDARY = 1e-12


def random_walk(rng, n, start_floor=0.0):
    w = np.cumsum(rng.standard_normal(n) * 0.3)
    w += start_floor - min(w[0], 0.0)
    return w


class TestReflectStream1D:
    def test_interior_path_unchanged(self):
        xi, phi = reflect_stream_1d([0.0, 1.0, 2.0], lo=0.0)
        assert np.array_equal(phi, [0.0, 0.0, 0.0])
        assert np.array_equal(xi, [0.0, 1.0, 2.0])

    def test_running_minimum_example(self):
        xi, phi = reflect_stream_1d([0.0, -1.0, 0.5, -2.0], lo=0.0)
        assert np.array_equal(phi, [0.0, 1.0, 1.0, 2.0])
        assert np.array_equal(xi, [0.0, 0.0, 1.5, 0.0])
        assert np.array_equal(total_variation(phi), phi)

    def test_boundary_sliding(self):
        times = np.linspace(0.0, 1.0, 101)
        xi, phi = reflect_stream_1d(-times, lo=0.0)
        assert np.array_equal(phi, times)
        assert np.array_equal(xi, np.zeros_like(times))

    def test_initial_point_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            reflect_stream_1d([-0.5, 1.0], lo=0.0)

    def test_nonzero_boundary(self):
        xi, phi = reflect_stream_1d([1.0, 0.5, 2.0], lo=1.0)
        assert np.array_equal(xi, [1.0, 1.0, 2.5])
        assert np.array_equal(phi, [0.0, 0.5, 0.5])

    def test_identity_on_strictly_interior_paths(self):
        rng = np.random.default_rng(0)
        w = random_walk(rng, 500) + 100.0
        xi, phi = reflect_stream_1d(w, lo=0.0)
        assert np.array_equal(xi, w)
        assert not phi.any()

    def test_complementarity_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = random_walk(rng, 1000)
            xi, phi = reflect_stream_1d(w, lo=0.0)
            inc = np.diff(phi)
            interior = xi[1:] > TOL_BOUNDARY
            assert np.max(inc * interior, initial=0.0) <= TOL_BOUNDARY

    def test_containment_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xi, _ = reflect_stream_1d(random_walk(rng, 1000), lo=0.0)
            assert xi.min() >= 0.0

    def test_minimality_against_candidates(self):
        rng = np.random.default_rng(3)
        w = random_walk(rng, 400)
        _, phi = reflect_stream_1d(w, lo=0.0)
        for _ in range(50):
            # any nondecreasing candidate keeping w + phi' >= 0 dominates phi
            extra = np.cumsum(rng.uniform(0.0, 0.1, size=w.size))
            candidate = phi + extra - extra[0]
            assert np.all(w + candidate >= 0.0)
            assert np.all(phi <= candidate + 1e-15)

    def test_minimal_push_oracle_agrees(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = random_walk(rng, 1000)
            assert np.array_equal(reflect_stream_1d(w)[1], minimal_push_oracle(w))


class TestStreaming:
    def test_interior_stepwise(self):
        acc = ReflectionAccumulator1D(0.0)
        assert acc.update(1.0) == (1.0, 0.0)
        assert acc.update(2.0) == (2.0, 0.0)

    def test_stepwise_example(self):
        acc = ReflectionAccumulator1D(0.0)
        stream = [acc.update(v)[1] for v in (-1.0, 0.5, -2.0)]
        assert stream == [1.0, 1.0, 2.0]

    def test_streaming_matches_batch_bitwise(self):
        rng = np.random.default_rng(5)
        w = random_walk(rng, 10**4)
        xi, phi = reflect_stream_1d(w, lo=0.0)
        acc = ReflectionAccumulator1D(w[0], lo=0.0)
        for k in range(1, w.size):
            xi_k, phi_k = acc.update(w[k])
            assert xi_k == xi[k]
            assert phi_k == phi[k]

    def test_initial_point_rejected(self):
        with pytest.raises(ValueError):
            ReflectionAccumulator1D(-0.1, lo=0.0)


@pytest.mark.parametrize("w, message", [
    ([], "nonempty 1d path"),
    ([[0.0, 1.0], [2.0, 3.0]], "nonempty 1d path"),
    ([-0.5, 1.0], "below the boundary"),
])
def test_malformed_path_rejected(w, message):
    with pytest.raises(ValueError, match=message):
        reflect_stream_1d(w, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=60),
    start=st.floats(0.0, 3.0),
)
def test_reflection_properties(steps, start):
    w = start + np.concatenate([[0.0], np.cumsum(steps)])
    xi, phi = reflect_stream_1d(w, lo=0.0)
    assert phi[0] == 0.0
    assert np.all(np.diff(phi) >= 0.0)
    assert np.all(xi >= 0.0)
    assert np.allclose(xi, w + phi)
    assert np.array_equal(phi, minimal_push_oracle(w))
    inc = np.diff(phi)
    assert np.max(inc * (xi[1:] > TOL_BOUNDARY), initial=0.0) <= TOL_BOUNDARY


class TestReflectBox:
    def test_inside_unchanged(self):
        domain = ReflectionDomain.box([(0.0, 1.0), (0.0, 1.0)])
        point, lo_inc, hi_inc = reflect_box([0.3, 0.7], domain)
        assert np.array_equal(point, [0.3, 0.7])
        assert not lo_inc.any() and not hi_inc.any()

    def test_lower_face(self):
        domain = ReflectionDomain.half_line(0.0, dim=1)
        point, lo_inc, hi_inc = reflect_box([-0.3], domain)
        assert point[0] == 0.0
        assert lo_inc[0] == pytest.approx(0.3)
        assert hi_inc[0] == 0.0

    def test_upper_face(self):
        domain = ReflectionDomain.box([(0.0, 1.0)])
        point, lo_inc, hi_inc = reflect_box([1.4], domain)
        assert point[0] == 1.0
        assert hi_inc[0] == pytest.approx(0.4)
        assert lo_inc[0] == 0.0

    def test_unreflected_passthrough(self):
        domain = ReflectionDomain.unreflected(2)
        point, lo_inc, hi_inc = reflect_box([-7.0, 9.0], domain)
        assert np.array_equal(point, [-7.0, 9.0])
        assert not lo_inc.any() and not hi_inc.any()

    def test_batch_shape(self):
        domain = ReflectionDomain.half_line(0.0, dim=2)
        pts = np.array([[-1.0, 0.5], [0.2, -0.2]])
        out, lo_inc, _ = reflect_box(pts, domain)
        assert out.shape == (2, 2)
        assert np.array_equal(out, [[0.0, 0.5], [0.2, 0.0]])
        assert np.array_equal(lo_inc, [[1.0, 0.0], [0.0, 0.2]])


class TestDomain:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ReflectionDomain(((1.0, 1.0),))

    def test_contains(self):
        domain = ReflectionDomain.box([(0.0, 1.0)])
        assert domain.contains([0.5])
        assert not domain.contains([1.5])
        assert not domain.contains([1.0 + 1e-12])

    def test_bound_arrays_are_read_only(self):
        domain = ReflectionDomain.half_line(0.0, dim=2)
        assert np.array_equal(domain.lower, [0.0, 0.0])
        with pytest.raises(ValueError):
            domain.lower[0] = 1.0
        with pytest.raises(ValueError):
            domain.upper[:] = 0.0


class TestTotalVariation:
    def test_constant(self):
        assert np.array_equal(total_variation([2.0, 2.0, 2.0]), [0.0, 0.0, 0.0])

    def test_monotone(self):
        assert np.array_equal(total_variation([0.0, 1.0, 1.0, 2.0]), [0.0, 1.0, 1.0, 2.0])

    def test_nonmonotone(self):
        assert np.array_equal(total_variation([0.0, 1.0, 0.0]), [0.0, 1.0, 2.0])

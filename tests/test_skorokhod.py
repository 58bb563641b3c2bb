"""Tests for the one-dimensional reflection map, the componentwise box
projection and the local-time bookkeeping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorokhod_sde import (
    ReflectionDomain,
    reflect_box,
    reflect_stream_1d,
    total_variation,
)

TOL_BOUNDARY = 1e-12


def minimal_push_oracle(w, lo: float = 0.0) -> np.ndarray:
    """Minimal nondecreasing push keeping w + phi >= lo.

    Built as the running maximum of the deficit lo - w, independently of the
    running-minimum formula; used to cross-check it.
    """
    w = np.ascontiguousarray(w, dtype=float)
    return np.maximum(np.maximum.accumulate(lo - w), 0.0)


def reflect_box_oracle(proposal, domain, rows=None):
    """:func:`reflect_box` as a fresh array per operation, in the same
    order: the bitwise reference for its in-place form."""
    p = np.asarray(proposal, dtype=float)
    lower, upper = domain.lower, domain.upper
    if rows is not None and lower.ndim == 2:
        lower, upper = lower[rows], upper[rows]
    lower_inc = np.maximum(lower - p, 0.0)
    upper_inc = np.maximum(p - upper, 0.0)
    return p + lower_inc - upper_inc, lower_inc, upper_inc


def assert_bitwise(got, want):
    """Same shape, memory layout, bytes and sign bits."""
    assert got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous, want.flags.f_contiguous)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def states_case(rng, case, low=-1.0, high=1.5):
    """The states of an oracle case: a (2,) point, or (m, 2) in C or F
    order, with a row and a coordinate of signed zeros."""
    if case == "(2,)":
        return np.array([rng.uniform(low, high), -0.0])
    m, order = case
    state = np.asarray(rng.uniform(low, high, (m, 2)), order=order)
    state[0] = (-0.0, 0.0)
    state[-1, 1] = -0.0
    return state


STATE_CASES = ["(2,)", *((m, order) for m in (1, 4, 200, 1000) for order in "CF")]


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
        domain = ReflectionDomain(((0.0, 1.0), (0.0, 1.0)))
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
        domain = ReflectionDomain(((0.0, 1.0),))
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

    def test_bounds_per_row(self):
        domain = ReflectionDomain((((-np.inf, np.inf),) * 2, ((0.0, np.inf),) * 2,
                                   ((0.0, 1.0), (-1.0, 0.5))))
        assert domain.lower.shape == (3, 2) and domain.dim == 2
        pts = np.array([[-1.0, 0.5], [-1.0, 0.5], [-1.0, 0.75]])
        out, lo_inc, hi_inc = reflect_box(pts, domain)
        assert np.array_equal(out, [[-1.0, 0.5], [0.0, 0.5], [0.0, 0.5]])
        assert np.array_equal(lo_inc, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(hi_inc, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.25]])
        # a proposal for some of the rows meets the bounds of those rows
        out, lo_inc, hi_inc = reflect_box(pts[[2, 0]], domain, np.array([2, 0]))
        assert np.array_equal(out, [[0.0, 0.5], [-1.0, 0.5]])
        # rows are ignored by bounds without a row axis
        half = ReflectionDomain.half_line(0.0, dim=2)
        assert np.array_equal(reflect_box(pts[:1], half, np.array([2]))[0], [[0.0, 0.5]])


class TestReflectBoxOracle:
    """The in-place projection is bitwise the expression it replaced."""

    DOMAINS = {
        "half line": ReflectionDomain.half_line(0.0, dim=2),
        "box": ReflectionDomain(((0.0, 0.3), (-0.2, 0.5))),
        "unreflected": ReflectionDomain.unreflected(2),
        "signed zero faces": ReflectionDomain(((-0.0, 1.0), (0.0, np.inf))),
    }

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("case", STATE_CASES)
    def test_matches_the_oracle(self, case, domain):
        proposal = states_case(np.random.default_rng(5), case)
        before = proposal.copy(order="K")
        got = reflect_box(proposal, self.DOMAINS[domain])
        for a, b in zip(got, reflect_box_oracle(proposal, self.DOMAINS[domain])):
            assert_bitwise(a, b)
            assert not np.shares_memory(a, proposal)
        assert_bitwise(proposal, before)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("m", [1, 4, 200, 1000])
    def test_bounds_per_row_match_the_oracle(self, m, order):
        rng = np.random.default_rng(m)
        lo = rng.uniform(-1.0, 0.5, (m + 3, 2))
        lo[::2, 1] = -0.0
        hi = lo + rng.uniform(0.1, 1.0, lo.shape)
        hi[1::3] = np.inf
        domain = ReflectionDomain(tuple(tuple(zip(a, b)) for a, b in zip(lo.tolist(), hi.tolist())))
        rows = rng.permutation(m + 3)[:m]
        proposal = states_case(rng, (m, order))
        for a, b in zip(reflect_box(proposal, domain, rows),
                        reflect_box_oracle(proposal, domain, rows)):
            assert_bitwise(a, b)


class TestWidenedBounds:
    """A domain widened to per-row bounds, the form the step loop reflects
    into, gives the bits of the per-coordinate bounds it repeats."""

    DOMAINS = {**TestReflectBoxOracle.DOMAINS,
               "infinite faces": ReflectionDomain(((-np.inf, 0.0), (-0.0, np.inf)))}

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("case", STATE_CASES[1:])
    def test_same_bits_as_the_bounds_it_repeats(self, case, domain):
        domain = self.DOMAINS[domain]
        rng = np.random.default_rng(9)
        proposal = states_case(rng, case)  # with -0.0 rows and coordinates
        m = len(proposal)
        wide = domain.widened(m)
        for a, b in zip(reflect_box(proposal, wide), reflect_box(proposal, domain)):
            assert_bitwise(a, b)
        # an exact-timing sub-step reflects a gather of some rows, C-ordered
        rows = rng.permutation(m)[:max(1, m // 3)]
        jump = proposal[rows]
        for a, b in zip(reflect_box(jump, wide, rows), reflect_box(jump, domain, rows)):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("m", [1, 4, 1000])
    def test_bound_arrays(self, m):
        domain = ReflectionDomain(((0.0, 1.0), (-np.inf, np.inf)))
        wide = domain.widened(m)
        assert wide.bounds == (domain.bounds,) * m and wide.dim == 2
        for got, bound in ((wide.lower, domain.lower), (wide.upper, domain.upper)):
            assert got.shape == (m, 2) and got.flags.f_contiguous and not got.flags.writeable
            assert np.array_equal(got, np.broadcast_to(bound, (m, 2)))
        assert wide == ReflectionDomain((domain.bounds,) * m)
        assert wide.widened(m) is wide  # a domain per row is widened already


class TestDomain:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ReflectionDomain(((1.0, 1.0),))
        with pytest.raises(ValueError, match="lo < hi"):
            ReflectionDomain((((0.0, np.inf),), ((1.0, 1.0),)))
        with pytest.raises(ValueError, match="pairs"):
            ReflectionDomain((0.0, 1.0))

    def test_contains(self):
        domain = ReflectionDomain(((0.0, 1.0),))
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

"""Geometry and field-program behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magswim import (
    Configuration,
    ConstantField,
    SinusoidalField,
    SwimmerParams,
    TabulatedField,
    apply_R_transform,
)
from oracles import segment_frames

angles = st.floats(-6.0, 6.0)
coords = st.floats(-5.0, 5.0)
lengths = st.floats(0.2, 4.0)


def canonical_params(L=1.0):
    return SwimmerParams(L, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)


class TestSwimmerParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SwimmerParams(0.0, (1, 1, 1), (2, 2, 2), 1.0, 1.0)
        with pytest.raises(ValueError):
            SwimmerParams(1.0, (1, 1, 1), (2, 2, 2), -0.5, 1.0)
        with pytest.raises(ValueError):
            SwimmerParams(1.0, (1, 1, 1), (2, 2, 2), 1.0, -1.0)
        with pytest.raises(ValueError):
            SwimmerParams(1.0, (1, -1, 1), (2, 2, 2), 1.0, 1.0)
        with pytest.raises(ValueError):
            SwimmerParams(1.0, (1, 1), (2, 2, 2), 1.0, 1.0)
        with pytest.raises(ValueError):
            SwimmerParams(math.inf, (1, 1, 1), (2, 2, 2), 1.0, 1.0)

    def test_warns_on_inverted_anisotropy(self):
        with pytest.warns(UserWarning):
            SwimmerParams(1.0, (2.0, 1.0, 1.0), (1.0, 2.0, 2.0), 1.0, 1.0)

    def test_uniform_helper(self):
        p = SwimmerParams.uniform(1.0, 0.7, 1.4, 0.5, 0.2)
        assert p.xi == (0.7, 0.7, 0.7)
        assert p.eta == (1.4, 1.4, 1.4)
        assert p.palindromic()
        assert not canonical_params().palindromic()

    def test_palindromic_reads_only_the_outer_links(self):
        assert SwimmerParams(1.0, (1.2, 0.8, 1.2), (3.0, 1.5, 3.0),
                             1.0, 1.0).palindromic()
        assert not SwimmerParams(1.0, (1.2, 0.8, 1.2), (3.0, 1.5, 2.9),
                                 1.0, 1.0).palindromic()


class TestConfiguration:
    def test_round_trip(self):
        c = Configuration(0.1, -0.2, 0.3, 0.4, -0.5)
        assert Configuration.from_array(c.as_array()) == c

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Configuration(0.0, math.nan, 0.0, 0.0, 0.0)

    def test_angles_stay_unwrapped(self):
        c = Configuration(0.0, 0.0, 7.0, -9.0, 0.0)
        assert c.theta == 7.0 and c.alpha2 == -9.0


class TestFieldPrograms:
    def test_constant(self):
        f = ConstantField(0.3, -0.2)
        assert f.sample(0.0) == f.sample(17.3) == (0.3, -0.2)

    def test_sinusoidal(self):
        f = SinusoidalField(hx0=2.0, epsilon=0.1, omega=4.0)
        assert f.period == pytest.approx(math.pi / 2)
        hx, hy = f.sample(0.25)
        assert hx == 2.0
        assert hy == pytest.approx(0.1 * math.sin(1.0))
        with pytest.raises(ValueError):
            SinusoidalField(omega=0.0)
        with pytest.raises(ValueError):
            SinusoidalField(omega=-1.0)

    def test_tabulated_interpolates(self):
        f = TabulatedField([0.0, 1.0, 2.0], [0.0, 2.0, 2.0], [1.0, 1.0, 3.0])
        assert f.sample(0.5) == (1.0, 1.0)
        assert f.sample(1.5) == (2.0, 2.0)
        # outside the table, end values clamp
        assert f.sample(-5.0) == (0.0, 1.0)
        assert f.sample(9.0) == (2.0, 3.0)

    def test_tabulated_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            TabulatedField([0.0, 1.0, 1.0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            TabulatedField([0.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            TabulatedField([0.0, 1.0], [0.0, math.nan], [0.0, 0.0])


def _interp_queries(times, fractions):
    """Queries inside every interval, exactly on and next to every node, at
    both ends, outside the range, at both zeros and at the non-finite."""
    queries = [0.0, -0.0, math.inf, -math.inf, math.nan,
               times[0] - 1.0, times[-1] + 1.0]
    for t in times:
        queries += [t, math.nextafter(t, -math.inf),
                    math.nextafter(t, math.inf)]
    for a, b in zip(times, times[1:]):
        queries += [a + u * (b - a) for u in fractions]
        queries.append(0.5 * (a + b))
    return queries


@st.composite
def tables(draw):
    times = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                 max_size=60, unique=True)))
    values = st.lists(st.floats(-1e6, 1e6), min_size=len(times),
                      max_size=len(times))
    return times, draw(values), draw(values)


class TestTabulatedSample:
    @given(table=tables(),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_matches_np_interp_bit_for_bit(self, table, fractions):
        times, hx, hy = table
        field = TabulatedField(times, hx, hy)
        for t in _interp_queries(times, fractions):
            got = field.sample(t)
            want = (float(np.interp(t, times, hx)),
                    float(np.interp(t, times, hy)))
            assert [v.hex() for v in got] == [v.hex() for v in want], t

    @pytest.mark.parametrize("times", [[0.0, 1.0], [-1.0, 0.0, 2.0],
                                       [-2.0, -0.0, 3.0]])
    def test_signed_zero_node_and_query(self, times):
        hx, hy = [0.5, -1.5, 2.0][:len(times)], [-0.0, 0.0, 1.0][:len(times)]
        field = TabulatedField(times, hx, hy)
        for t in (0.0, -0.0):
            want = (float(np.interp(t, times, hx)),
                    float(np.interp(t, times, hy)))
            assert [v.hex() for v in field.sample(t)] == \
                [v.hex() for v in want]

    def test_caller_mutation_does_not_reach_samples(self):
        times = np.array([0.0, 1.0, 2.0])
        hx = np.array([0.0, 2.0, 2.0])
        hy = [1.0, 1.0, 3.0]
        field = TabulatedField(times, hx, hy)
        before = [field.sample(t) for t in (-1.0, 0.0, 0.5, 1.5, 2.0, 3.0)]
        times[1] = 0.1
        hx[:] = 7.0
        hy[2] = -9.0
        after = [field.sample(t) for t in (-1.0, 0.0, 0.5, 1.5, 2.0, 3.0)]
        assert after == before
        assert field.times.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            field.hx[0] = 1.0


class TestSegmentFrames:
    @given(x=coords, y=coords, theta=angles, a2=angles, a3=angles, L=lengths)
    @settings(max_examples=60)
    def test_chain_identities(self, x, y, theta, a2, a3, L):
        p = SwimmerParams.uniform(L, 1.0, 2.0, 1.0, 1.0)
        fr = segment_frames(Configuration(x, y, theta, a2, a3), p)
        for i in range(3):
            gap = fr.endpoints[i + 1] - fr.endpoints[i] - L * fr.tangents[i]
            assert np.max(np.abs(gap)) < 1e-12 * max(1.0, L)
            assert abs(fr.tangents[i] @ fr.normals[i]) < 1e-14
            assert abs(np.linalg.norm(fr.tangents[i]) - 1.0) < 1e-14
            # normal is the tangent rotated by +pi/2
            rot = np.array([-fr.tangents[i][1], fr.tangents[i][0]])
            assert np.max(np.abs(fr.normals[i] - rot)) < 1e-14
        mid = 0.5 * (fr.endpoints[1] + fr.endpoints[2])
        assert np.max(np.abs(mid - np.array([x, y]))) < 1e-12 * max(1.0, L, abs(x), abs(y))
        assert np.max(np.abs(fr.centers[1] - mid)) < 1e-14 * max(1.0, L, abs(x), abs(y))

    def test_angle_assignment(self):
        p = canonical_params()
        fr = segment_frames(Configuration(0.0, 0.0, 0.3, 0.2, -0.1), p)
        assert fr.angles == pytest.approx([0.5, 0.3, 0.2])

    def test_straight_layout(self):
        p = canonical_params(L=2.0)
        fr = segment_frames(Configuration.straight(), p)
        assert fr.endpoints == pytest.approx(
            np.array([[-3.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))


class TestRTransform:
    @given(x=coords, y=coords, theta=angles, a2=angles, a3=angles,
           hx=st.floats(-3, 3), hy=st.floats(-3, 3))
    @settings(max_examples=60)
    def test_involution(self, x, y, theta, a2, a3, hx, hy):
        c = Configuration(x, y, theta, a2, a3)
        c2, h2 = apply_R_transform(*apply_R_transform(c, (hx, hy)))
        assert c2 == c
        assert h2 == (hx, hy)

    def test_coordinate_action(self):
        c, h = apply_R_transform(Configuration(1.0, 2.0, 0.3, 0.4, 0.5),
                                 (0.7, -0.8))
        assert c == Configuration(-1.0, -2.0, 0.3, 0.5, 0.4)
        assert h == (-0.7, 0.8)

    @given(theta=angles, a2=angles, a3=angles)
    @settings(max_examples=40)
    def test_frames_relabel_and_rotate(self, theta, a2, a3):
        """R sends the frame set to its point reflection, links relabeled 3..1."""
        p = SwimmerParams.uniform(1.3, 1.0, 2.0, 1.0, 1.0)
        c = Configuration(0.6, -0.4, theta, a2, a3)
        rc, _ = apply_R_transform(c, (0.0, 0.0))
        fr = segment_frames(c, p)
        rfr = segment_frames(rc, p)
        assert np.max(np.abs(rfr.endpoints - (-fr.endpoints[::-1]))) < 1e-12
        assert np.max(np.abs(rfr.centers - (-fr.centers[::-1]))) < 1e-12

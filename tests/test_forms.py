import math

import numpy as np
import pytest

from sectorial import forms, numcore
from sectorial.errors import NotSectorialError, SectorViolationError

from conftest import rand_complex, rand_hermitian, rand_sectorial

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_split_hermitian_input(rng):
    h = rand_hermitian(rng, 5)
    hr, hi = forms.hermitian_split(h)
    assert np.allclose(hr, h, atol=1e-14)
    assert np.abs(hi).max() <= 1e-14


def test_split_antihermitian_input(rng):
    h = rand_hermitian(rng, 5)
    hr, hi = forms.hermitian_split(1j * h)
    assert np.abs(hr).max() <= 1e-14
    assert np.allclose(hi, h, atol=1e-14)


def test_split_nilpotent_explicit():
    hr, hi = forms.hermitian_split(NILPOTENT)
    assert np.allclose(hr, [[0.0, 0.5], [0.5, 0.0]], atol=0)
    assert np.allclose(hi, [[0.0, -0.5j], [0.5j, 0.0]], atol=0)


def test_split_reassembles(rng):
    t = rand_complex(rng, 6)
    hr, hi = forms.hermitian_split(t)
    assert np.abs(hr + 1j * hi - t).max() <= 1e-15 * np.abs(t).max()


def test_adjoint_involution(rng):
    t = rand_complex(rng, 4)
    assert np.array_equal(forms.adjoint_form(forms.adjoint_form(t)), t)
    h = rand_hermitian(rng, 4)
    assert np.allclose(forms.adjoint_form(h), h, atol=1e-14)
    assert np.array_equal(forms.adjoint_form(1j * np.eye(2)), -1j * np.eye(2))


def test_range_identity_is_point():
    b = forms.numerical_range(np.eye(3), 16)
    assert np.abs(b.points - 1.0).max() <= 1e-12
    assert b.is_convex()


def test_range_nilpotent_is_half_disk():
    b = forms.numerical_range(NILPOTENT, 256)
    assert abs(np.abs(b.points).max() - 0.5) <= 1e-8
    assert abs(np.abs(b.points).min() - 0.5) <= 1e-8
    assert b.is_convex()


def test_range_hermitian_is_real_segment():
    b = forms.numerical_range(np.diag([0.0, 1.0]), 64)
    assert np.abs(b.points.imag).max() <= 1e-12
    assert b.points.real.min() == pytest.approx(0.0, abs=1e-12)
    assert b.points.real.max() == pytest.approx(1.0, abs=1e-12)


def test_range_requires_enough_nodes():
    with pytest.raises(ValueError):
        forms.numerical_range(np.eye(2), 4)


def test_range_convexity_random(rng):
    # Num t is convex for every matrix; check the sampled boundary on 100 cases
    for k in range(100):
        n = int(rng.integers(2, 33))
        t = rand_complex(rng, n)
        b = forms.numerical_range(t, 48)
        assert b.is_convex(1e-10), f"case {k} dim {n}"


def test_range_hermitian_min_is_lambda_min(rng):
    for _ in range(20):
        n = int(rng.integers(2, 16))
        h = rand_hermitian(rng, n, lo=-2.0, hi=3.0)
        b = forms.numerical_range(h, 64)
        lam = numcore.eig_oracle(h).eigenvalues.real.min()
        assert abs(b.points.real.min() - lam) <= 1e-8


def test_range_contains_spectrum(rng):
    for _ in range(30):
        n = int(rng.integers(2, 33))
        t = rand_complex(rng, n)
        b = forms.numerical_range(t, 256)
        spec = numcore.eig_oracle(t).eigenvalues
        assert b.encloses(spec, slack=1e-7)


def test_fit_sector_positive_diagonal():
    # a real segment [a, b] gets vertex a - (b - a): [0, 1] gets -1, not the
    # vertex 0 that has the same aperture 0
    for diag, vertex in (([1.0, 2.0], 0.0), ([0.0, 1.0], -1.0)):
        sec = forms.fit_sector(forms.numerical_range(np.diag(diag), 64), margin=0.05)
        assert sec.vertex == vertex
        assert sec.half_angle == pytest.approx(0.05, abs=1e-9)


def _aperture(points, c):
    return float(np.arctan2(np.abs(points.imag), points.real - c).max())


SECTORIAL_CASES = [(s, n) for s in range(40) for n in (4, 8)]


@pytest.mark.parametrize("seed, n", SECTORIAL_CASES)
def test_fit_sector_is_the_left_end(seed, n):
    # every point's angle shrinks as the vertex moves left, so the fit is the
    # left end of [min Re - spread, min Re], exactly
    b = forms.numerical_range(rand_sectorial(np.random.default_rng(seed), n), 128)
    pts = b.points
    sec = forms.fit_sector(b, margin=0.05)
    assert sec.vertex == pts.real.min() - np.ptp(pts.real)
    aperture = _aperture(pts, sec.vertex)
    assert sec.half_angle == aperture + 0.05
    for c in np.linspace(sec.vertex, pts.real.min(), 9)[1:]:
        assert _aperture(pts, c) > aperture


def test_fit_sector_rotated_segment():
    # segment on the 45-degree ray: leftmost searchable vertex needs exactly pi/4
    t = np.exp(1j * math.pi / 4) * np.diag([1.0, 2.0])
    sec = forms.fit_sector(forms.numerical_range(t, 128), margin=0.02)
    assert math.pi / 4 <= sec.half_angle < math.pi / 2
    assert sec.half_angle == pytest.approx(math.pi / 4 + 0.02, abs=1e-6)
    assert sec.contains(np.exp(1j * math.pi / 4) * np.array([1.0, 2.0]), slack=1e-9)


def test_fit_sector_imaginary_axis_fails():
    t = 1j * np.diag([1.0, 2.0])
    with pytest.raises(NotSectorialError):
        forms.fit_sector(forms.numerical_range(t, 64), margin=0.05)


def test_fit_sector_contains_boundary():
    for seed, n in SECTORIAL_CASES:
        b = forms.numerical_range(rand_sectorial(np.random.default_rng(seed), n), 128)
        sec = forms.fit_sector(b, margin=0.05)
        assert sec.contains(b.points, slack=1e-9), (seed, n)


def test_sector_geometry():
    sec = forms.Sector(vertex=0.0, half_angle=math.pi / 4)
    assert sec.contains([1.0 + 0.5j, 2.0])
    assert not sec.contains([-1.0])
    assert not sec.contains([0.1 + 1.0j])


def test_require_range_zero_half_angle_needs_vertex_normal():
    # at half_angle 0 the two edge half-planes alone admit Re z < vertex
    sec = forms.Sector(vertex=0.5, half_angle=0.0)
    with pytest.raises(SectorViolationError, match="past the vertex: excess 3.0"):
        sec.require_range(np.diag([0.2, 1.0]))
    sec.require_range(np.diag([1.0, 2.0]))


def test_require_range_is_exact_between_sweep_angles():
    # Num T is the disk |z - 1| <= 1/2; the wedge's edges cut it by 5e-5 at
    # normals halfway between two of 128 sweep angles, where every sampled
    # boundary point still lies inside the wedge
    t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    theta = 2.0 * math.pi * 42.5 / 128 - math.pi / 2
    cut = forms.Sector(1.0 - 0.49995 / math.sin(theta), theta)
    assert cut.contains(forms.numerical_range(t, 128).points, slack=1e-9)
    with pytest.raises(SectorViolationError, match="past the upper edge: excess 5.0000"):
        cut.require_range(t)
    forms.Sector(1.0 - 0.50005 / math.sin(theta), theta).require_range(t)


def test_hull_distance_matches_known_cases():
    b = forms.numerical_range(np.diag([0.0, 1.0]), 256)
    assert b.hull_distance(-1.0) == pytest.approx(1.0, abs=1e-10)
    assert b.hull_distance(0.5 + 2.0j) == pytest.approx(2.0, abs=1e-4)
    assert b.hull_distance(0.5) == 0.0

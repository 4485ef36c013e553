from __future__ import annotations

import math

import numpy as np
import pytest

from dqslam.geometry import (
    CameraExtrinsics,
    CameraIntrinsics,
    DegenerateGeometryError,
    DualQuadric,
    box_corners,
    box_lines,
    ellipsoid_to_dual_quadric,
    left_facing_mount,
    lines_through,
    normalize_lines,
    pose_to_extrinsics,
    project_quadrics,
    projection_matrices,
    QUADRIC_CENTROID,
    quadric_matrices,
    tangency_rows,
    tangency_svd,
    vector_from_quadric,
    wrap_angles,
)
from conftest import ellipsoid_tangent_planes, unit_sphere_directions
from oracle import dual_conic_bbox, tangency_residual, wrap_angle


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# -- angles ------------------------------------------------------------------

def test_wrap_angle_in_range_is_identity():
    for theta in (0.0, 1.0, -1.0, math.pi, -math.pi + 1e-9, 1e-20):
        assert wrap_angle(theta) == theta


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(2 * math.pi - 0.2) - (-0.2)) < 1e-12
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-12


def test_wrap_angle_always_in_interval(rng):
    for theta in rng.uniform(-50, 50, size=500):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - theta, math.tau)) < 1e-9


def test_wrap_angles_matches_wrap_angle_bytes(rng):
    edges = [math.pi, -math.pi, 1e300, -1e300, 1.7e308, -1.7e308]
    edges += [np.nextafter(a, to) for a in (math.pi, -math.pi) for to in (-np.inf, np.inf)]
    angles = np.concatenate([
        edges,
        math.tau * np.arange(-50, 51),
        rng.uniform(-50, 50, size=2000),
        rng.normal(size=2000) * 10.0 ** rng.integers(-20, 300, size=2000),
    ])
    expected = np.array([wrap_angle(a) for a in angles.tolist()])
    assert wrap_angles(angles).tobytes() == expected.tobytes()
    # The scalar wrap raises on these; the array kernel returns NaN.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises((OverflowError, ValueError)):
            wrap_angle(bad)
    with np.errstate(invalid="ignore"):
        assert np.isnan(wrap_angles([math.inf, -math.inf, math.nan])).all()


# -- points and lines ---------------------------------------------------------

def test_image_line_normalization_and_sign():
    l = normalize_lines(np.array([3.0, 4.0, -10.0]))
    assert math.hypot(l[0], l[1]) == pytest.approx(1.0, abs=1e-15)
    assert l[2] >= 0  # sign fixed by l3 >= 0
    # ties: l3 == 0 resolves by l1 > 0, then l2 > 0
    assert normalize_lines([-1.0, 0.0, 0.0])[0] > 0
    assert normalize_lines([0.0, -2.0, 0.0])[1] > 0


def test_image_line_at_infinity():
    l = normalize_lines([0.0, 0.0, -3.0])
    assert np.allclose(l, [0, 0, 1])


def test_image_line_normalization_idempotent_bitwise(rng):
    for _ in range(50):
        l = normalize_lines(rng.normal(size=3))
        assert normalize_lines(l).tobytes() == l.tobytes()


def _reference_normalize(coords: np.ndarray) -> np.ndarray:
    """The numpy line normalization used before normalize_lines worked on
    Python floats: the oracle for bit-identical normalization."""
    norm = math.hypot(coords[0], coords[1])
    if norm > 1e-12:
        if abs(norm - 1.0) > 1e-12:
            coords = coords / norm
    else:
        if coords[2] != 1.0 and coords[2] != -1.0:
            coords = coords / abs(coords[2])
    l1, l2, l3 = coords
    flip = l3 < 0 or (l3 == 0 and (l1 < 0 or (l1 == 0 and l2 < 0)))
    return -coords if flip else coords


def test_image_line_matches_reference_normalization(rng):
    lines = [
        *rng.normal(size=(2000, 3)),
        *(rng.normal(size=(200, 3)) * [1e-13, 1e-13, 1.0]),  # tiny normals
        [0.0, 0.0, -3.0], [0.0, 0.0, 2.5], [0.0, 0.0, 1.0], [0.0, -0.0, -1.0],  # at infinity
        [-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [-3.0, 4.0, 0.0], [3.0, -4.0, -0.0],  # l3 == 0
        [0.6, 0.8, -7.0], [-0.6, -0.8, 7.0], [1.0, 0.0, 0.0],  # already unit
        # A simulator line whose normal's norm np.hypot rounds one bit lower
        # than math.hypot.
        [-0.00044114520276218415, -0.0005079609703372195, 0.6300825914455861],
        *(rng.normal(size=(500, 3)) * [1e-3, 1e-3, 1.0]),  # short normals
        *rng.uniform(-2000, 2000, size=(500, 3)),  # pixel-scale lines
    ]
    for coords in lines:
        coords = np.array(coords, dtype=float)
        expected = _reference_normalize(coords.copy())
        assert normalize_lines(coords).tobytes() == expected.tobytes(), coords
    # The kernel on the whole stack, and on boxes of four lines, row for row.
    stacked = np.array(lines[:3200], dtype=float)
    expected = np.array([_reference_normalize(l.copy()) for l in stacked])
    assert normalize_lines(stacked).tobytes() == expected.tobytes()
    assert normalize_lines(stacked.reshape(-1, 4, 3)).tobytes() == expected.tobytes()
    unit = normalize_lines([0.6, 0.8, 7.0])
    assert normalize_lines(unit).tobytes() == unit.tobytes()


def test_image_line_tiny_normal_at_origin_rejected():
    # Neither a finite line nor the line at infinity: no normalization exists.
    with pytest.raises(DegenerateGeometryError):
        normalize_lines([1e-13, 0.0, 0.0])


def test_image_line_overflowing_normal_rejected():
    # A finite line whose normal's norm overflows: dividing by it would give
    # the zero line, which is tangent to every quadric.
    line = [1.7e308, 1.7e308, 0.0]
    with pytest.raises(DegenerateGeometryError):
        normalize_lines(line)
    with pytest.raises(DegenerateGeometryError):
        normalize_lines([[0.0, 1.0, -5.0], line])


def test_lines_through_matches_per_pair_cross_products(rng):
    corners = rng.uniform(0, 1000, size=(50, 4, 2)) + rng.normal(0, 1.0, size=(50, 4, 2))
    points = np.concatenate([corners, np.ones((50, 4, 1))], axis=-1)
    lines = lines_through(points, np.roll(points, -1, axis=1))
    assert lines.shape == (50, 4, 3)
    normalized = box_lines(corners)
    assert normalized.tobytes() == normalize_lines(lines).tobytes()
    for box, crosses, box_normalized in zip(points, lines, normalized):
        for k in range(4):
            cross = np.cross(box[k], box[(k + 1) % 4])
            assert crosses[k].tobytes() == cross.tobytes()
            assert box_normalized[k].tobytes() == _reference_normalize(cross).tobytes()


def test_lines_through_coincident_corners_raise():
    points = np.ones((3, 4, 3))
    points[:, :, :2] = [[0, 0], [1, 0], [1, 1], [0, 1]]
    lines_through(points, np.roll(points, -1, axis=1))  # regular boxes pass
    points[1, 2] = points[1, 1]
    with pytest.raises(DegenerateGeometryError):
        lines_through(points, np.roll(points, -1, axis=1))


def _line(a, b):
    """The normalized line through two pixel points."""
    return normalize_lines(lines_through([*a, 1.0], [*b, 1.0]))


def test_line_from_points_axis_lines():
    assert np.allclose(_line((0, 0), (1, 0)), [0, 1, 0])  # y = 0
    assert np.allclose(np.abs(_line((0, 0), (0, 1))), [1, 0, 0])  # x = 0 up to sign


def test_line_from_points_annihilates_both_points():
    a, b = np.array([100.0, 200.0, 1.0]), np.array([300.0, 200.0, 1.0])
    l = _line(a[:2], b[:2])
    assert np.allclose(np.abs(l), [0, 1, 200])
    assert abs(l @ a) < 1e-9
    assert abs(l @ b) < 1e-9


def test_line_from_points_degenerate():
    a = np.array([1.0, 2.0, 1.0])
    with pytest.raises(DegenerateGeometryError):
        lines_through(a, 2.0 * a)


def test_bbox_to_lines_unit_square():
    lines = box_lines(box_corners(0, 0, 1, 1))
    expected = [(0, 1, 0), (-1, 0, 1), (0, -1, 1), (1, 0, 0)]
    for l, e in zip(lines, expected):
        assert np.allclose(l, e) or np.allclose(l, -np.array(e))


def test_bbox_to_lines_annihilates_corners(rng):
    for _ in range(20):
        u0, v0 = rng.uniform(0, 500, 2)
        du, dv = rng.uniform(1, 400, 2)
        corners = box_corners(u0, v0, u0 + du, v0 + dv)
        points = np.column_stack([corners, np.ones(4)])
        for k, l in enumerate(box_lines(corners)):
            assert abs(l @ points[k]) < 1e-12
            assert abs(l @ points[(k + 1) % 4]) < 1e-12


def test_bbox_to_lines_translation_covariance():
    base = box_lines(box_corners(0, 0, 1, 1))
    shifted = box_lines(box_corners(10, 10, 11, 11))
    for lb, ls in zip(base, shifted):
        # same directions up to the stored sign convention
        same = np.allclose(lb[:2], ls[:2])
        flipped = np.allclose(lb[:2], -ls[:2])
        assert same or flipped


def test_bbox_to_lines_degenerate_pair():
    with pytest.raises(DegenerateGeometryError):
        box_lines([[0, 0], [0, 0], [1, 1], [0, 1]])


def test_box_lines_rejects_other_than_four_corners():
    with pytest.raises(ValueError, match="corners"):
        box_lines([[0, 0], [1, 0], [1, 1]])
    with pytest.raises(ValueError, match="corners"):
        box_lines(np.zeros((2, 4, 3)))


# -- cameras -------------------------------------------------------------------

def test_projection_matrix_canonical():
    K = CameraIntrinsics(1, 1, 0, 0, 10, 10)
    P = projection_matrices(K, np.eye(3), np.zeros(3))
    assert np.allclose(P, np.hstack([np.eye(3), np.zeros((3, 1))]))


def test_projection_matrix_standard_camera(default_intrinsics):
    P = projection_matrices(default_intrinsics, np.eye(3), np.zeros(3))
    assert np.allclose(P[0], [1500, 0, 640, 0])
    # point on the optical axis lands on the principal point
    x = P @ np.array([0, 0, 1, 1])
    assert np.allclose(x[:2] / x[2], [640, 512])


def test_backproject_line_canonical(canonical_projection):
    # An image line l back-projects to the plane P^T l.
    assert np.allclose(canonical_projection.T @ [1.0, 0, 0], [1, 0, 0, 0])
    assert np.allclose(canonical_projection.T @ [0, 1.0, 0], [0, 1, 0, 0])


def test_backproject_line_ray_sampling(rng, default_intrinsics):
    # points on the line lift to rays whose 3D points satisfy pi . X = 0
    from conftest import look_at_extrinsics

    E = look_at_extrinsics([3.0, -2.0, 1.5], [0.0, 0.0, 0.0])
    P = projection_matrices(default_intrinsics, E.rotation, E.translation)
    l = normalize_lines(rng.normal(size=3))
    pi = P.T @ l
    a, b, c = l
    for u in (-50.0, 40.0, 700.0):
        # a point (u, v) on the line, if the line is not vertical there
        if abs(b) > 1e-6:
            v = -(c + a * u) / b
            px = np.array([u, v])
        else:
            px = np.array([-(c + b * u) / a, u][::-1])
        ray = np.linalg.solve(
            default_intrinsics.K, np.array([px[0], px[1], 1.0])
        )
        for depth in (0.5, 7.0):
            Xc = ray * depth
            Xw = E.rotation.T @ (Xc - E.translation)
            assert abs(pi @ np.append(Xw, 1.0)) < 1e-9 * np.linalg.norm(pi)


# -- dual quadrics ---------------------------------------------------------------

def test_quadric_from_vector_identity():
    Q = quadric_matrices([1, 0, 0, 0, 1, 0, 0, 1, 0])
    assert np.array_equal(Q, np.eye(4))


def test_quadric_from_vector_layout():
    q = np.arange(1.0, 10.0)
    expected = np.array([
        [1, 2, 3, 4],
        [2, 5, 6, 7],
        [3, 6, 8, 9],
        [4, 7, 9, 1],
    ], dtype=float)
    assert np.array_equal(quadric_matrices(q), expected)
    assert np.array_equal(q[QUADRIC_CENTROID], [4, 7, 9])
    stacked = quadric_matrices(np.stack([q, 10 * q, -q]))
    assert stacked.shape == (3, 4, 4)
    assert np.array_equal(stacked, np.array([
        expected,
        [[10, 20, 30, 40], [20, 50, 60, 70], [30, 60, 80, 90], [40, 70, 90, 1]],
        [[-1, -2, -3, -4], [-2, -5, -6, -7], [-3, -6, -8, -9], [-4, -7, -9, 1]],
    ]))
    with pytest.raises(ValueError):
        quadric_matrices(np.zeros(8))


def test_quadric_vector_round_trip(rng):
    for _ in range(20):
        q = rng.normal(size=9)
        assert np.array_equal(vector_from_quadric(quadric_matrices(q)), q)


def test_vector_from_quadric_rescales():
    Q = 3.0 * quadric_matrices([1, 0, 0, 0, 1, 0, 0, 1, 0])
    assert np.allclose(vector_from_quadric(Q), [1, 0, 0, 0, 1, 0, 0, 1, 0])


def test_vector_from_quadric_degenerate_scale():
    Q = np.diag([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(DegenerateGeometryError):
        vector_from_quadric(Q)


def test_ellipsoid_unit_sphere():
    q = ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1])
    assert np.allclose(q.q, [-1, 0, 0, 0, -1, 0, 0, -1, 0])


def test_ellipsoid_translated_sphere():
    q = ellipsoid_to_dual_quadric([0, 0, 5], [1, 1, 1])
    assert np.allclose(q.q, [-1, 0, 0, 0, -1, 0, 0, 24, 5])
    assert np.allclose(q.q[QUADRIC_CENTROID], [0, 0, 5])


def test_ellipsoid_tangent_plane():
    q = ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1])
    pi = np.array([0, 0, 1, -1.0])  # plane z = 1 touches the unit sphere
    assert abs(pi @ q.matrix() @ pi) < 1e-12


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(ValueError):
        ellipsoid_to_dual_quadric([0, 0, 0], [1, 0, 1])


def test_centroid_translation_equivariance(rng):
    for _ in range(10):
        q = ellipsoid_to_dual_quadric(rng.normal(size=3), rng.uniform(0.2, 2, 3))
        t = rng.normal(size=3)
        T = np.eye(4)
        T[:3, 3] = t
        shifted = DualQuadric(vector_from_quadric(T @ q.matrix() @ T.T))
        assert np.allclose(shifted.q[QUADRIC_CENTROID], q.q[QUADRIC_CENTROID] + t, atol=1e-9)


def test_centroid_of_rotated_ellipsoid(rng):
    for _ in range(10):
        c = rng.normal(0, 4, 3)
        q = ellipsoid_to_dual_quadric(c, rng.uniform(0.2, 2, 3), random_rotation(rng))
        assert np.allclose(q.q[QUADRIC_CENTROID], c, atol=1e-12)


def test_tangent_plane_invariant_sampled(rng):
    # module-level version of the tangency suite: |pi^T Q* pi| ~ 0 for
    # analytically constructed tangent planes, pi normalized to unit normal
    for _ in range(50):
        center = rng.normal(0, 3, 3)
        axes = rng.uniform(0.2, 2.0, 3)
        R = random_rotation(rng)
        q = ellipsoid_to_dual_quadric(center, axes, R)
        planes = ellipsoid_tangent_planes(center, axes, R, unit_sphere_directions(20, rng))
        planes /= np.linalg.norm(planes[:, :3], axis=1, keepdims=True)
        res = np.einsum("na,ab,nb->n", planes, q.matrix(), planes)
        assert np.max(np.abs(res)) < 1e-9


def test_tangency_svd_singular_values(rng):
    # The same values as the value-only SVD of the unit-plane system; the
    # bits differ (with and without vectors LAPACK takes different paths).
    for n in (9, 12, 40, 160):
        planes = rng.normal(size=(n, 4))
        S, Vt = tangency_svd(planes)
        A = tangency_rows(planes / np.linalg.norm(planes, axis=1, keepdims=True))
        np.testing.assert_allclose(S, np.linalg.svd(A, compute_uv=False), rtol=1e-14, atol=0)
        assert Vt.shape == (10, 10)


def test_tangency_svd_nine_planes_keep_the_nullspace(rng):
    # Nine tangent planes leave one direction of the 10 unknowns free: the
    # quadric itself. A thin SVD would drop it from Vt.
    center, axes = np.array([0.5, -1.0, 0.8]), np.array([0.9, 0.5, 0.3])
    planes = ellipsoid_tangent_planes(center, axes, np.eye(3), unit_sphere_directions(9, rng))
    S, Vt = tangency_svd(planes)
    assert S.shape == (9,) and Vt.shape == (10, 10)
    A = tangency_rows(planes / np.linalg.norm(planes, axis=1, keepdims=True))
    assert np.linalg.norm(A @ Vt[-1]) < 1e-12
    q = np.append(ellipsoid_to_dual_quadric(center, axes).q, 1.0)
    assert abs(Vt[-1] @ q) / np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


# -- projection to conics ----------------------------------------------------------

def test_project_quadric_canonical_selects_block(canonical_projection, rng):
    q = DualQuadric(rng.normal(size=9))
    (C,) = project_quadrics(canonical_projection[None], q.matrix())
    assert np.allclose(C, q.matrix()[:3, :3])


def test_project_quadric_sphere_depth5(canonical_projection):
    q = ellipsoid_to_dual_quadric([0, 0, 5], [1, 1, 1])
    (C,) = project_quadrics(canonical_projection[None], q.matrix())
    assert np.allclose(C, np.diag([-1, -1, 24]))
    radius = math.sqrt(-C[0, 0] / C[2, 2])
    assert radius == pytest.approx(1 / math.sqrt(24), abs=1e-12)


def test_tangency_transport(rng, default_intrinsics):
    # a plane tangent to Q* passing through the camera center maps to a
    # line tangent to C* = P Q* P^T
    from conftest import look_at_extrinsics

    for trial in range(20):
        center = rng.normal(0, 2, 3) + np.array([0, 0, 0])
        axes = rng.uniform(0.3, 1.0, 3)
        R = random_rotation(rng)
        q = ellipsoid_to_dual_quadric(center, axes, R)
        eye = center + 8.0 * unit_sphere_directions(1, rng)[0]
        E = look_at_extrinsics(eye, center)
        P = projection_matrices(default_intrinsics, E.rotation, E.translation)

        # tangent planes through the camera center: in the unit-sphere frame
        # the silhouette is the circle s . o = 1 with o the mapped center
        o = np.linalg.solve(np.diag(axes), R.T @ (eye - center))
        on = np.linalg.norm(o)
        assert on > 1.0
        # orthonormal basis of the silhouette circle
        e1 = np.array([1.0, 0, 0]) if abs(o[0] / on) < 0.9 else np.array([0, 1.0, 0])
        u = np.cross(o / on, e1)
        u /= np.linalg.norm(u)
        w = np.cross(o / on, u)
        for phi in np.linspace(0, 2 * math.pi, 7, endpoint=False):
            s = (o / on**2) + math.sqrt(1 - 1 / on**2) * (
                math.cos(phi) * u + math.sin(phi) * w
            )
            planes = ellipsoid_tangent_planes(center, axes, R, [s])
            pi = planes[0]
            assert abs(pi @ np.append(eye, 1.0)) < 1e-9  # passes through center
            l, *_ = np.linalg.lstsq(P.T, pi, rcond=None)
            l = l / math.hypot(l[0], l[1])
            (C,) = project_quadrics(P[None], q.matrix())
            scale = np.abs(C).max() * float(l @ l)  # natural residual scale
            assert abs(l @ C @ l) < 1e-11 * scale


def test_tangency_residual_silhouette_circle(default_intrinsics):
    # sphere centered on the optical axis: silhouette circle is analytic
    from conftest import look_at_extrinsics

    center = np.array([1.0, -2.0, 0.5])
    r, d = 0.7, 6.0
    eye = center + d * np.array([0.0, -1.0, 0.0])
    E = look_at_extrinsics(eye, center)
    P = projection_matrices(default_intrinsics, E.rotation, E.translation)
    q = ellipsoid_to_dual_quadric(center, [r, r, r])
    rho_px = default_intrinsics.fx * r / math.sqrt(d * d - r * r)
    cx, cy = default_intrinsics.cx, default_intrinsics.cy
    for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        c, s = math.cos(phi), math.sin(phi)
        l = normalize_lines([c, s, -(cx * c + cy * s + rho_px)])
        assert abs(tangency_residual(l, P, q)) < 1e-9 * default_intrinsics.fx**2


def test_tangency_residual_line_at_infinity(canonical_projection):
    r = tangency_residual([0.0, 0, 1], canonical_projection, DualQuadric.identity())
    assert r == pytest.approx(1.0)


def test_tangency_residual_bilinear_in_line_scale(rng, canonical_projection):
    # the raw residual scales quadratically with the line; the stored
    # normalization fixes that gauge
    q = DualQuadric(rng.normal(size=9))
    l = rng.normal(size=3)
    C = canonical_projection @ q.matrix() @ canonical_projection.T
    assert (2 * l) @ C @ (2 * l) == pytest.approx(4 * (l @ C @ l), rel=1e-12)


# -- robot pose and mount -----------------------------------------------------------

def test_intrinsics_validation():
    for fx, fy in [(0, 1), (1, -1)]:
        with pytest.raises(ValueError, match="focal lengths"):
            CameraIntrinsics(fx, fy, 0, 0, 10, 10)
    for width, height in [(0, 10), (10, -1)]:
        with pytest.raises(ValueError, match="image size"):
            CameraIntrinsics(1, 1, 0, 0, width, height)


def test_extrinsics_validation():
    with pytest.raises(ValueError):
        CameraExtrinsics(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        CameraExtrinsics(refl, np.zeros(3))


def test_left_facing_mount_axes():
    m = left_facing_mount()
    # camera axes expressed in the robot frame
    assert np.allclose(m.rotation.T @ np.array([0, 0, 1.0]), [0, 1, 0])  # optical axis: left
    assert np.allclose(m.rotation.T @ np.array([1.0, 0, 0]), [1, 0, 0])  # image x: heading
    assert np.allclose(m.rotation.T @ np.array([0, 1.0, 0]), [0, 0, -1])  # image y: down


def test_pose_to_extrinsics_identity_mount():
    E = pose_to_extrinsics([0, 0, 0], CameraExtrinsics(np.eye(3), np.zeros(3)))
    assert np.allclose(E.rotation, np.eye(3))
    assert np.allclose(E.translation, 0)


def test_pose_to_extrinsics_left_mount_axis():
    E = pose_to_extrinsics([1, 0, 0], left_facing_mount())
    # optical axis (camera z) in world coordinates
    assert np.allclose(E.rotation.T @ np.array([0, 0, 1.0]), [0, 1, 0])
    # the camera center sits at the robot origin
    assert np.allclose(E.rotation.T @ (np.zeros(3) - E.translation), [1, 0, 0])


def test_pose_to_extrinsics_round_trip(rng):
    mount = left_facing_mount()
    for _ in range(10):
        E = pose_to_extrinsics(rng.normal(0, 2, 3), mount)
        X = rng.normal(0, 5, 3)
        Xc = E.rotation @ X + E.translation
        assert np.allclose(E.rotation.T @ (Xc - E.translation), X, atol=1e-12)


def test_dual_conic_bbox_circle(canonical_projection):
    q = ellipsoid_to_dual_quadric([0, 0, 5], [1, 1, 1])
    (C,) = project_quadrics(canonical_projection[None], q.matrix())
    u0, v0, u1, v1 = dual_conic_bbox(C)
    rho = 1 / math.sqrt(24)
    assert (u0, v0, u1, v1) == pytest.approx((-rho, -rho, rho, rho), abs=1e-12)


def test_dual_conic_bbox_degenerate():
    with pytest.raises(DegenerateGeometryError):
        dual_conic_bbox(np.diag([1.0, 1.0, 1.0]))

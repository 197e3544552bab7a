import numpy as np
import pytest

from surfheat.errors import (NonConvergence, NonFiniteValue, OutsideTube,
                             SingularShapeOperator)
from surfheat.fem import quadrature_points
from surfheat.geometry import (
    TORUS_RADII,
    GeometricOperators,
    LevelSetSurface,
    geometric_operators,
    lift,
    torus,
    unit_sphere,
)
from surfheat.problems import icosphere, torus_grid
from surfheat.refinement import refine
from topology import NO_LIFT

RNG = np.random.default_rng(20240811)


def random_near_surface(surface, n, scale=0.05):
    """Random points within +-scale of the surface (sphere/torus specific)."""
    pts = RNG.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if surface.name.startswith("torus"):
        # wrap around the tube: angle parametrization
        th = RNG.uniform(0, 2 * np.pi, n)
        ph = RNG.uniform(0, 2 * np.pi, n)
        R0 = surface.bounding_radius - 0.5
        pts = np.stack([
            (R0 + 0.5 * np.cos(ph)) * np.cos(th),
            (R0 + 0.5 * np.cos(ph)) * np.sin(th),
            0.5 * np.sin(ph),
        ], axis=1)
    off = RNG.uniform(-scale, scale, size=(n, 1))
    g = surface.gradient(pts)
    return pts + off * g


def reference_lift(surface, points, tol=1e-12, max_iter=100):
    """Reference: the fixed-point closest-point iteration
    ``y <- x - d(x) nu(y)``, distance frozen at the source point and the
    unit normal re-evaluated at the iterate, from ``y = x - d(x) nu(x)``."""
    x = np.asarray(points, dtype=float)
    d0 = surface.distance(x)[..., None]
    g = surface.gradient(x)
    y = x - d0 * (g / np.linalg.norm(g, axis=-1, keepdims=True))
    for _ in range(max_iter):
        n = surface.gradient(y)
        y_new = x - d0 * (n / np.linalg.norm(n, axis=-1, keepdims=True))
        delta = np.max(np.abs(y_new - y), initial=0.0)
        y = y_new
        if delta < tol:
            return y
    raise AssertionError(f"no convergence within {max_iter} iterations")


def lifted_gradient_transform(surface, points, nu_h):
    """Reference: ``(I - d A)^{-1} (I - nu_h nu^T / (nu_h . nu))`` at each
    point, the matrix mapping flat tangential gradients to lifted surface
    gradients (``A`` the extended Weingarten map)."""
    p = np.asarray(points, dtype=float)
    nu_h = np.broadcast_to(np.asarray(nu_h, dtype=float), p.shape)
    d = surface.distance(p)
    nu = surface.gradient(p)
    nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    dot = np.sum(nu_h * nu, axis=-1)
    Q = np.eye(3) - (nu_h[..., :, None] * nu[..., None, :]
                     / dot[..., None, None])
    B = np.linalg.inv(np.eye(3) - d[..., None, None] * surface.hessian(p))
    return B @ Q


def report_operators(surface, points, nu_h):
    """Reference: the projectors and transforms of the geometry report,
    ``P = I - nu nu^T``, ``P_h = I - nu_h nu_h^T``,
    ``R~ = mu P_h Q^T B B Q`` and ``A~ = R~ P_h``, with
    ``B = (I - d A)^{-1}`` by ``np.linalg.inv``, ``Q`` as in
    :func:`lifted_gradient_transform` and ``mu`` the measure ratio."""
    p = np.asarray(points, dtype=float)
    nu_h = np.broadcast_to(np.asarray(nu_h, dtype=float), p.shape)
    d = surface.distance(p)
    nu = surface.gradient(p)
    nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    dot = np.sum(nu_h * nu, axis=-1)
    IdA = np.eye(3) - d[..., None, None] * surface.hessian(p)
    B = np.linalg.inv(IdA)
    Q = np.eye(3) - nu_h[..., :, None] * nu[..., None, :] / dot[..., None, None]
    P = np.eye(3) - nu[..., :, None] * nu[..., None, :]
    P_h = np.eye(3) - nu_h[..., :, None] * nu_h[..., None, :]
    mu = dot * np.linalg.det(IdA)
    r_tilde = mu[..., None, None] * (P_h @ np.swapaxes(Q, -1, -2) @ B @ B @ Q)
    return P, P_h, r_tilde, r_tilde @ P_h


def out_of_place_operators(surface, points, nu_h, hessian):
    """Reference: ``geometric_operators`` with each (..., 3, 3) array a new
    one, the Hessian from ``hessian``: ``(distance, mu, B Q)``."""
    p = np.asarray(points, dtype=float)
    nu_h = np.broadcast_to(np.asarray(nu_h, dtype=float), p.shape)
    d = surface.distance(p)
    nu = surface.gradient(p)
    nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    dot = np.sum(nu_h * nu, axis=-1)
    IdA = np.eye(3) - d[..., None, None] * hessian(p)
    det = np.linalg.det(IdA)
    a, b, c = np.moveaxis(IdA, -2, 0)
    adj = np.stack([np.cross(b, c), np.cross(c, a), np.cross(a, b)], axis=-1)
    adj_nu_h = np.einsum("...kj,...j->...k", adj, nu_h)
    adj = adj - adj_nu_h[..., :, None] * (nu / dot[..., None])[..., None, :]
    return d, dot * det, adj / det[..., None, None]


def out_of_place_sphere_hessian(p):
    """Reference: the unit sphere's ``(I - n n^T) / r``, out of place."""
    r = np.linalg.norm(p, axis=-1, keepdims=True)
    n = p / r
    return (np.eye(3) - n[..., :, None] * n[..., None, :]) / r[..., None]


def out_of_place_torus_hessian(p):
    """Reference: the torus's ``(I - n n^T - R0 / rho e e^T) / D``, out of
    place."""
    R0 = TORUS_RADII[0]
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    rho = np.hypot(x, y)
    D = np.hypot(rho - R0, z)[..., None, None]
    n = torus().gradient(p)
    e = np.stack([-y, x, np.zeros_like(x)], axis=-1) / rho[..., None]
    along = (R0 / rho)[..., None, None] * e[..., :, None] * e[..., None, :]
    return (np.eye(3) - n[..., :, None] * n[..., None, :] - along) / D


def lift_jacobian(surface, points):
    """Reference: Jacobian of the closest-point map,
    ``I - grad d grad d^T - d Hess d``."""
    p = np.asarray(points, dtype=float)
    d = surface.distance(p)[..., None, None]
    g = surface.gradient(p)
    outer = g[..., :, None] * g[..., None, :]
    return np.eye(3) - outer - d * surface.hessian(p)


def area_distortion(surface, points, t1, t2):
    """Reference measure ratio ``|Dp t1 x Dp t2| / |t1 x t2|``."""
    Dp = lift_jacobian(surface, points)
    im1 = np.einsum("...ij,...j->...i", Dp, t1)
    im2 = np.einsum("...ij,...j->...i", Dp, t2)
    return (np.linalg.norm(np.cross(im1, im2), axis=-1)
            / np.linalg.norm(np.cross(t1, t2), axis=-1))


def fd_gradient(f, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(p + e) - f(p - e)) / (2 * h)
    return g


def fd_hessian(f, p, h=1e-4):
    H = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            H[i, j] = (f(p + ei + ej) - f(p + ei - ej)
                       - f(p - ei + ej) + f(p - ei - ej)) / (4 * h * h)
    return H


@pytest.mark.parametrize("surface", [unit_sphere(), torus()],
                         ids=["sphere", "torus"])
class TestSignedDistance:
    def test_zero_on_surface(self, surface):
        pts = random_near_surface(surface, 40, scale=0.0)
        assert np.max(np.abs(surface.distance(pts))) < 1e-12

    def test_gradient_is_unit(self, surface):
        pts = random_near_surface(surface, 40)
        g = surface.gradient(pts)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_fd(self, surface):
        pts = random_near_surface(surface, 10)
        for p in pts:
            g = surface.gradient(p)
            ref = fd_gradient(lambda q: surface.distance(q), p)
            assert np.allclose(g, ref, atol=1e-8)

    def test_hessian_matches_fd(self, surface):
        pts = random_near_surface(surface, 10)
        for p in pts:
            H = surface.hessian(p)
            ref = fd_hessian(lambda q: surface.distance(q), p)
            assert np.allclose(H, ref, atol=1e-6)
            assert np.allclose(H, H.T, atol=1e-12)

    def test_eikonal_offsets(self, surface):
        # moving along the gradient changes d linearly with unit speed
        pts = random_near_surface(surface, 20, scale=0.0)
        g = surface.gradient(pts)
        for s in (-0.07, 0.03, 0.1):
            d = surface.distance(pts + s * g)
            assert np.allclose(d, s, atol=1e-10)


class TestSphereSpecifics:
    def test_known_values(self):
        s = unit_sphere()
        assert s.distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert s.distance(np.array([0.0, 0.5, 0.0])) == pytest.approx(-0.5)
        np.testing.assert_allclose(s.gradient(np.array([0.0, 0.0, 3.0])),
                                   [0.0, 0.0, 1.0])

    def test_hessian_eigen(self):
        # on the sphere the Weingarten map has eigenvalues {0, 1, 1}
        s = unit_sphere()
        p = np.array([0.6, 0.0, 0.8])
        w = np.linalg.eigvalsh(s.hessian(p))
        np.testing.assert_allclose(np.sort(w), [0.0, 1.0, 1.0], atol=1e-12)


class TestTorusSpecifics:
    def test_known_values(self):
        t = torus()
        assert t.distance(np.array([2.5, 0.0, 0.0])) == pytest.approx(0.0)
        assert t.distance(np.array([2.0, 0.0, 0.5])) == pytest.approx(0.0)
        assert t.distance(np.array([3.0, 0.0, 0.0])) == pytest.approx(0.5)
        assert t.distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(-0.5)

    def test_curvatures_outer_equator(self):
        # principal curvatures at the outer equator: 1/r0 and 1/(R0+r0)
        t = torus()
        p = np.array([2.5, 0.0, 0.0])
        w = np.sort(np.linalg.eigvalsh(t.hessian(p)))
        np.testing.assert_allclose(w, [0.0, 1.0 / 2.5, 2.0], atol=1e-12)


class TestLift:
    def test_sphere_exact(self):
        s = unit_sphere()
        pts = RNG.normal(size=(30, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * \
            RNG.uniform(0.9, 1.1, size=(30, 1))
        y = lift(s, pts)
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)
        # lift is radial projection for the sphere
        assert np.allclose(y, pts / np.linalg.norm(pts, axis=1, keepdims=True),
                           atol=1e-12)

    def test_idempotent(self):
        for surface in (unit_sphere(), torus()):
            pts = random_near_surface(surface, 20)
            y = lift(surface, pts)
            y2 = lift(surface, y)
            assert np.allclose(y, y2, atol=1e-10)

    def test_preserves_shape(self):
        s = unit_sphere()
        pts = random_near_surface(s, 12).reshape(3, 4, 3)
        assert lift(s, pts).shape == (3, 4, 3)

    def test_empty_input(self):
        y = lift(unit_sphere(), np.empty((0, 3)))
        assert y.shape == (0, 3)

    @pytest.mark.parametrize("surface, mesh, ulps", [
        (unit_sphere(), lambda: icosphere(4), 0),
        (torus(), lambda: torus_grid(24), 1)], ids=["sphere", "torus"])
    def test_matches_fixed_point_reference(self, surface, mesh, ulps):
        # the points the solver lifts: lifted-quadrature points and the
        # midpoints of a refinement
        mesh = mesh()
        fine, _ = refine(mesh, np.arange(mesh.n_triangles), "nvb", NO_LIFT)
        x = np.concatenate([
            quadrature_points(mesh).reshape(-1, 3),
            fine.nodes[mesh.n_nodes:]])
        y, expected = lift(surface, x), reference_lift(surface, x)
        if ulps == 0:
            assert y.tobytes() == expected.tobytes()
        else:
            assert np.all(np.abs(y - expected)
                          <= ulps * np.spacing(np.abs(expected)))

    def test_outside_tube(self):
        s = unit_sphere()
        with pytest.raises(OutsideTube):
            lift(s, np.array([[2.0, 0.0, 0.0]]))

    def test_non_finite_point_named(self):
        # NaN fails both the tube test and the residual test as comparisons
        points = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(NonFiniteValue, match=r"^point 1 has a non-finite "
                           r"coordinate: \[nan, 0\.0, 0\.0\]$"):
            lift(unit_sphere(), points)

    def test_non_finite_distance_outside_tube(self):
        # a finite point whose distance callback gives NaN is not lifted
        sphere = unit_sphere()
        nan_at_pole = LevelSetSurface(
            distance=lambda p: np.where(p[..., 2] == 1.0, np.nan,
                                        sphere.distance(p)),
            gradient=sphere.gradient, hessian=sphere.hessian,
            bounding_radius=1.0)
        with pytest.raises(OutsideTube, match=r"\|d\| = nan"):
            lift(nan_at_pole, np.array([[0.0, 0.0, 1.0]]))

    def test_non_convergence(self):
        # a "surface" whose gradient callback is inconsistent with the
        # distance: the projection lands off the surface
        bad = LevelSetSurface(
            distance=lambda p: np.linalg.norm(np.asarray(p, float), axis=-1) - 1.0,
            gradient=lambda p: np.broadcast_to(
                np.array([1.0, 0.0, 0.0]), np.asarray(p, float).shape).copy(),
            hessian=lambda p: np.zeros(np.asarray(p, float).shape + (3,)),
            bounding_radius=1.0)
        with pytest.raises(NonConvergence):
            lift(bad, np.array([[0.0, 1.1, 0.0]]))


class TestLiftJacobian:
    def test_on_surface_is_tangential_projector_times_shape(self):
        # on the surface (d = 0): Dp = I - nu nu^T
        s = unit_sphere()
        pts = random_near_surface(s, 10, scale=0.0)
        Dp = lift_jacobian(s, pts)
        nu = s.gradient(pts)
        P = np.eye(3) - nu[:, :, None] * nu[:, None, :]
        assert np.allclose(Dp, P, atol=1e-12)

    def test_matches_fd_of_lift(self):
        s = torus()
        pts = random_near_surface(s, 5)
        h = 1e-6
        for p in pts:
            J = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                J[:, i] = (lift(s, p + e) - lift(s, p - e)) / (2 * h)
            assert np.allclose(lift_jacobian(s, p), J, atol=1e-5)


def plane_mu(surface, points, t1, t2):
    """``geometric_operators(...).mu`` on the plane spanned by t1, t2."""
    nu_h = np.cross(t1, t2)
    return geometric_operators(surface, points,
                               nu_h / np.linalg.norm(nu_h)).mu


class TestMeasureRatio:
    def test_tangent_plane_on_surface_is_one(self):
        s = unit_sphere()
        p = np.array([0.0, 0.0, 1.0])
        r = plane_mu(s, p, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert r == pytest.approx(1.0, abs=1e-14)

    def test_shrinks_for_chord_plane(self):
        # a plane at height z0 < 1 cutting the sphere maps onto a larger cap
        # region; the pointwise ratio at the touching point is below one when
        # offset outward, above when inset -- check monotone behaviour via
        # offset points
        s = unit_sphere()
        p_out = np.array([0.0, 0.0, 1.05])
        p_in = np.array([0.0, 0.0, 0.95])
        t1 = np.array([1.0, 0, 0])
        t2 = np.array([0, 1.0, 0])
        assert plane_mu(s, p_out, t1, t2) < 1.0 < plane_mu(s, p_in, t1, t2)

    def test_second_order_convergence(self):
        # for shrinking chords of the sphere, 1 - mu = O(h^2)
        s = unit_sphere()
        defects = []
        hs = [0.4, 0.2, 0.1, 0.05]
        for h in hs:
            a = np.array([np.sin(h), 0.0, np.cos(h)])
            b = np.array([-np.sin(h) / 2, np.sin(h) * np.sqrt(3) / 2, np.cos(h)])
            c = np.array([-np.sin(h) / 2, -np.sin(h) * np.sqrt(3) / 2, np.cos(h)])
            mid = (a + b + c) / 3
            mu = plane_mu(s, mid, b - a, c - a)
            defects.append(abs(1.0 - mu))
        rates = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(rates > 1.7)

    @pytest.mark.parametrize("surface", [unit_sphere(), torus()],
                             ids=["sphere", "torus"])
    @pytest.mark.parametrize("scale", [0.0, 0.1], ids=["on", "off"])
    def test_matches_area_distortion_of_lift(self, surface, scale):
        pts = random_near_surface(surface, 50, scale=scale)
        if scale:
            assert np.abs(surface.distance(pts)).max() > 0.01
        nu = surface.gradient(pts)
        # element planes tilted up to about 30 degrees from the tangent plane
        nu_h = nu + 0.3 * RNG.uniform(-1, 1, size=pts.shape)
        nu_h /= np.linalg.norm(nu_h, axis=1, keepdims=True)
        t1 = np.cross(nu_h, RNG.normal(size=pts.shape))
        t2 = np.cross(nu_h, t1)
        mu = geometric_operators(surface, pts, nu_h).mu
        np.testing.assert_allclose(mu, area_distortion(surface, pts, t1, t2),
                                   rtol=1e-13)


def flat_patch_surface(z0=0.0):
    """Plane z = z0 dressed up as a level set (not closed, fine for algebra)."""
    return LevelSetSurface(
        distance=lambda p: np.asarray(p, float)[..., 2] - z0,
        gradient=lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), np.asarray(p, float).shape).copy(),
        hessian=lambda p: np.zeros(np.asarray(p, float).shape + (3,)),
        bounding_radius=100.0, name="plane")


class TestGeometricOperators:
    def test_flat_surface_everything_trivial(self):
        surf = flat_patch_surface()
        pts = RNG.uniform(-1, 1, size=(7, 3))
        pts[:, 2] = 0.0
        nu_h = np.array([0.0, 0.0, 1.0])
        ops = geometric_operators(surf, pts, nu_h)
        P = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(ops.mu, 1.0, atol=1e-14)
        assert np.allclose(ops.grad_transform, P, atol=1e-14)
        for reference in report_operators(surf, pts, nu_h):
            assert np.allclose(reference, P, atol=1e-14)

    def test_tilted_flat_element_identity(self):
        # flat exact surface, tilted flat element: the quadratic form with
        # r_tilde must reproduce the exact Dirichlet integrand of the lifted
        # function; for a flat surface the transform B Q is exactly the
        # projection along nu_h onto the plane
        surf = flat_patch_surface()
        nu_h = np.array([0.3, -0.2, 1.0])
        nu_h = nu_h / np.linalg.norm(nu_h)
        pts = RNG.uniform(-1, 1, size=(5, 3))
        ops = geometric_operators(surf, pts, nu_h)
        g = RNG.normal(size=(5, 3))
        # make g tangential to the element
        g -= np.sum(g * nu_h, axis=1, keepdims=True) * nu_h
        lifted = np.einsum("nij,nj->ni", ops.grad_transform, g)
        # lifted gradient must be tangential to the exact surface
        assert np.allclose(lifted[:, 2], 0.0, atol=1e-12)
        r_tilde = report_operators(surf, pts, nu_h)[2]
        lhs = np.einsum("ni,nij,nj->n", g, r_tilde, g)
        rhs = ops.mu * np.sum(lifted * lifted, axis=1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_quadratic_form_identity_sphere(self):
        # g^T R~ g = mu * |B Q g|^2 for tangential g, by construction
        s = unit_sphere()
        pts = random_near_surface(s, 20, scale=0.02)
        nu_h = RNG.normal(size=(20, 3))
        nu = s.gradient(pts)
        # keep nu_h within 30 degrees of nu so the element is admissible
        nu_h = nu + 0.3 * nu_h
        nu_h /= np.linalg.norm(nu_h, axis=1, keepdims=True)
        ops = geometric_operators(s, pts, nu_h)
        g = RNG.normal(size=(20, 3))
        g -= np.sum(g * nu_h, axis=1, keepdims=True) * nu_h
        lifted = np.einsum("nij,nj->ni", ops.grad_transform, g)
        r_tilde = report_operators(s, pts, nu_h)[2]
        lhs = np.einsum("ni,nij,nj->n", g, r_tilde, g)
        rhs = ops.mu * np.sum(lifted * lifted, axis=1)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        # lifted gradients are tangential to the exact surface
        assert np.allclose(np.sum(lifted * nu, axis=1), 0.0, atol=1e-12)

    def test_r_tilde_symmetric_on_tangent_plane(self):
        s = torus()
        pts = random_near_surface(s, 10, scale=0.02)
        nu = s.gradient(pts)
        # with nu_h = nu the operator restricted to the tangent plane is
        # symmetric (P_h Q^T B B Q with Q = P symmetric here)
        _, Ph, R, _ = report_operators(s, pts, nu)
        RT = np.swapaxes(R, 1, 2)
        assert np.allclose(Ph @ R @ Ph, Ph @ RT @ Ph, atol=1e-12)

    def test_deviation_second_order(self):
        # max |P_h - A~| and |1 - mu| at chord-triangle centroids: O(h^2)
        s = unit_sphere()
        errs_a = []
        errs_mu = []
        hs = [0.4, 0.2, 0.1, 0.05]
        for h in hs:
            a = np.array([np.sin(h), 0.0, np.cos(h)])
            b = np.array([-np.sin(h) / 2, np.sin(h) * np.sqrt(3) / 2, np.cos(h)])
            c = np.array([-np.sin(h) / 2, -np.sin(h) * np.sqrt(3) / 2, np.cos(h)])
            nu_h = np.cross(b - a, c - a)
            nu_h /= np.linalg.norm(nu_h)
            # generic interior point (the centroid is too symmetric: there
            # nu_h equals nu and the deviation vanishes identically)
            mid = 0.5 * a + 0.3 * b + 0.2 * c
            _, P_h, _, a_tilde = report_operators(s, mid, nu_h)
            errs_a.append(np.max(np.abs(P_h - a_tilde)))
            errs_mu.append(abs(1 - geometric_operators(s, mid, nu_h).mu))
        for errs in (errs_a, errs_mu):
            rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(rates > 1.7), rates

    def test_singular_shape_operator(self):
        # a sphere evaluated at d = -1 + eps has I - d*A nearly singular at
        # the centre; craft a surface reporting curvature 1/d exactly
        surf = LevelSetSurface(
            distance=lambda p: np.ones(np.asarray(p, float).shape[:-1]),
            gradient=lambda p: np.broadcast_to(
                np.array([0.0, 0.0, 1.0]), np.asarray(p, float).shape).copy(),
            hessian=lambda p: np.broadcast_to(
                np.eye(3), np.asarray(p, float).shape + (3,)).copy(),
            bounding_radius=100.0)
        with pytest.raises(SingularShapeOperator):
            geometric_operators(surf, np.zeros((1, 3)), np.array([0.0, 0.0, 1.0]))

    def test_non_finite_point_named(self):
        # before the determinant, which would warn and return NaN
        points = np.array([[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                           [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]])
        with pytest.raises(NonFiniteValue, match=r"^point 3 has a non-finite "
                           r"coordinate: \[0\.0, inf, 0\.0\]$"):
            geometric_operators(unit_sphere(), points,
                                np.array([0.0, 0.0, 1.0]))

    def test_non_finite_normal_named(self):
        # a NaN normal gave a NaN dot, which passed the sign test, and
        # returned mu = [nan] with no error
        with pytest.raises(NonFiniteValue, match=r"^element normal 0 has a "
                           r"non-finite coordinate: \[nan, 0\.0, 0\.0\]$"):
            geometric_operators(unit_sphere(), [[1.0, 0.0, 0.0]],
                                [np.nan, 0.0, 0.0])
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        normals[1, 2] = np.inf
        with pytest.raises(NonFiniteValue, match=r"^element normal 1 "):
            geometric_operators(unit_sphere(), [[0.0, 0.0, 1.0],
                                                [0.0, 1.0, 0.0]], normals)

    def test_non_finite_weingarten_map_named(self):
        # a NaN Hessian gave NaN mu and BQ, with only numpy's "invalid value
        # encountered in det" warning as a sign
        sphere = unit_sphere()
        nan_on_y = sphere._replace(hessian=lambda p: np.where(
            p[..., 1, None, None] > 0.5, np.nan, sphere.hessian(p)))
        points = np.array([[0.0, 0.0, 1.1], [0.0, 1.1, 0.0],
                           [0.0, 0.9, 0.0]])
        with pytest.raises(NonFiniteValue, match=r"^I - d\*Weingarten of "
                           r"point 1 has a non-finite entry$"):
            geometric_operators(nan_on_y, points, points / 1.1)
        inf_hessian = sphere._replace(
            hessian=lambda p: np.full(np.shape(p) + (3,), np.inf))
        with pytest.raises(NonFiniteValue, match=r"point 0 "):
            geometric_operators(inf_hessian, points[:1], points[0] / 1.1)

    def test_nan_surface_normal_fails_the_sign_test(self):
        sphere = unit_sphere()
        nan_gradient = LevelSetSurface(
            distance=sphere.distance, hessian=sphere.hessian,
            gradient=lambda p: np.full(np.shape(p), np.nan),
            bounding_radius=1.0)
        with pytest.raises(ValueError, match="points away"):
            geometric_operators(nan_gradient, [[0.0, 0.0, 1.0]],
                                [0.0, 0.0, 1.0])

    def test_inadmissible_normal(self):
        s = unit_sphere()
        p = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            geometric_operators(s, p, np.array([0.0, 0.0, -1.0]))

    def test_transform_helper_consistency(self):
        s = torus()
        pts = random_near_surface(s, 8, scale=0.03)
        nu_h = s.gradient(pts)
        ops = geometric_operators(s, pts, nu_h)
        T = lifted_gradient_transform(s, pts, nu_h)
        assert np.allclose(T, ops.grad_transform, atol=1e-14)

    @pytest.mark.parametrize("surface", [unit_sphere(), torus()],
                             ids=["sphere", "torus"])
    def test_transform_matches_inverse_on_tilted_elements(self, surface):
        # the adjugate form of B Q against np.linalg.inv, off the surface
        # and with element planes tilted up to about 30 degrees
        rng = np.random.default_rng(7)
        pts = random_near_surface(surface, 50, scale=0.1)
        nu_h = surface.gradient(pts) + 0.3 * rng.uniform(-1, 1, pts.shape)
        nu_h /= np.linalg.norm(nu_h, axis=1, keepdims=True)
        ops = geometric_operators(surface, pts, nu_h)
        np.testing.assert_allclose(
            ops.grad_transform, lifted_gradient_transform(surface, pts, nu_h),
            rtol=0, atol=1e-14)

    @pytest.mark.parametrize("surface, make, hessian", [
        (unit_sphere(), lambda: icosphere(3), out_of_place_sphere_hessian),
        (torus(), lambda: torus_grid(12), out_of_place_torus_hessian)],
        ids=["sphere", "torus"])
    def test_equal_the_out_of_place_formula(self, surface, make, hessian):
        # bitwise, at the rule's points of a mesh and at tilted elements
        # off the surface, the operators and the in-place Hessian
        mesh = make()
        q = quadrature_points(mesh).shape[1]
        flat = (quadrature_points(mesh).reshape(-1, 3),
                np.repeat(mesh.metrics.normal, q, axis=0))
        rng = np.random.default_rng(11)
        pts = random_near_surface(surface, 50, scale=0.1)
        nu_h = surface.gradient(pts) + 0.3 * rng.uniform(-1, 1, pts.shape)
        nu_h /= np.linalg.norm(nu_h, axis=1, keepdims=True)
        for points, normals in (flat, (pts, nu_h)):
            ops = geometric_operators(surface, points, normals)
            expected = out_of_place_operators(surface, points, normals,
                                              hessian)
            for got, want in zip(ops, expected):
                assert got.tobytes() == want.tobytes()
            assert surface.hessian(points).tobytes() == \
                hessian(points).tobytes()

    def test_returns_bundle(self):
        s = unit_sphere()
        ops = geometric_operators(s, np.array([0.0, 0.0, 1.0]),
                                  np.array([0.0, 0.0, 1.0]))
        assert isinstance(ops, GeometricOperators)
        assert ops.distance == pytest.approx(0.0)

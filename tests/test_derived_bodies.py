"""Bodies built from another body: the difference body K - K, Minkowski sums,
the projection body ΠK and its polar Π°K, and the illumination bodies K^δ.

Their errors name them, and theorems about them hold at the rounding level:
Zhang's and Petty's bounds on vol(K)^(n-1) vol(Π°K), the affine covariance
of ΠK, K^δ, K - K and the convex hull function, the nesting of K^δ in δ,
and the source paper's first theorem: the convex hull function does not
determine the body.
"""

import math

import numpy as np
import pytest

from hullkit import (
    DegenerateInput,
    Polygon,
    affine_image,
    central_symmetral,
    convex_hull_function,
    difference_body,
    hausdorff_distance,
    homothety_fit,
    hull,
    illumination_body,
    minkowski_sum,
    polar,
    polar_projection_body,
    projection_body,
    tcvp_check,
    translative_volume_constant,
)
from hullkit.sampling import random_polygon, random_polytope3

_SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_CUBE = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
# builds, with squared edges that are normal doubles; the vertices n/b of its
# polar, and of its projection body's polar, reach 1e155
_FLAT_TRIANGLE = 1e-150 * np.array([[-1.0, -1e-5], [1.0, -1e-5], [0.0, 2e-5]])

_NAMES = ("polar body", "projection body", "difference body", "Minkowski sum", "illumination body")
_TOO_FAR = "coordinates too large: squared distances overflow"
_NORMALS = "coordinates too large: facet normals overflow"
_CROSSES = "generator cross products overflow: coordinates too large"


def _square(s):
    return Polygon(s * _SQUARE)


def _cube(s):
    return hull(s * _CUBE)


# (id, construction, message).  K - K of the square at 2^510 overflows its
# squared extent, and that of the cube at 2^254 (coordinates up to 2^255)
# its Newell norms, as does the sum of that cube and its negation.  ΠK's
# generators are of order coordinate², and their cross products overflow at
# 1e40.  The projection body of the cube at 6e-78 has a polar of order
# 1e155.  The level sets of the boxes of half-side 1e-3 at δ = 1e306
# overflow.
NAMED_ERRORS = [
    ("polar", lambda: polar(Polygon(_FLAT_TRIANGLE)), f"polar body: {_TOO_FAR}"),
    ("polar_projection_body_2d", lambda: polar_projection_body(Polygon(_FLAT_TRIANGLE)), f"polar body: {_TOO_FAR}"),
    ("tcvp_check_2d_polar", lambda: tcvp_check(Polygon(_FLAT_TRIANGLE)), f"polar body: {_TOO_FAR}"),
    ("projection_body_3d", lambda: projection_body(_cube(1e40)), f"projection body: {_CROSSES}"),
    ("projection_body_3d_tiny",
     lambda: projection_body(random_polytope3(np.random.default_rng(1), 8).scale(2.0**-126)),
     "projection body: coordinates too small: squared facet normals underflow"),
    ("polar_projection_body_3d", lambda: polar_projection_body(_cube(1e40)), f"projection body: {_CROSSES}"),
    ("tcvp_check_3d", lambda: tcvp_check(_cube(1e40)), f"projection body: {_CROSSES}"),
    ("tcvp_check_3d_polar", lambda: tcvp_check(_cube(6e-78)), f"polar body: {_TOO_FAR}"),
    ("difference_body_2d", lambda: difference_body(_square(2.0**510)), f"difference body: {_TOO_FAR}"),
    ("difference_body_3d", lambda: difference_body(_cube(2.0**254)), f"difference body: {_NORMALS}"),
    ("projection_body_2d", lambda: projection_body(_square(2.0**510)), f"difference body: {_TOO_FAR}"),
    ("tcvp_check_2d", lambda: tcvp_check(_square(2.0**510)), f"difference body: {_TOO_FAR}"),
    ("tcvp_check_3d_difference", lambda: tcvp_check(_cube(2.0**254)), f"difference body: {_NORMALS}"),
    ("translative_volume_constant_2d", lambda: translative_volume_constant(_square(2.0**510)),
     f"difference body: {_TOO_FAR}"),
    ("translative_volume_constant_3d", lambda: translative_volume_constant(_cube(2.0**254)),
     f"difference body: {_NORMALS}"),
    ("central_symmetral_2d", lambda: central_symmetral(_square(2.0**510)), f"difference body: {_TOO_FAR}"),
    ("central_symmetral_3d", lambda: central_symmetral(_cube(2.0**254)), f"difference body: {_NORMALS}"),
    ("minkowski_sum_2d", lambda: minkowski_sum(_square(2.0**510), _square(2.0**510)), f"Minkowski sum: {_TOO_FAR}"),
    ("minkowski_sum_3d", lambda: minkowski_sum(_cube(2.0**254), _cube(2.0**254).negate()),
     f"Minkowski sum: {_NORMALS}"),
    ("illumination_body_2d", lambda: illumination_body(_square(1e-3), 1e306), f"illumination body: {_TOO_FAR}"),
    ("illumination_body_3d", lambda: illumination_body(_cube(1e-3), 1e306), f"illumination body: {_TOO_FAR}"),
]


@pytest.mark.parametrize(("build", "message"), [case[1:] for case in NAMED_ERRORS],
                         ids=[case[0] for case in NAMED_ERRORS])
def test_derived_body_errors_carry_one_name(build, message):
    # no warning comes first (pytest turns warnings into errors), and the
    # named error is chained to the unnamed one raised inside
    with pytest.raises(DegenerateInput) as info:
        build()
    assert str(info.value) == message
    name, rest = message.split(": ", 1)
    assert name in _NAMES
    assert not rest.startswith(tuple(f"{other}:" for other in _NAMES))
    assert isinstance(info.value.__cause__, DegenerateInput)
    assert str(info.value.__cause__) == rest


def _zhang_product(body):
    """vol(K)^(n-1) vol(Π°K): affine invariant, at least Zhang's C(2n, n)/n^n
    with equality exactly on simplices, and at most Petty's (ω_n/ω_(n-1))^n,
    attained on ellipsoids."""
    return body.volume ** (body.dim - 1) * polar_projection_body(body).volume


ZHANG = {2: 1.5, 3: 20 / 27}
PETTY = {2: (math.pi / 2) ** 2, 3: (4 / 3) ** 3}


@pytest.mark.parametrize("dim", [2, 3])
def test_zhang_equality_on_simplices(dim):
    # measured on these 60 simplices of each dimension: at most 1.8e-15
    # (triangles) and 1.1e-14 (tetrahedra) relative error
    rng = np.random.default_rng(11 + dim)
    worst = max(abs(_zhang_product(hull(rng.normal(size=(dim + 1, dim)))) / ZHANG[dim] - 1) for _ in range(60))
    assert worst < 1e-12


def test_zhang_and_petty_bounds():
    # measured: the products lie at least 1.09 (2D) and 1.23 (3D) times
    # Zhang's bound and at most 0.958 and 0.692 times Petty's
    rng = np.random.default_rng(21)
    for dim, bodies in ((2, [random_polygon(rng, int(rng.integers(4, 13))) for _ in range(30)]),
                        (3, [random_polytope3(rng, int(rng.integers(5, 13))) for _ in range(20)])):
        products = [_zhang_product(body) for body in bodies]
        assert ZHANG[dim] < min(products) and max(products) < PETTY[dim]


def _random_map(rng, dim):
    """A random matrix of condition number below 10, of either orientation."""
    while True:
        mat = rng.normal(size=(dim, dim))
        if np.linalg.cond(mat) < 10:
            return mat


def _random_body(rng, dim):
    if dim == 2:
        return random_polygon(rng, int(rng.integers(5, 13)))
    return random_polytope3(rng, int(rng.integers(6, 13)))


@pytest.mark.parametrize("dim", [2, 3])
def test_projection_body_is_affine_covariant(dim):
    # Π(AK + b) = |det A| A^(-T) ΠK.  Measured over these 8 bodies: the
    # Hausdorff distance is at most 1.9e-16 (2D) and 1.9e-15 (3D) of the
    # diameter
    rng = np.random.default_rng(31 + dim)
    for _ in range(8):
        body, mat = _random_body(rng, dim), _random_map(rng, dim)
        image = projection_body(affine_image(body, mat, rng.normal(size=dim)))
        mapped = affine_image(projection_body(body), abs(np.linalg.det(mat)) * np.linalg.inv(mat).T)
        assert hausdorff_distance(image, mapped) < 1e-12 * image.diameter


@pytest.mark.parametrize("dim", [2, 3])
def test_illumination_bodies_are_affine_covariant_and_nested(dim):
    # (AK + b)^(|det A| δ) = A K^δ + b: the point-hull volume scales by
    # |det A| under the map.  Measured over these 6 bodies at two levels:
    # the Hausdorff distance is at most 3.7e-16 (2D) and 8.0e-16 (3D) of
    # the diameter.  And K ⊂ K^(0.05 vol) ⊂ K^(0.5 vol), every vertex at
    # least 2.1% of the diameter inside
    rng = np.random.default_rng(41 + dim)
    for _ in range(6):
        body, mat, shift = _random_body(rng, dim), _random_map(rng, dim), rng.normal(size=dim)
        image = affine_image(body, mat, shift)
        inner = body
        for factor in (0.05, 0.5):
            delta = factor * body.volume
            level_set = illumination_body(body, delta).body
            mapped = illumination_body(image, abs(np.linalg.det(mat)) * delta).body
            assert hausdorff_distance(mapped, affine_image(level_set, mat, shift)) < 1e-12 * mapped.diameter
            heights = inner.vertices @ level_set.facet_normals.T - level_set.facet_offsets
            assert np.max(heights) < 0
            inner = level_set


@pytest.mark.parametrize("dim", [2, 3])
def test_difference_body_and_hull_function_are_affine_covariant(dim):
    # D(AK + b) = A DK, and G_(AK+b)(At) = |det A| G_K(t) through the hull
    # definition.  Measured over these 8 bodies and 20 t each: the Hausdorff
    # distance is at most 1.4e-16 (2D) and 6.5e-17 (3D) of the diameter, and
    # G agrees to 6.7e-16 (2D) and 8.9e-16 (3D) relative
    rng = np.random.default_rng(8)
    for _ in range(8):
        body, mat, shift = _random_body(rng, dim), _random_map(rng, dim), rng.normal(size=dim)
        image = affine_image(body, mat, shift)
        diff = difference_body(image)
        assert hausdorff_distance(diff, affine_image(difference_body(body), mat)) < 1e-12 * diff.diameter
        det = abs(np.linalg.det(mat))
        for t in rng.normal(size=(20, dim)) * body.diameter:
            value = det * convex_hull_function(body, t)
            assert abs(convex_hull_function(image, mat @ t) - value) <= 1e-12 * value


def _twins(triangle):
    """Polygons K = A + B and K' = A - B with B = R_θ A, θ bisected so that
    their areas agree.  Widths add under Minkowski sums, so K - K = K' - K';
    area K - area K' changes sign on [0, π], since θ + π swaps K and K', and
    at its root K and K' share area and projection body, hence convex hull
    function G(t) = vol + |t| vol(K | t^⊥), without being homothets."""
    body = hull(triangle)

    def pair(theta):
        c, s = math.cos(theta), math.sin(theta)
        turned = hull(triangle @ np.array([[c, s], [-s, c]]))
        return minkowski_sum(body, turned), minkowski_sum(body, turned.negate())

    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        k, k_twin = pair(mid)
        lo, hi = (mid, hi) if k.volume < k_twin.volume else (lo, mid)
    return pair(0.5 * (lo + hi))


def _prism(polygon):
    """P × [0, 1]: its shadow in direction u is |u₃| area(P) plus |u'| times
    P's own shadow along u', so prisms over twins are twins."""
    v = polygon.vertices
    return hull(np.vstack([np.column_stack((v, np.full(len(v), z))) for z in (0.0, 1.0)]))


def test_convex_hull_function_does_not_determine_the_body():
    # measured on this triangle: G agrees to 9.6e-16 (2D) and 4.5e-16 (3D)
    # relative at these t, through the hull definition; the fits' defects
    # are 0.094 and 0.094 (2D), 0.086 and 0.084 (3D)
    rng = np.random.default_rng(0)
    k, k_twin = _twins(rng.normal(size=(3, 2)))
    for body, twin in ((k, k_twin), (_prism(k), _prism(k_twin))):
        for t in rng.normal(size=(100, body.dim)) * body.diameter:
            value = convex_hull_function(body, t)
            assert abs(convex_hull_function(twin, t) - value) <= 1e-12 * value
        assert homothety_fit(body, twin).defect > 1e-2
        assert homothety_fit(body.negate(), twin).defect > 1e-2

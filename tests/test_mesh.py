"""Mesh construction, projection and discrete operator tests."""

import numpy as np
import pytest

from machfv import (build_mesh, cell_divergence, cell_gradient, face_average,
                    face_gradient, face_gradient_normal, face_jump,
                    flux_divergence, gather_to_faces, project,
                    scatter_to_cells)
from machfv.mesh import face_weight

from conftest import random_positive_state
from oracles import loop_cell_divergence, loop_cell_gradient


def test_build_mesh_counts_and_sizes():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    assert mesh.n_cells == 16
    assert mesh.n_faces == 32  # 2 * nx * ny on a periodic quad mesh
    assert mesh.hx == 0.25 and mesh.hy == 0.25
    assert mesh.cell_volume == pytest.approx(0.0625)

    mesh = build_mesh(3, 3, 3.0, 3.0)
    assert mesh.hx == 1.0 and mesh.hy == 1.0
    assert mesh.boundary_measure == pytest.approx(4.0)


def test_build_mesh_rejects_small_and_degenerate():
    with pytest.raises(ValueError):
        build_mesh(2, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(4, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(4, 4, 0.0, 1.0)


def face_cells(mesh):
    """(K, L) cell indices of every face, from the documented convention."""
    n = mesh.n_cells
    i, j = np.arange(n) % mesh.nx, np.arange(n) // mesh.nx
    right = (i + 1) % mesh.nx + mesh.nx * j
    up = i + mesh.nx * ((j + 1) % mesh.ny)
    return np.concatenate([np.arange(n), np.arange(n)]), np.concatenate([right, up])


@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 3)])
def test_gather_puts_every_cell_on_four_faces_and_each_pair_once(nx, ny):
    mesh = build_mesh(nx, ny, 1.0, 1.0)
    k, l = gather_to_faces(mesh, np.arange(mesh.n_cells))
    assert k.shape == l.shape == (mesh.n_faces,)
    counts = np.bincount(k, minlength=mesh.n_cells) + np.bincount(l, minlength=mesh.n_cells)
    assert (counts == 4).all()
    assert (k != l).all()
    # each (K, L) unordered pair appears exactly once
    pairs = {tuple(sorted(p)) for p in zip(k.tolist(), l.tolist())}
    assert len(pairs) == mesh.n_faces
    expected_k, expected_l = face_cells(mesh)
    np.testing.assert_array_equal(k, expected_k)
    np.testing.assert_array_equal(l, expected_l)


def test_gather_vector_field_and_dtype(mesh44):
    u = np.random.default_rng(7).normal(size=(mesh44.n_cells, 2)).astype(np.longdouble)
    u_k, u_l = gather_to_faces(mesh44, u)
    k, l = face_cells(mesh44)
    assert u_k.dtype == u_l.dtype == np.longdouble
    np.testing.assert_array_equal(u_k, u[k])
    np.testing.assert_array_equal(u_l, u[l])


def test_face_weight_is_inverse_center_distance():
    # |face| / |D| with |D| = |face| times the distance between the centres
    mesh = build_mesh(4, 3, 1.0, 0.9)
    dist = np.repeat([mesh.hx, mesh.hy], mesh.n_cells)
    np.testing.assert_allclose(face_weight(mesh) * dist, 1.0, rtol=1e-15)


def test_total_volume_matches_domain():
    mesh = build_mesh(5, 7, 1.3, 0.7)
    assert mesh.n_cells * mesh.cell_volume == pytest.approx(1.3 * 0.7, rel=1e-14)


def test_project_constant_and_linear():
    # first cell of this mesh is [0, 0.5]^2, so the midpoint of x is 0.25
    mesh = build_mesh(3, 3, 1.5, 1.5)
    const = project(mesh, lambda x, y: 2.5 + 0.0 * x)
    np.testing.assert_array_equal(const, np.full(9, 2.5))
    for rule in ("midpoint", "gauss3"):
        vals = project(mesh, lambda x, y: x, rule=rule)
        assert vals[0] == pytest.approx(0.25, abs=1e-14)


def test_project_gauss3_exact_for_quintic():
    # tensor 3-point Gauss integrates degree-5 polynomials exactly per axis
    mesh = build_mesh(3, 3, 1.0, 1.0)
    vals = project(mesh, lambda x, y: x ** 5, rule="gauss3")
    xl = np.arange(3) * mesh.hx
    exact = ((xl + mesh.hx) ** 6 - xl ** 6) / (6.0 * mesh.hx)
    np.testing.assert_allclose(vals.reshape(3, 3)[0], exact, rtol=1e-14)


def test_project_rejects_unknown_rule(mesh44):
    with pytest.raises(ValueError):
        project(mesh44, lambda x, y: x, rule="simpson")


def test_face_average_and_jump_values(mesh44):
    q = np.zeros(mesh44.n_cells)
    f = 0  # first x-face: joins cell 0 to its right neighbour, cell 1
    q[0] = 1.0
    q[1] = 3.0
    assert face_average(mesh44, q)[f] == pytest.approx(2.0)
    assert face_jump(mesh44, q)[f] == pytest.approx(2.0)

    const = np.full(mesh44.n_cells, 4.2)
    np.testing.assert_array_equal(face_average(mesh44, const), const[:1].repeat(32))
    np.testing.assert_array_equal(face_jump(mesh44, const), np.zeros(32))


def test_face_jump_follows_stored_orientation(mesh44):
    rng = np.random.default_rng(3)
    q = rng.normal(size=mesh44.n_cells)
    k, l = face_cells(mesh44)
    np.testing.assert_array_equal(face_jump(mesh44, q), q[l] - q[k])


def test_cell_gradient_constant_is_exactly_zero(mesh44):
    grad = cell_gradient(mesh44, np.full(mesh44.n_cells, 7.0))
    assert (grad == 0.0).all()


def test_cell_gradient_periodic_row_pattern():
    # q depends on i only: x-component reduces to a central difference
    mesh = build_mesh(4, 3, 1.0, 0.75)
    pattern = np.array([0.0, 1.0, 0.0, -1.0])
    q = np.tile(pattern, 3)
    grad = cell_gradient(mesh, q)
    assert grad[0, 0] == pytest.approx(4.0)  # (q_1 - q_3) / (2 * 0.25)
    expected_x = (np.roll(pattern, -1) - np.roll(pattern, 1)) / (2.0 * mesh.hx)
    np.testing.assert_allclose(grad[:, 0], np.tile(expected_x, 3), atol=1e-14)
    np.testing.assert_allclose(grad[:, 1], 0.0, atol=1e-14)


def test_cell_gradient_matches_face_loop_oracle():
    mesh = build_mesh(5, 4, 1.2, 0.8)
    rng = np.random.default_rng(11)
    q = rng.normal(size=mesh.n_cells)
    np.testing.assert_allclose(cell_gradient(mesh, q),
                               loop_cell_gradient(q, 5, 4, 1.2, 0.8),
                               rtol=1e-13, atol=1e-13)


def test_face_gradient_single_jump():
    mesh = build_mesh(4, 4, 2.0, 2.0)  # hx = 0.5
    q = np.ones(mesh.n_cells)
    f = 0  # first x-face: K = cell 0, L = cell 1
    q[1] = 2.0
    q[0] = 1.0
    grad = face_gradient(mesh, q)
    assert grad[f, 0] == pytest.approx(2.0)  # [[q]] / hx
    assert grad[f, 1] == 0.0
    assert face_gradient_normal(mesh, q)[f] == pytest.approx(2.0)


def test_face_gradient_linearity(mesh44):
    rng = np.random.default_rng(5)
    q1 = rng.normal(size=mesh44.n_cells)
    q2 = rng.normal(size=mesh44.n_cells)
    lhs = face_gradient(mesh44, 2.0 * q1 - 3.0 * q2)
    rhs = 2.0 * face_gradient(mesh44, q1) - 3.0 * face_gradient(mesh44, q2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_cell_divergence_constant_and_pattern():
    mesh = build_mesh(4, 3, 1.0, 0.75)
    const = np.tile(np.array([1.5, -2.0]), (mesh.n_cells, 1))
    np.testing.assert_allclose(cell_divergence(mesh, const), 0.0, atol=1e-14)

    phi = np.zeros((mesh.n_cells, 2))
    phi[:, 0] = np.tile(np.array([0.0, 1.0, 0.0, -1.0]), 3)
    div = cell_divergence(mesh, phi)
    assert div[0] == pytest.approx(4.0)


def test_cell_divergence_matches_face_loop_oracle():
    mesh = build_mesh(4, 5, 0.9, 1.1)
    rng = np.random.default_rng(17)
    phi = rng.normal(size=(mesh.n_cells, 2))
    np.testing.assert_allclose(cell_divergence(mesh, phi),
                               loop_cell_divergence(phi, 4, 5, 0.9, 1.1),
                               rtol=1e-13, atol=1e-13)


def test_summation_by_parts_duality(mesh88):
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = rng.normal(size=mesh88.n_cells)
        phi = rng.normal(size=(mesh88.n_cells, 2))
        lhs = mesh88.cell_volume * (q * cell_divergence(mesh88, phi)).sum()
        rhs = -mesh88.cell_volume * (cell_gradient(mesh88, q) * phi).sum()
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_face_sum_telescoping(mesh88):
    rng = np.random.default_rng(29)
    value = rng.normal(size=mesh88.n_faces)
    total = mesh88.cell_volume * flux_divergence(mesh88, value).sum()
    scale = mesh88.hx * np.abs(value).sum()  # sum of |face| |value|
    assert abs(total) <= 1e-12 * scale


def test_scatter_to_cells_matches_face_loop_vector_and_dtype():
    mesh = build_mesh(5, 3, 1.0, 0.9)
    rng = np.random.default_rng(31)
    to_k = rng.normal(size=(mesh.n_faces, 2))
    to_l = rng.normal(size=(mesh.n_faces, 2))
    out = scatter_to_cells(mesh, to_k, to_l)
    assert out.shape == (mesh.n_cells, 2)
    expected = np.zeros((mesh.n_cells, 2))
    weight = np.repeat([1.0 / mesh.hx, 1.0 / mesh.hy], mesh.n_cells)
    for f, (k, l, w) in enumerate(zip(*face_cells(mesh), weight)):
        expected[k] += w * to_k[f]
        expected[l] += w * to_l[f]
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14)
    ld = np.longdouble
    out_ld = scatter_to_cells(mesh, to_k.astype(ld), to_l.astype(ld))
    assert out_ld.dtype == ld
    np.testing.assert_allclose(flux_divergence(mesh, to_k),
                               scatter_to_cells(mesh, to_k, -to_k), rtol=0, atol=0)


def random_state_smoke(mesh44):
    rho, u = random_positive_state(mesh44, np.random.default_rng(0))
    assert rho.min() > 0.0 and u.shape == (16, 2)

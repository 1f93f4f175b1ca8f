"""Mesh construction and discrete operator tests."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from machfv import (build_mesh, cell_divergence, cell_gradient, face_average,
                    face_average_normal, face_gradient_normal, face_jump,
                    flux_divergence, gather_to_faces, scatter_to_cells)
from machfv.mesh import StructuredMesh, face_weight, mean_flux_divergence_inverse

from conftest import random_positive_state
from csr_oracle import flux_divergence_matrix
from oracles import loop_cell_divergence, loop_cell_gradient


def test_build_mesh_counts_and_sizes():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    assert mesh.n_cells == 16
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


def test_mesh_numbers_cannot_contradict_each_other():
    # the spacings, volume and boundary measure follow from nx, ny, lx, ly
    assert replace(build_mesh(8, 8), nx=16) == build_mesh(16, 8)
    assert replace(build_mesh(8, 8), nx=16).hx == 0.0625
    with pytest.raises(TypeError):
        StructuredMesh(2, 2, 1.0, 1.0, 0.5, 0.5, 0.25, 2.0)
    with pytest.raises(ValueError):
        StructuredMesh(2, 2, 1.0, 1.0)
    for args in [(8.5, 8), (8, 8.0), (True, 8), (8, 8, float("nan")),
                 (8, 8, float("inf")), (8, 8, 1.0, -float("inf"))]:
        with pytest.raises(ValueError):
            build_mesh(*args)
    with pytest.raises(ValueError):
        replace(build_mesh(8, 8), ly=float("nan"))


def face_cells(mesh):
    """(K, L) cell indices of every face, as (2, n_cells) face arrays, from
    the documented convention."""
    n = mesh.n_cells
    i, j = np.arange(n) % mesh.nx, np.arange(n) // mesh.nx
    right = (i + 1) % mesh.nx + mesh.nx * j
    up = i + mesh.nx * ((j + 1) % mesh.ny)
    return np.stack([np.arange(n), np.arange(n)]), np.stack([right, up])


@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 3)])
def test_gather_puts_every_cell_on_four_faces_and_each_pair_once(nx, ny):
    mesh = build_mesh(nx, ny, 1.0, 1.0)
    cells = np.arange(mesh.n_cells)
    k, l = gather_to_faces(mesh, cells)
    assert k is cells  # every face's K side is its own cell: no copy
    assert l.shape == (2, mesh.n_cells)
    k = np.broadcast_to(k, l.shape)
    counts = (np.bincount(k.ravel(), minlength=mesh.n_cells)
              + np.bincount(l.ravel(), minlength=mesh.n_cells))
    assert (counts == 4).all()
    assert (k != l).all()
    # each (K, L) unordered pair appears exactly once
    pairs = {tuple(sorted(p)) for p in zip(k.ravel().tolist(), l.ravel().tolist())}
    assert len(pairs) == 2 * mesh.n_cells
    expected_k, expected_l = face_cells(mesh)
    np.testing.assert_array_equal(k, expected_k)
    np.testing.assert_array_equal(l, expected_l)


def test_gather_vector_field_and_dtype(mesh44):
    u = np.random.default_rng(7).normal(size=(mesh44.n_cells, 2)).astype(np.longdouble)
    u_k, u_l = gather_to_faces(mesh44, u)
    k, l = face_cells(mesh44)
    assert u_k.dtype == u_l.dtype == np.longdouble
    np.testing.assert_array_equal(np.broadcast_to(u_k, u_l.shape), u[k])
    np.testing.assert_array_equal(u_l, u[l])


def test_face_weight_is_inverse_center_distance():
    # |face| / |D| with |D| = |face| times the distance between the centres
    mesh = build_mesh(4, 3, 1.0, 0.9)
    dist = np.array([mesh.hx, mesh.hy])
    np.testing.assert_allclose(np.multiply(face_weight(mesh), dist), 1.0, rtol=1e-15)


def test_total_volume_matches_domain():
    mesh = build_mesh(5, 7, 1.3, 0.7)
    assert mesh.n_cells * mesh.cell_volume == pytest.approx(1.3 * 0.7, rel=1e-14)


def test_face_average_and_jump_values(mesh44):
    q = np.zeros(mesh44.n_cells)
    f = 0, 0  # first x-face: joins cell 0 to its right neighbour, cell 1
    q[0] = 1.0
    q[1] = 3.0
    assert face_average(mesh44, q)[f] == pytest.approx(2.0)
    assert face_jump(mesh44, q)[f] == pytest.approx(2.0)

    const = np.full(mesh44.n_cells, 4.2)
    np.testing.assert_array_equal(face_average(mesh44, const), np.full((2, 16), 4.2))
    np.testing.assert_array_equal(face_jump(mesh44, const), np.zeros((2, 16)))


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
    f = 0, 0  # first x-face: K = cell 0, L = cell 1
    q[1] = 2.0
    q[0] = 1.0
    assert face_gradient_normal(mesh, q)[f] == pytest.approx(2.0)  # [[q]] / hx


def test_face_gradient_linearity(mesh44):
    rng = np.random.default_rng(5)
    q1 = rng.normal(size=mesh44.n_cells)
    q2 = rng.normal(size=mesh44.n_cells)
    lhs = face_gradient_normal(mesh44, 2.0 * q1 - 3.0 * q2)
    rhs = 2.0 * face_gradient_normal(mesh44, q1) - 3.0 * face_gradient_normal(mesh44, q2)
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
    value = rng.normal(size=(2, mesh88.n_cells))
    total = mesh88.cell_volume * flux_divergence(mesh88, value).sum()
    scale = mesh88.hx * np.abs(value).sum()  # sum of |face| |value|
    assert abs(total) <= 1e-12 * scale


def test_scatter_to_cells_matches_face_loop_vector_and_dtype():
    mesh = build_mesh(5, 3, 1.0, 0.9)
    rng = np.random.default_rng(31)
    to_k = rng.normal(size=(2, mesh.n_cells, 2))
    to_l = rng.normal(size=(2, mesh.n_cells, 2))
    out = scatter_to_cells(mesh, to_k, to_l)
    assert out.shape == (mesh.n_cells, 2)
    expected = np.zeros((mesh.n_cells, 2))
    weight = (1.0 / mesh.hx, 1.0 / mesh.hy)  # per block
    k, l = face_cells(mesh)
    for f in np.ndindex(k.shape):
        expected[k[f]] += weight[f[0]] * to_k[f]
        expected[l[f]] += weight[f[0]] * to_l[f]
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14)
    ld = np.longdouble
    out_ld = scatter_to_cells(mesh, to_k.astype(ld), to_l.astype(ld))
    assert out_ld.dtype == ld
    np.testing.assert_allclose(flux_divergence(mesh, to_k),
                               scatter_to_cells(mesh, to_k, -to_k), rtol=0, atol=0)


def random_state_smoke(mesh44):
    rho, u = random_positive_state(mesh44, np.random.default_rng(0))
    assert rho.min() > 0.0 and u.shape == (16, 2)


@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 3), (6, 7)])
def test_mean_flux_divergence_inverse_is_exact_for_constant_coefficients(nx, ny):
    # one coefficient pair per direction makes I/dt + div a circulant operator
    mesh = build_mesh(nx, ny, 1.0, 0.8)
    n = mesh.n_cells
    dt = 0.01
    coef_k = np.repeat([[2.0], [3.5]], n, axis=1)
    coef_l = np.repeat([[-1.5], [-0.25]], n, axis=1)
    matrix = flux_divergence_matrix(mesh, coef_k, coef_l) + sp.identity(n) / dt
    inverse = mean_flux_divergence_inverse(mesh, coef_k, coef_l, 1.0 / dt)
    q = np.random.default_rng(59).normal(size=n)
    np.testing.assert_allclose(inverse(matrix @ q), q, rtol=0.0, atol=1e-12)


# Roll/concatenate forms of the operators, as the slice-based ones were
# written before; the slice forms must agree with them bit for bit.
def ref_grid(mesh, q):
    return q.reshape((mesh.ny, mesh.nx) + q.shape[1:])


def ref_gather(mesh, q):
    right = np.roll(ref_grid(mesh, q), -1, axis=1).reshape(q.shape)
    up = np.roll(ref_grid(mesh, q), -1, axis=0).reshape(q.shape)
    return q, np.stack([right, up])


def ref_scatter(mesh, value_k, value_l):
    wx = mesh.hy / mesh.cell_volume
    wy = mesh.hx / mesh.cell_volume
    shape = value_l[0].shape
    from_left = np.roll(ref_grid(mesh, wx * value_l[0]), 1, axis=1).reshape(shape)
    from_below = np.roll(ref_grid(mesh, wy * value_l[1]), 1, axis=0).reshape(shape)
    return wx * value_k[0] + wy * value_k[1] + from_left + from_below


def ref_flux_divergence(mesh, flux):
    return ref_scatter(mesh, flux, -flux)


def ref_face_average(mesh, q):
    q_k, q_l = ref_gather(mesh, q)
    return 0.5 * (q_k + q_l)


def ref_face_average_normal(mesh, u):
    avg = ref_face_average(mesh, u)
    return np.stack([avg[0, :, 0], avg[1, :, 1]])


def ref_face_jump(mesh, q):
    q_k, q_l = ref_gather(mesh, q)
    return q_l - q_k


def ref_face_gradient_normal(mesh, q):
    weight = np.array([[mesh.hy / mesh.cell_volume], [mesh.hx / mesh.cell_volume]])
    return weight * ref_face_jump(mesh, q)


def ref_cell_gradient(mesh, q):
    along_normal = np.eye(2)[:, None]
    return ref_flux_divergence(mesh, ref_face_average(mesh, q)[..., None] * along_normal)


def ref_cell_divergence(mesh, phi):
    return ref_flux_divergence(mesh, ref_face_average_normal(mesh, phi))


def gather_l_side(mesh, q):
    """The L side of gather_to_faces, once its K side is checked to be q itself."""
    q_k, q_l = gather_to_faces(mesh, q)
    assert q_k is q
    return q_l


def ref_gather_l_side(mesh, q):
    return ref_gather(mesh, q)[1]


def assert_exact_and_inputs_untouched(fn, ref_fn, mesh, *inputs):
    copies = [a.copy() for a in inputs]
    outs, refs = fn(mesh, *inputs), ref_fn(mesh, *copies)
    if isinstance(refs, np.ndarray):
        outs, refs = (outs,), (refs,)
    for o, r in zip(outs, refs, strict=True):
        assert o.dtype == r.dtype and o.shape == r.shape
        assert np.array_equal(o, r)
        assert not any(np.shares_memory(o, a) for a in inputs)
    for a, c in zip(inputs, copies):
        assert np.array_equal(a, c)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 3), (4, 7)])
def test_slice_operators_match_roll_forms_exactly(nx, ny, dtype):
    mesh = build_mesh(nx, ny, 1.3, 0.7)
    rng = np.random.default_rng(nx * 10 + ny)
    n = mesh.n_cells
    for tail in ((), (2,)):
        cells = rng.normal(size=(n,) + tail).astype(dtype)
        faces_k = rng.normal(size=(2, n) + tail).astype(dtype)
        faces_l = rng.normal(size=(2, n) + tail).astype(dtype)
        assert_exact_and_inputs_untouched(gather_l_side, ref_gather_l_side, mesh, cells)
        assert_exact_and_inputs_untouched(scatter_to_cells, ref_scatter, mesh,
                                          faces_k, faces_l)
        assert_exact_and_inputs_untouched(flux_divergence, ref_flux_divergence,
                                          mesh, faces_k)
        assert_exact_and_inputs_untouched(face_average, ref_face_average, mesh, cells)
        assert_exact_and_inputs_untouched(face_jump, ref_face_jump, mesh, cells)
    q = rng.normal(size=n).astype(dtype)
    u = rng.normal(size=(n, 2)).astype(dtype)
    assert_exact_and_inputs_untouched(cell_gradient, ref_cell_gradient, mesh, q)
    assert_exact_and_inputs_untouched(face_gradient_normal, ref_face_gradient_normal,
                                      mesh, q)
    assert_exact_and_inputs_untouched(face_average_normal, ref_face_average_normal,
                                      mesh, u)
    assert_exact_and_inputs_untouched(cell_divergence, ref_cell_divergence, mesh, u)

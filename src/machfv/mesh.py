"""Periodic uniform Cartesian meshes and the discrete operators living on them.

Cells are indexed row-major, ``cell = i + nx * j``.  Interior faces come in
two contiguous blocks: the ``nx * ny`` x-normal faces first, then the
``nx * ny`` y-normal faces.  Face ``i + nx * j`` of the x-block joins cell
(i, j) to its right neighbour ((i + 1) % nx, j); the y-block face joins
(i, j) to (i, (j + 1) % ny).  The unit normal always points from the first
cell (K) to the second (L), i.e. along +x or +y, and every per-face
quantity below is reported with that K-side orientation.  The jump
convention is ``jump(q) = q_L - q_K``.

On a periodic uniform mesh every face is interior, every cell touches
exactly four faces, the dual volume attached to a face equals the cell
volume (|face| times the distance between the two adjacent centres), so
the face weight |face| / |K| = |face| / |D| is 1/hx on x-faces and 1/hy on
y-faces, and the cell boundary measure is 2 * (hx + hy).

Only this module knows the layout and the weight: ``gather_to_faces``
returns each face's K-side and L-side cell values, ``scatter_to_cells`` adds
weighted face values into their K and L cells, and the operators use them.
"""

from dataclasses import dataclass

import numpy as np

# Tensorised 3-point Gauss rule on [-1/2, 1/2], weights normalised to sum 1.
_GAUSS3_NODES = np.array([-0.5 * np.sqrt(3.0 / 5.0), 0.0, 0.5 * np.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(frozen=True)
class StructuredMesh:
    """Periodic uniform Cartesian mesh on [0, lx) x [0, ly)."""

    nx: int
    ny: int
    lx: float
    ly: float
    hx: float
    hy: float
    cell_volume: float
    boundary_measure: float

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_faces(self) -> int:
        return 2 * self.n_cells

    def cell_centers(self):
        """Flat (row-major) arrays of the cell centre coordinates."""
        xc = (np.arange(self.nx) + 0.5) * self.hx
        yc = (np.arange(self.ny) + 0.5) * self.hy
        xg, yg = np.meshgrid(xc, yc)
        return xg.ravel(), yg.ravel()


def build_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> StructuredMesh:
    """Build a periodic uniform mesh with nx x ny cells.

    Both directions need at least 3 cells so that the two faces of a cell in
    one direction are distinct faces of distinct neighbours.
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"mesh needs nx >= 3 and ny >= 3, got {nx} x {ny}")
    if lx <= 0.0 or ly <= 0.0:
        raise ValueError(f"domain lengths must be positive, got lx={lx}, ly={ly}")
    hx = lx / nx
    hy = ly / ny
    return StructuredMesh(nx=nx, ny=ny, lx=lx, ly=ly, hx=hx, hy=hy,
                          cell_volume=hx * hy,
                          boundary_measure=2.0 * (hx + hy))


def project(mesh: StructuredMesh, f, rule: str = "midpoint") -> np.ndarray:
    """Project a function f(x, y) onto piecewise constants.

    ``rule="midpoint"`` evaluates at cell centres; ``rule="gauss3"`` uses the
    tensorised 3-point Gauss rule (exact for polynomials up to degree 5).
    ``f`` must accept numpy arrays.
    """
    xg, yg = mesh.cell_centers()
    if rule == "midpoint":
        return np.asarray(f(xg, yg), dtype=float)
    if rule == "gauss3":
        out = np.zeros(mesh.n_cells)
        for a, wa in zip(_GAUSS3_NODES, _GAUSS3_WEIGHTS):
            for b, wb in zip(_GAUSS3_NODES, _GAUSS3_WEIGHTS):
                out += wa * wb * np.asarray(f(xg + a * mesh.hx, yg + b * mesh.hy), dtype=float)
        return out
    raise ValueError(f"unknown quadrature rule {rule!r}")


def cell_grid(mesh: StructuredMesh, q) -> np.ndarray:
    """A row-major cell array of shape (n_cells, ...) viewed as (ny, nx, ...)."""
    q = np.asarray(q)
    return q.reshape((mesh.ny, mesh.nx) + q.shape[1:])


def face_weight(mesh: StructuredMesh) -> np.ndarray:
    """|face| / |K| on every face: 1/hx on the x-block, 1/hy on the y-block."""
    return np.repeat([mesh.hy / mesh.cell_volume, mesh.hx / mesh.cell_volume],
                     mesh.n_cells)


def gather_to_faces(mesh: StructuredMesh, q):
    """K-side and L-side values (q_K, q_L) of a cell array on every face.

    Accepts shape (n_cells,) or (n_cells, m) and preserves the dtype.
    """
    q = np.asarray(q)
    grid = cell_grid(mesh, q)
    right = np.roll(grid, -1, axis=1).reshape(q.shape)
    up = np.roll(grid, -1, axis=0).reshape(q.shape)
    return np.concatenate([q, q]), np.concatenate([right, up])


def scatter_to_cells(mesh: StructuredMesh, value_k, value_l) -> np.ndarray:
    """Per-cell sum of (|face| / |K|) times face values over the cell's faces.

    Each face adds ``value_k`` to its K cell and ``value_l`` to its L cell.
    Accepts shape (n_faces,) or (n_faces, m), preserves the dtype and sums
    in a fixed order, so results are deterministic.
    """
    n = mesh.n_cells
    wx = mesh.hy / mesh.cell_volume
    wy = mesh.hx / mesh.cell_volume
    shape = np.shape(value_l[:n])
    from_left = np.roll(cell_grid(mesh, wx * value_l[:n]), 1, axis=1).reshape(shape)
    from_below = np.roll(cell_grid(mesh, wy * value_l[n:]), 1, axis=0).reshape(shape)
    return wx * value_k[:n] + wy * value_k[n:] + from_left + from_below


def flux_divergence(mesh: StructuredMesh, flux) -> np.ndarray:
    """(1/|K|) sum over the faces of K of |face| F, for a K-side face flux F.

    The L cell sees -F, so the cell sums telescope to zero.
    """
    return scatter_to_cells(mesh, flux, -flux)


def flux_divergence_matrix(mesh: StructuredMesh, coef_k, coef_l):
    """Sparse CSR matrix of q -> flux_divergence(coef_k q_K + coef_l q_L).

    Five entries per row: the diagonal and the four neighbours.  Serves as
    the assembled oracle of the matrix-free operators, so scipy is imported
    here rather than with the module.
    """
    import scipy.sparse as sp

    k, l = gather_to_faces(mesh, np.arange(mesh.n_cells))
    w = face_weight(mesh)
    rows = np.concatenate([k, k, l, l])
    cols = np.concatenate([k, l, k, l])
    vals = np.concatenate([w * coef_k, w * coef_l, -w * coef_k, -w * coef_l])
    return sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_cells,) * 2).tocsr()


def mean_flux_divergence_inverse(mesh: StructuredMesh, coef_k, coef_l, shift: float):
    """Inverse of q -> shift q + flux_divergence(a_k q_K + a_l q_L) by FFT.

    a_k and a_l are the means of coef_k and coef_l over the x-block and over
    the y-block.  With one coefficient pair per direction the operator is
    circulant on the periodic grid, so rfft2 diagonalises it: a face flux
    enters its K cell with q_K = q and q_L = the next cell, and leaves its L
    cell with q_K = the previous cell and q_L = q.  Returns a function of a
    flat cell array; it is the exact inverse when coef_k and coef_l are
    constant on each block, and a preconditioner otherwise.  The symbol must
    not vanish, e.g. shift > 0 with coef_k >= 0 >= coef_l.
    """
    n = mesh.n_cells
    next_x = np.exp(2j * np.pi * np.fft.rfftfreq(mesh.nx))
    next_y = np.exp(2j * np.pi * np.fft.fftfreq(mesh.ny))[:, None]
    symbol = shift
    for weight, nxt, a_k, a_l in (
            (mesh.hy / mesh.cell_volume, next_x, coef_k[:n].mean(), coef_l[:n].mean()),
            (mesh.hx / mesh.cell_volume, next_y, coef_k[n:].mean(), coef_l[n:].mean())):
        symbol = symbol + weight * (a_k + a_l * nxt - a_k * nxt.conj() - a_l)

    def solve(r):
        spectrum = np.fft.rfft2(cell_grid(mesh, r)) / symbol
        return np.fft.irfft2(spectrum, s=(mesh.ny, mesh.nx)).ravel()

    return solve


def face_average(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Arithmetic face average {{q}} = (q_K + q_L) / 2; works per component."""
    q_k, q_l = gather_to_faces(mesh, q)
    return 0.5 * (q_k + q_l)


def face_jump(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Face jump [[q]] = q_L - q_K in the stored (K, L) orientation."""
    q_k, q_l = gather_to_faces(mesh, q)
    return q_l - q_k


def face_average_normal(mesh: StructuredMesh, u: np.ndarray) -> np.ndarray:
    """Normal component of the face average of a cell vector field u (n, 2)."""
    avg = face_average(mesh, u)
    return np.concatenate([avg[:mesh.n_cells, 0], avg[mesh.n_cells:, 1]])


def _along_normal(mesh: StructuredMesh, normal: np.ndarray) -> np.ndarray:
    """Per-face vectors normal * n_face (n_face = +x, then +y)."""
    return normal[:, None] * np.repeat(np.eye(2), mesh.n_cells, axis=0)


def cell_gradient(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Cell-centred gradient from face averages, shape (n_cells, 2).

    (grad q)_K = sum over faces of K of (|face| / |K|) {{q}} n_K.  On a
    uniform mesh this reduces to the central difference of the two
    neighbours in each direction.
    """
    avg_n = _along_normal(mesh, face_average(mesh, q))
    return flux_divergence(mesh, avg_n)


def face_gradient_normal(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Normal component of the face (dual-cell) gradient: (|face|/|D|) [[q]]."""
    return face_weight(mesh) * face_jump(mesh, q)


def face_gradient(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Face gradient as a per-face vector in the stored orientation."""
    return _along_normal(mesh, face_gradient_normal(mesh, q))


def cell_divergence(mesh: StructuredMesh, phi: np.ndarray) -> np.ndarray:
    """Discrete divergence of a cell vector field phi (n_cells, 2).

    (div phi)_K = sum over faces of K of (|face| / |K|) {{phi}} . n_K.
    Dual to -cell_gradient under the cell-volume inner product.
    """
    return flux_divergence(mesh, face_average_normal(mesh, phi))

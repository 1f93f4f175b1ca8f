"""Periodic uniform Cartesian meshes and the discrete operators living on them.

Cells are indexed row-major, ``cell = i + nx * j``, so a cell array of shape
(n_cells, ...) is a free (ny, nx, ...) view.  A face array has shape
(2, n_cells, ...): the x-normal faces, then the y-normal ones, each block in
cell order, so it is a free (2, ny, nx, ...) view.  Face (i, j) of the
x-block joins cell (i, j), its K side, to ((i + 1) % nx, j), its L side; the
y-block face joins (i, j) to (i, (j + 1) % ny).  So a K side is the cell
array itself, which broadcasts against face arrays: it is the caller's
array, never to be written into.  The unit normal points from K to L, and
every per-face quantity is reported with that K-side orientation; the jump
is ``q_L - q_K``.  Every face is interior and its dual volume equals the
cell volume, so the face weight |face| / |K| = |face| / |D| is 1/hx on the
x-block and 1/hy on the y-block; the cell boundary measure is 2 (hx + hy).
A cell field of a function of (x, y) is its value at ``cell_centers()``, the
midpoint rule.

Only this module knows the layout and the weight.  Its operators are slice
arithmetic on these views, in a fixed summation order: an L side is the grid
shifted by one cell, and cells collect their neighbours' faces by in-place
ops on shifted slices.  A y shift is two slices split at the wrap-around row.
An x shift is one contiguous pass over the flat array, pairing each cell
with the next one in memory, and then a fix of the wrap-around column; each
element has the same operands as in the column-sliced form, bit for bit.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StructuredMesh:
    """Periodic uniform Cartesian mesh on [0, lx) x [0, ly); the spacings, cell
    volume and boundary measure follow from nx, ny, lx and ly."""

    nx: int
    ny: int
    lx: float
    ly: float
    hx: float = field(init=False)
    hy: float = field(init=False)
    cell_volume: float = field(init=False)
    boundary_measure: float = field(init=False)

    def __post_init__(self):
        # 3 cells a direction make a cell's two faces in it distinct faces
        # of distinct neighbours; a bool is an Integral below 3.
        if not all(isinstance(n, numbers.Integral) and n >= 3 for n in (self.nx, self.ny)):
            raise ValueError(f"mesh needs integer nx >= 3 and ny >= 3, "
                             f"got {self.nx!r} x {self.ny!r}")
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise ValueError(f"domain lengths must be positive and finite, "
                             f"got lx={self.lx!r}, ly={self.ly!r}")
        hx, hy = self.lx / self.nx, self.ly / self.ny
        for name, value in (("hx", hx), ("hy", hy), ("cell_volume", hx * hy),
                            ("boundary_measure", 2.0 * (hx + hy))):
            object.__setattr__(self, name, value)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_centers(self):
        """Flat (row-major) arrays of the cell centre coordinates."""
        xc = (np.arange(self.nx) + 0.5) * self.hx
        yc = (np.arange(self.ny) + 0.5) * self.hy
        xg, yg = np.meshgrid(xc, yc)
        return xg.ravel(), yg.ravel()


def build_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> StructuredMesh:
    """Build a periodic uniform mesh with nx x ny cells on [0, lx) x [0, ly)."""
    return StructuredMesh(nx, ny, lx, ly)


def cell_grid(mesh: StructuredMesh, q) -> np.ndarray:
    """A row-major cell array of shape (n_cells, ...) viewed as (ny, nx, ...)."""
    q = np.asarray(q)
    return q.reshape((mesh.ny, mesh.nx) + q.shape[1:])


def face_weight(mesh: StructuredMesh):
    """|face| / |K| as the pair (x-block, y-block), i.e. (1/hx, 1/hy)."""
    return mesh.hy / mesh.cell_volume, mesh.hx / mesh.cell_volume


def _face_values(mesh: StructuredMesh, q, op=None, normal: bool = False):
    """Face array of op(q_L, q_K), or of q_L when op is None, from slices.

    normal=True takes a vector field's x component on the x-block and its y
    component on the y-block.  The x-block is one pass over the flat grid,
    with each cell's next one in memory as its L side; the wrap-around
    column, whose next cell in memory starts the next row, is then refilled.
    """
    grid = cell_grid(mesh, q)
    x_grid, y_grid = (grid[..., 0], grid[..., 1]) if normal else (grid, grid)
    out = np.empty((2,) + x_grid.shape, dtype=grid.dtype)
    x_flat = x_grid.reshape((-1,) + x_grid.shape[2:])
    for dst, q_l, q_k in ((out[0].reshape(x_flat.shape)[:-1], x_flat[1:], x_flat[:-1]),
                          (out[0, :, -1:], x_grid[:, :1], x_grid[:, -1:]),
                          (out[1, :-1], y_grid[1:], y_grid[:-1]),
                          (out[1, -1:], y_grid[:1], y_grid[-1:])):
        if op is None:
            dst[...] = q_l
        else:
            op(q_l, q_k, out=dst)
    return out.reshape((2, -1) + x_grid.shape[2:])


def _weighted_blocks(mesh: StructuredMesh, f):
    """(f_x / hx, f_y / hy): a face array's blocks times their weight, as grids."""
    blocks = np.reshape(f, (2, mesh.ny, mesh.nx) + np.shape(f)[2:])
    return tuple(weight * block for weight, block in zip(face_weight(mesh), blocks))


def _cell_sums(k_x, k_y, l_x, l_y, op) -> np.ndarray:
    """Flat cell array of (k_x + k_y) op l_x(left neighbour) op l_y(lower one).

    All four are (ny, nx, ...) grids of weighted face values: k_* from the
    faces where the cell is K, l_* from those where its neighbour is K.  The
    x term is one pass over the flat grid, taking each cell's previous one in
    memory as its left neighbour; the wrap-around column, whose previous cell
    in memory ends the row above, is then recomputed from k_x + k_y.
    """
    out = k_x + k_y
    flat = out.reshape((-1,) + out.shape[2:])
    op(flat[1:], l_x.reshape(flat.shape)[:-1], out=flat[1:])
    np.add(k_x[:, :1], k_y[:, :1], out=out[:, :1])
    op(out[:, :1], l_x[:, -1:], out=out[:, :1])
    op(out[1:], l_y[:-1], out=out[1:])
    op(out[:1], l_y[-1:], out=out[:1])
    return flat


def gather_to_faces(mesh: StructuredMesh, q):
    """K-side and L-side values (q_K, q_L) of a cell array on every face.

    Accepts shape (n_cells,) or (n_cells, m) and preserves the dtype.  The
    K side is ``q`` itself, which broadcasts against face arrays; the L side
    is a new (2, n_cells[, m]) face array filled from slices.
    """
    return q, _face_values(mesh, q)


def scatter_to_cells(mesh: StructuredMesh, value_k, value_l) -> np.ndarray:
    """Per-cell sum of (|face| / |K|) times face values over the cell's faces.

    Each face adds ``value_k`` to its K cell and ``value_l`` to its L cell.
    Accepts shape (2, n_cells) or (2, n_cells, m), preserves the dtype and sums
    in a fixed order, so results are deterministic.
    """
    return _cell_sums(*_weighted_blocks(mesh, value_k),
                      *_weighted_blocks(mesh, value_l), np.add)


def flux_divergence(mesh: StructuredMesh, flux) -> np.ndarray:
    """(1/|K|) sum over the faces of K of |face| F, for a K-side face flux F.

    The L cell sees -F, so the cell sums telescope to zero.  Equal, bit for
    bit, to scatter_to_cells(mesh, F, -F), without negating F.
    """
    tx, ty = _weighted_blocks(mesh, flux)
    return _cell_sums(tx, ty, tx, ty, np.subtract)


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
    next_x = np.exp(2j * np.pi * np.fft.rfftfreq(mesh.nx))
    next_y = np.exp(2j * np.pi * np.fft.fftfreq(mesh.ny))[:, None]
    symbol = shift
    for weight, nxt, block_k, block_l in zip(face_weight(mesh), (next_x, next_y),
                                             coef_k, coef_l):
        a_k, a_l = block_k.mean(), block_l.mean()
        symbol = symbol + weight * (a_k + a_l * nxt - a_k * nxt.conj() - a_l)

    def solve(r):
        spectrum = np.fft.rfft2(cell_grid(mesh, r)) / symbol
        return np.fft.irfft2(spectrum, s=(mesh.ny, mesh.nx)).ravel()

    return solve


def face_average(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Arithmetic face average {{q}} = (q_K + q_L) / 2; works per component."""
    return 0.5 * _face_values(mesh, q, np.add)


def face_jump(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Face jump [[q]] = q_L - q_K in the stored (K, L) orientation."""
    return _face_values(mesh, q, np.subtract)


def face_average_normal(mesh: StructuredMesh, u: np.ndarray) -> np.ndarray:
    """Normal component of the face average of a cell vector field u (n, 2).

    Only u_x enters the x-block and only u_y the y-block.
    """
    return 0.5 * _face_values(mesh, u, np.add, normal=True)


def cell_gradient(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Cell-centred gradient from face averages, shape (n_cells, 2).

    (grad q)_K = sum over faces of K of (|face| / |K|) {{q}} n_K.  On a
    uniform mesh this reduces to the central difference of the two
    neighbours in each direction.
    """
    tx, ty = _weighted_blocks(mesh, face_average(mesh, q))
    grad = np.empty(tx.shape + (2,), dtype=tx.dtype)
    x_flat = tx.reshape(-1)
    np.subtract(x_flat[1:], x_flat[:-1], out=grad.reshape(-1, 2)[1:, 0])
    np.subtract(tx[:, :1], tx[:, -1:], out=grad[:, :1, 0])
    np.subtract(ty[1:], ty[:-1], out=grad[1:, :, 1])
    np.subtract(ty[:1], ty[-1:], out=grad[:1, :, 1])
    return grad.reshape(-1, 2)


def face_gradient_normal(mesh: StructuredMesh, q: np.ndarray) -> np.ndarray:
    """Normal component of the face (dual-cell) gradient: (|face|/|D|) [[q]]."""
    grad = face_jump(mesh, q)
    for block, weight in zip(grad, face_weight(mesh)):
        block *= weight
    return grad


def cell_divergence(mesh: StructuredMesh, phi: np.ndarray) -> np.ndarray:
    """Discrete divergence of a cell vector field phi (n_cells, 2).

    (div phi)_K = sum over faces of K of (|face| / |K|) {{phi}} . n_K.
    Dual to -cell_gradient under the cell-volume inner product.
    """
    return flux_divergence(mesh, face_average_normal(mesh, phi))

"""Assembled scipy CSR forms of the operators the solver applies matrix-free.

The density solve applies its Newton operator q -> q/dt + div(d_K q_K +
d_L q_L) without forming a matrix; these are the same operators assembled
entry by entry, the independent reference the tests check the solver and
its preconditioner against.
"""

import numpy as np
import scipy.sparse as sp

from machfv.flux import density_faces, mass_flux_derivative
from machfv.mesh import (StructuredMesh, face_average_normal, face_weight,
                         gather_to_faces)
from machfv.stepper import SchemeParams, State, _residual_and_fluxes


def flux_divergence_matrix(mesh: StructuredMesh, coef_k, coef_l):
    """Sparse CSR matrix of q -> flux_divergence(coef_k q_K + coef_l q_L).

    Five entries per row: the diagonal and the four neighbours.
    """
    k, l, w, coef_k, coef_l = (a.ravel() for a in np.broadcast_arrays(
        *gather_to_faces(mesh, np.arange(mesh.n_cells)),
        np.array(face_weight(mesh))[:, None], coef_k, coef_l))
    rows = np.concatenate([k, k, l, l])
    cols = np.concatenate([k, l, k, l])
    vals = np.concatenate([w * coef_k, w * coef_l, -w * coef_k, -w * coef_l])
    return sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_cells,) * 2).tocsr()


def density_jacobian(mesh: StructuredMesh, rho_next: np.ndarray, state: State,
                     dt: float, params: SchemeParams, eta: float):
    """Analytic semi-smooth Jacobian of stepper.density_residual (sparse CSR)."""
    gas = params.gas()
    fluxes = _residual_and_fluxes(mesh, rho_next, density_faces(mesh, gas, rho_next),
                                  state.rho, face_average_normal(mesh, state.u), dt,
                                  eta, params.eps)[1]
    d_dk, d_dl = mass_flux_derivative(mesh, gas, rho_next, fluxes, dt, eta, params.eps)
    return (flux_divergence_matrix(mesh, d_dk, d_dl)
            + sp.identity(mesh.n_cells, format="csr") / dt)

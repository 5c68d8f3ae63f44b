"""Eigenvalues of symmetric matrices and the scaled-Laplacian spectrum.

The density matrix of a graph with at least one edge is rho(G) = L(G) / d_G
where d_G = 2m = tr L(G). Its spectrum is a probability distribution: the
eigenvalues are nonnegative, sum to 1, and at least one is 0 (the all-ones
kernel of L). Floating point only approximates that, so this module owns the
tolerance policy: eigenvalues within ``DEFAULT_TOL`` of 0 are snapped to
exactly 0, and anything below ``-DEFAULT_TOL`` is treated as a hard error
rather than noise.

Where each check runs: ``eigenvalues_symmetric`` checks an arbitrary float
matrix (square, finite Frobenius norm, symmetric within ``DEFAULT_TOL``
times the norm, eigenvalue sum equal to the trace). ``density_spectrum``
runs the same checks in their exact form on the int64 Laplacian and calls
the LAPACK gufunc under ``np.linalg.eigvalsh`` directly, so its trace check
also catches the NaN a failed solve returns. ``density_spectra`` runs the
row range, loops, symmetry and the trace once per stacked block. Both solves
check the eigenvalue sum against d_G within n*DEFAULT_TOL*sqrt(sum d_i^2 + d_G),
the Frobenius norm of L from the integer degrees.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .graphs import Graph, _row_bits, laplacian

DEFAULT_TOL = 1e-12
_eigvalsh = _umath_linalg.eigvalsh_lo  # the gufunc under np.linalg.eigvalsh, without its wrapper


def eigenvalues_symmetric(mat) -> list[float]:
    """Eigenvalues of a symmetric matrix, descending.

    Rejects non-square input, an infinite Frobenius norm ``sqrt(flat @ flat)``,
    and asymmetry beyond ``DEFAULT_TOL`` times that norm, NaN included; a
    defensive trace check guards against a silently wrong decomposition.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have at least one row")
    flat = a.ravel()
    scale = max(1.0, math.sqrt(flat @ flat))
    if scale == math.inf:
        raise ValueError("matrix has an infinite Frobenius norm")
    if not np.abs(a - a.T).max() <= DEFAULT_TOL * scale:  # false for NaN too
        raise ValueError("matrix is not symmetric within tolerance")
    w = np.linalg.eigvalsh(a)  # ascending; raises LinAlgError on failure
    if abs(float(w.sum()) - float(a.trace())) > a.shape[0] * DEFAULT_TOL * scale:
        raise ArithmeticError("eigenvalue sum drifted from the trace")
    return w[::-1].tolist()


def density_spectrum(g: Graph) -> tuple[float, ...]:
    """Eigenvalues of rho(G) = L(G)/d_G, descending, cleaned to an exact
    distribution shape with ``DEFAULT_TOL``.

    The checks of ``eigenvalues_symmetric`` run in exact form: the Frobenius
    norm sqrt(sum d_i^2 + d_G) from the integer degrees must be finite, L
    must equal its transpose, and the eigenvalues must sum to d_G within
    n*DEFAULT_TOL times the norm. L is solved by ``_eigvalsh``, the gufunc
    that ``np.linalg.eigvalsh`` calls, without that wrapper's coercion and
    ``errstate``; the gufunc returns NaN where LAPACK did not converge, so a
    sum that is not finite raises ``LinAlgError`` as the wrapper would.
    The values are bit-identical to ``np.linalg.eigvalsh``'s.

    Raises for edgeless graphs, for eigenvalues below ``-DEFAULT_TOL`` (a
    solver bug, as L is positive semidefinite), and if the cleaned values
    fail to sum to 1 within n*DEFAULT_TOL or lost the kernel zero.
    """
    if g.m == 0:
        raise ValueError("density matrix undefined: graph has no edges")
    n, d = g.n, 2 * g.m
    scale = math.sqrt(sum([row.bit_count() ** 2 for row in g.adj]) + d)
    if scale == math.inf:
        raise ValueError("matrix has an infinite Frobenius norm")
    lap = laplacian(g)
    if lap.tobytes() != lap.T.tobytes():
        raise ValueError("Laplacian is not symmetric")
    w = _eigvalsh(lap, signature="d->d").tolist()  # ascending; NaN where LAPACK failed
    total = math.fsum(w)
    if not abs(total - d) <= n * DEFAULT_TOL * scale:  # false for NaN too
        if not math.isfinite(total):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        raise ArithmeticError("eigenvalue sum drifted from the trace")
    vals = []
    for x in reversed(w):
        y = x / d
        if y < -DEFAULT_TOL:
            raise ArithmeticError(f"negative eigenvalue {y} from a positive semidefinite matrix")
        vals.append(0.0 if abs(y) <= DEFAULT_TOL else y)
    if abs(math.fsum(vals) - 1.0) > n * DEFAULT_TOL:
        raise ArithmeticError("cleaned spectrum does not sum to 1")
    if vals[-1] != 0.0:
        raise ArithmeticError("kernel eigenvalue did not clean to exactly 0")
    return tuple(vals)


def density_spectra(rows: np.ndarray) -> np.ndarray:
    """Density spectra of many graphs of one order, with one stacked eigensolve.

    ``rows`` is a (B, n) array of adjacency bitmasks, one graph per row (a
    census block's ``rows``). Returns a (B, n) array whose row i equals
    ``density_spectrum`` of graph i, bit for bit, with the same tolerance
    policy, trace scale and errors. Rows that ``Graph`` would reject (a bit at
    a column >= n, a loop, an asymmetric pair) raise ValueError (``_row_bits``). The
    Laplacian's off-diagonal zeros must be +0.0: with -0.0 the stacked
    eigensolve drifts in the last bits.
    """
    n = rows.shape[1]
    bits = _row_bits(rows)
    lap = np.where(bits != 0, -1.0, 0.0)
    degrees = bits.sum(axis=2)
    lap[:, range(n), range(n)] = degrees
    d = degrees.sum(axis=1)
    if not d.all():
        raise ValueError("density matrix undefined: a graph has no edges")
    w = np.linalg.eigvalsh(lap)  # ascending per row
    scale = np.sqrt((degrees * degrees).sum(axis=1) + d)  # as density_spectrum's
    if np.any(np.abs(w.sum(axis=1) - d) > n * DEFAULT_TOL * scale):
        raise ArithmeticError("eigenvalue sum drifted from the trace")
    vals = w[:, ::-1] / d[:, None]
    if np.any(vals < -DEFAULT_TOL):
        raise ArithmeticError(f"negative eigenvalue {vals.min()} from a semidefinite Laplacian")
    vals = np.where(np.abs(vals) <= DEFAULT_TOL, 0.0, vals)
    if np.any(np.abs(vals.sum(axis=1) - 1.0) > n * DEFAULT_TOL):
        raise ArithmeticError("cleaned spectrum does not sum to 1")
    if np.any(vals[:, -1] != 0.0):
        raise ArithmeticError("kernel eigenvalue did not clean to exactly 0")
    return vals

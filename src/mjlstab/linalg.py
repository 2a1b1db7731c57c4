"""Linear-algebra kernels shared by the analysis modules.

Two spectral-radius solvers live here:

- `spectral_radius` takes a dense numpy array and returns the largest
  eigenvalue magnitude from a full QR eigensolve. The analysis uses it only
  up to QR_CUTOFF rows, and only as a fallback: for a scope on which the
  cone iteration does not settle, and for the nominal check of a network
  that is not homogeneous. Besides, `robust.grid_scan_max_rho` scans with
  it, and the tests use it as their oracle.
- `sparse_spectral_radius` takes a scipy sparse array or `LinearOperator`
  and runs ARPACK's implicitly restarted Arnoldi method (Lehoucq, Sorensen &
  Yang, *ARPACK Users' Guide*, SIAM 1998) for the largest-modulus
  eigenvalue. It imports scipy on first use, so importing this module (and
  the CLI) stays numpy only.
"""

from __future__ import annotations

import numpy as np

# The one memory cap of the analysis: no dense product, test matrix, mode
# family or solver state beyond this many bytes (1e8 float64s). Every check
# reads it at call time.
BYTE_CAP = 800_000_000

# Largest dimension at which the scope test's fallback (when the cone
# iteration does not settle) and the nominal check of a network that is not
# homogeneous build a dense matrix for `spectral_radius`; above it they use
# ARPACK.
QR_CUTOFF = 512

# Seed of the deterministic ARPACK start vector.
_START_SEED = 0x5EED0

# ARPACK Krylov subspace size and relative tolerance of `sparse_spectral_radius`
# (tol 0 is machine precision). The homogeneous pendulum network no longer
# reaches ARPACK (its nominal check is closed form), so the size was checked
# on the 2000-row pendulum network with one diagonal entry moved by one ulp,
# which does (2-core host): the default ncv of 20 took 0.76 s and 3.5e-13 off
# dense eig, 30 took 0.25 s, 40 took 0.27 s and 60 took 0.25 s, each within
# 9e-14; tol 1e-12 saved no more than the run-to-run noise.
ARPACK_NCV = 40
_ARPACK_TOL = 0.0


class SizeLimitError(ValueError):
    """An array the analysis needs would exceed BYTE_CAP."""


def check_bytes(nbytes: int, what: str, hint: str = "") -> None:
    """Raise SizeLimitError naming `what`, its bytes and the cap when
    `nbytes` exceeds BYTE_CAP; `hint` is appended to the message. Byte
    counts of 2^64 and more are shown as a power of two."""
    if nbytes > BYTE_CAP:
        shown = nbytes if nbytes < 1 << 64 else f"over 2^{nbytes.bit_length() - 1}"
        raise SizeLimitError(f"{what} would hold {shown} bytes (cap {BYTE_CAP}){hint}")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dense matrices.

    Raises SizeLimitError if the result would exceed BYTE_CAP.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    check_bytes(8 * a.size * b.size, "kron result")
    return np.kron(a, b)


def kron_power(p, exponent: int) -> np.ndarray:
    """`exponent`-fold Kronecker power; exponent 0 gives the 1x1 identity."""
    p = _as_matrix(p)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    out = np.ones((1, 1))
    for _ in range(exponent):
        out = kron(out, p)
    return out


def inf_norm(m) -> float:
    """Infinity norm: maximum absolute row sum (max |entry| for vectors)."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        return float(np.max(np.abs(m))) if m.size else 0.0
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix, from numpy's full
    eigensolver (Hessenberg-QR)."""
    m = _as_matrix(m)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"matrix is not square: shape {m.shape}")
    if rows == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def sparse_spectral_radius(op) -> float:
    """Largest eigenvalue magnitude of a square scipy sparse array or
    `LinearOperator` of dimension at least 3, from ARPACK (`eigs`, k=1,
    which="LM").

    The Arnoldi run starts from a seeded standard normal vector, so the
    result is deterministic for fixed input; a fixed structured start (all
    ones, say) can be orthogonal to the dominant eigenvector of a symmetric
    network. Raises ArithmeticError when ARPACK fails or does not converge,
    which happens on matrices whose spectrum gives Arnoldi no dominant
    direction: zero matrices, defective repeated eigenvalues, or many
    eigenvalues on one circle (after the full default budget of 10 * dim
    restarts). On a nilpotent chain ARPACK can instead return a
    pseudo-eigenvalue well above zero without raising, so callers should
    split off feed-forward structure first, as `model.nominal_stability`
    does.
    """
    from scipy.sparse.linalg import ArpackError, eigs

    dim = op.shape[0]
    v0 = np.random.default_rng(_START_SEED).standard_normal(dim)
    try:
        vals = eigs(op, k=1, which="LM", v0=v0, ncv=min(ARPACK_NCV, dim),
                    tol=_ARPACK_TOL, return_eigenvectors=False)
    except ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise ArithmeticError(f"ARPACK failed: {exc}") from exc
    return float(np.max(np.abs(vals)))

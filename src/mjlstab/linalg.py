"""Linear-algebra kernels shared by the analysis modules.

Two spectral-radius solvers, both numpy only: `krylov_radius` (restarted
Arnoldi on a matrix-vector product), the scopes' only solver, also for the
large components of the nominal check, and `spectral_radius` (dense QR) for
its other components (`dense_radius`), `robust.grid_scan_max_rho` and as
the tests' oracle.
"""

from __future__ import annotations

import numpy as np

# The one memory cap of the analysis: no dense product, test matrix, mode
# family or solver state beyond this many bytes (1e8 float64s). Every check
# reads it at call time.
BYTE_CAP = 800_000_000

# Largest strongly connected component, in rows, that the nominal check of
# a network that is not homogeneous gives to `dense_radius`; a larger one
# runs `krylov_radius` first.
QR_CUTOFF = 512

# Arnoldi steps per cycle of `krylov_radius` (its basis holds one vector
# more) and the Ritz residual, relative to the radius, at which it stops.
KRYLOV_STEPS = 40
_KRYLOV_TOL = 1e-13


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


def kron_power(p, exponent: int) -> np.ndarray:
    """`exponent`-fold Kronecker power; exponent 0 gives the 1x1 identity.

    Raises SizeLimitError before any product that would exceed BYTE_CAP.
    """
    p = _as_matrix(p)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    out = np.ones((1, 1))
    for _ in range(exponent):
        check_bytes(8 * out.size * p.size, "kron result")
        out = np.kron(out, p)
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


def dense_radius(rows: int, build, what: str) -> float:
    """`spectral_radius` of the rows x rows matrix `build()`, once it and
    the eigensolver's copy (16 * rows^2 bytes) pass `check_bytes`."""
    check_bytes(16 * rows * rows, what)
    return spectral_radius(build())


def krylov_radius(apply, start, rightmost=False) -> float | None:
    """Largest eigenvalue magnitude of the linear map `apply` by thick-
    restarted Arnoldi from `start` (Krylov-Schur, Stewart 2001, with Ritz in
    place of Schur vectors), or None when 1 + dim^2 // 1024 cycles, work that
    grows with dim^3 as a dense eigensolve's does, do not settle it.

    Each cycle fills a basis of KRYLOV_STEPS + 1 vectors, allocated once,
    orthogonalized twice by classical Gram-Schmidt, and returns |theta| for
    the top Ritz value theta, by modulus or with `rightmost` by real part
    (ARPACK's "LR"), on an invariant subspace (where it is exact) or once
    its Ritz residual is at most _KRYLOV_TOL |theta|. Otherwise the next
    cycle keeps the KRYLOV_STEPS // 2 top Ritz vectors (a pair by its real
    and imaginary parts), as ARPACK keeps half its space for one eigenvalue.

    A map that is nilpotent on the first cycle's invariant subspace of
    k >= 2 vectors gives a defective H whose eig is off by about eps^(1/k);
    there k more applications take the start to exactly zero, and the
    radius is 0.0.
    """
    v = np.asarray(start, dtype=float).ravel()
    steps = min(KRYLOV_STEPS, v.size)
    basis = np.empty((steps + 1, v.size))
    h = np.zeros((steps + 1, steps))
    basis[0] = v / np.linalg.norm(v)
    p = 0
    for _ in range(1 + v.size ** 2 // 1024):
        for j in range(p, steps):
            w = apply(basis[j])
            for _ in range(2):
                c = basis[: j + 1] @ w
                w = w - c @ basis[: j + 1]
                h[: j + 1, j] += c
            h[j + 1, j] = beta = np.linalg.norm(w)
            if beta <= _KRYLOV_TOL * np.linalg.norm(h[: j + 1, j]):
                break
            basis[j + 1] = w / beta
        k = j + 1
        vals, vecs = np.linalg.eig(h[:k, :k])
        order = np.argsort(-(vals.real if rightmost else np.abs(vals)), kind="stable")
        rho = float(np.abs(vals[order[0]]))
        if p == 0 and 2 <= k < steps:
            x = basis[0]
            for _ in range(k):
                x = apply(x)
            if not x.any():
                return 0.0
        if k < steps or abs(h[k, :k] @ vecs[:, order[0]]) <= _KRYLOV_TOL * rho:
            return rho
        kept = [part for i in order[: steps // 2] if vals[i].imag >= 0
                for part in (vecs[:, i].real, vecs[:, i].imag)[: 1 + (vals[i].imag > 0)]]
        q = np.linalg.qr(np.array(kept).T)[0]
        p = q.shape[1]
        for at in range(0, v.size, 4096):  # in place, a slice at a time
            basis[:p, at:at + 4096] = q.T @ basis[:k, at:at + 4096]
        basis[p] = basis[k]
        last, h = h, np.zeros_like(h)
        h[:p, :p], h[p, :p] = q.T @ last[:k, :k] @ q, last[k, :k] @ q
    return None

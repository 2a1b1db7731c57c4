"""Linear-algebra kernels shared by the analysis modules.

Two spectral-radius solvers live here:

- `spectral_radius` takes a dense numpy array and dispatches between a full
  QR eigensolve for small matrices and a power iteration for large ones (the
  stability test matrices reach a few thousand rows and only the dominant
  eigenvalue magnitude is needed there).
- `sparse_spectral_radius` takes a scipy sparse array or `LinearOperator`
  and runs ARPACK's implicitly restarted Arnoldi method (Lehoucq, Sorensen &
  Yang, *ARPACK Users' Guide*, SIAM 1998) for the largest-modulus
  eigenvalue. It imports scipy on first use, so importing this module (and
  the CLI) stays numpy only.
"""

from __future__ import annotations

import numpy as np

# Refuse to materialize Kronecker products beyond this many entries.
KRON_ENTRY_LIMIT = 100_000_000

# Dimension above which spectral_radius switches from the QR eigensolver to
# power iteration, and above which the nominal check leaves the dense matrix
# for the sparse ARPACK path.
QR_CUTOFF = 512
# Relative tolerance and iteration budget of the power iteration above it.
_POWER_TOL = 1e-9
_POWER_MAX_ITER = 50_000

# Seed of the deterministic start vectors of both iterative solvers.
_START_SEED = 0x5EED0

# ARPACK Krylov subspace size and relative tolerance of `sparse_spectral_radius`
# (tol 0 is machine precision). On the 2000-row pendulum network (2-core
# host) the default ncv of 20 took 0.78 s and 40 took 0.23 s, within 7e-14
# of dense eig; tol 1e-12 saved no more than the run-to-run noise.
_ARPACK_NCV = 40
_ARPACK_TOL = 0.0


class SizeLimitError(ValueError):
    """A requested dense product would exceed the configured entry limit."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def kron(a, b, limit: int = KRON_ENTRY_LIMIT) -> np.ndarray:
    """Kronecker product of two dense matrices.

    Raises SizeLimitError if the result would have more than `limit` entries.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    entries = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if entries > limit:
        raise SizeLimitError(
            f"kron result would have {entries} entries (limit {limit})"
        )
    return np.kron(a, b)


def kron_power(p, exponent: int, limit: int = KRON_ENTRY_LIMIT) -> np.ndarray:
    """`exponent`-fold Kronecker power; exponent 0 gives the 1x1 identity."""
    p = _as_matrix(p)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    out = np.ones((1, 1))
    for _ in range(exponent):
        out = kron(out, p, limit=limit)
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
    """Largest eigenvalue magnitude of a square matrix.

    Dimensions up to QR_CUTOFF go through numpy's full eigensolver
    (Hessenberg-QR). Above that, a power iteration is used: it tracks the
    per-step growth ratio and the two-step geometric mean of growth (the
    latter converges even when the dominant eigenvalues are a complex
    conjugate pair), restarting from a fresh deterministic vector if the
    iterate degenerates. Deterministic for fixed input.
    """
    m = _as_matrix(m)
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"matrix is not square: shape {m.shape}")
    if rows == 0:
        return 0.0
    if rows <= QR_CUTOFF:
        return float(np.max(np.abs(np.linalg.eigvals(m))))
    return _power_radius(m)


def _power_radius(m: np.ndarray) -> float:
    n = m.shape[0]
    # Frobenius norm: one dot product over a view of m, with no full-size
    # temporary. It only scales the collapse and convergence thresholds.
    scale = float(np.linalg.norm(m))
    if scale == 0.0:
        return 0.0
    rng = np.random.default_rng(_START_SEED)
    restarts = 3
    estimate = 0.0
    for attempt in range(restarts):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        prev_growth = None
        prev_est = None
        stable_checks = 0
        for it in range(_POWER_MAX_ITER):
            w = m @ v
            growth = float(np.linalg.norm(w))
            if growth < scale * 1e-290:
                # Iterate collapsed toward a nilpotent direction; restart.
                break
            v = w / growth
            if prev_growth is not None:
                # Two-step geometric mean smooths the oscillation produced
                # by a dominant complex-conjugate pair.
                est = float(np.sqrt(growth * prev_growth))
                if prev_est is not None:
                    denom = max(est, scale * 1e-300)
                    if abs(est - prev_est) <= _POWER_TOL * denom:
                        stable_checks += 1
                        if stable_checks >= 5:
                            return est
                    else:
                        stable_checks = 0
                prev_est = est
                estimate = est
            prev_growth = growth
        else:
            # Iteration budget exhausted without meeting _POWER_TOL.
            raise ArithmeticError(
                f"power iteration did not converge within {_POWER_MAX_ITER} "
                f"iterations (attempt {attempt + 1}/{restarts}, "
                f"last estimate {estimate})"
            )
        # collapsed; try a new starting vector
        estimate = max(estimate, 0.0)
    # All restarts collapsed: the matrix annihilated every probe, which for
    # practical purposes means the spectral radius is zero (nilpotent-like).
    return 0.0


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
        vals = eigs(op, k=1, which="LM", v0=v0, ncv=min(_ARPACK_NCV, dim),
                    tol=_ARPACK_TOL, return_eigenvectors=False)
    except ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise ArithmeticError(f"ARPACK failed: {exc}") from exc
    return float(np.max(np.abs(vals)))

import numpy as np
import pytest

from mjlstab import linalg
from mjlstab.linalg import (
    BYTE_CAP,
    QR_CUTOFF,
    SizeLimitError,
    inf_norm,
    kron,
    kron_power,
    spectral_radius,
)


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(2, 4))
    assert np.array_equal(kron(a, b), np.kron(a, b))


def test_kron_rejects_oversized_result(monkeypatch):
    a = np.ones((100, 100))
    monkeypatch.setattr(linalg, "BYTE_CAP", 80_000)
    with pytest.raises(SizeLimitError):
        kron(a, a)


def test_kron_rejects_non_finite():
    with pytest.raises(ValueError):
        kron(np.array([[np.nan]]), np.eye(1))


def test_kron_power_basics():
    p = np.array([[0.5, 0.5], [0.3, 0.7]])
    assert np.array_equal(kron_power(p, 0), np.ones((1, 1)))
    assert np.array_equal(kron_power(p, 1), p)
    assert np.array_equal(kron_power(p, 3), np.kron(np.kron(p, p), p))
    with pytest.raises(ValueError):
        kron_power(p, -1)


def test_kron_power_respects_limit(monkeypatch):
    p = np.ones((10, 10))
    monkeypatch.setattr(linalg, "BYTE_CAP", 8_000_000)
    with pytest.raises(SizeLimitError):
        kron_power(p, 5)


def test_inf_norm_matrix_is_max_abs_row_sum():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert inf_norm(m) == 3.0


def test_inf_norm_vector_and_empty():
    assert inf_norm(np.array([0.1, -0.9, 0.5])) == 0.9
    assert inf_norm(np.zeros((0, 0))) == 0.0
    assert inf_norm(np.zeros(0)) == 0.0


def test_inf_norm_multiplicative_under_kron():
    # abs row sums multiply, so ||A kron A||_inf == ||A||_inf^2 exactly
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        assert inf_norm(np.kron(a, a)) == pytest.approx(inf_norm(a) ** 2, rel=1e-12)


def test_spectral_radius_small_known():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5, abs=1e-12)
    rot = 0.9 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    assert spectral_radius(rot) == pytest.approx(0.9, abs=1e-9)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius(np.ones(4))


def test_spectral_radius_empty_is_zero():
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def _dense_with_known_spectrum(dim: int, dominant: float, seed: int) -> np.ndarray:
    """Similarity transform of a block-diagonal matrix whose dominant
    eigenvalues are a complex pair of magnitude `dominant`."""
    rng = np.random.default_rng(seed)
    theta = 0.7
    block = dominant * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    d = np.zeros((dim, dim))
    d[:2, :2] = block
    rest = rng.uniform(-0.5, 0.5, size=dim - 2)
    d[range(2, dim), range(2, dim)] = rest
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q @ d @ q.T


def test_spectral_radius_above_qr_cutoff_matches_known_spectrum():
    dim = QR_CUTOFF + 88
    m = _dense_with_known_spectrum(dim, 0.95, seed=3)
    rho = spectral_radius(m)
    oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert rho == pytest.approx(oracle, rel=1e-6)
    assert rho == pytest.approx(0.95, rel=1e-6)


def test_spectral_radius_above_qr_cutoff_growth_case():
    dim = QR_CUTOFF + 40
    m = _dense_with_known_spectrum(dim, 1.3, seed=9)
    assert spectral_radius(m) == pytest.approx(1.3, rel=1e-6)


def test_spectral_radius_above_qr_cutoff_nilpotent_is_zero():
    # shift matrix: nilpotent, so the eigensolve must return exact zeros
    dim = QR_CUTOFF + 30
    m = np.zeros((dim, dim))
    m[range(1, dim), range(dim - 1)] = 1.0
    assert spectral_radius(m) == 0.0


def test_kron_entry_limit_default_is_reasonable():
    assert BYTE_CAP == 800_000_000

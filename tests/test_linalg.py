import numpy as np
import pytest

from mjlstab import linalg
from mjlstab.linalg import (
    BYTE_CAP,
    KRYLOV_STEPS,
    QR_CUTOFF,
    SizeLimitError,
    dense_radius,
    inf_norm,
    krylov_radius,
    kron_power,
    spectral_radius,
)


def test_kron_power_matches_numpy_on_rectangular():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 2))
    assert np.array_equal(kron_power(a, 2), np.kron(a, a))


def test_kron_power_checks_each_product(monkeypatch):
    # the third product, 100 x 100 entries by 10 x 10, holds 8e6 bytes
    p = np.ones((10, 10))
    monkeypatch.setattr(linalg, "BYTE_CAP", 8_000_000)
    assert kron_power(p, 3).shape == (1000, 1000)
    monkeypatch.setattr(linalg, "BYTE_CAP", 8_000_000 - 1)
    with pytest.raises(SizeLimitError, match="8000000 bytes"):
        kron_power(p, 3)


def test_kron_power_rejects_non_finite():
    with pytest.raises(ValueError):
        kron_power(np.array([[np.nan]]), 1)


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


def _krylov(m, seed=0):
    """krylov_radius of the dense matrix m from a seeded normal start, and
    the number of products it took."""
    calls = []
    start = np.random.default_rng(seed).standard_normal(len(m))
    rho = krylov_radius(lambda v: calls.append(1) or m @ v, start)
    return rho, len(calls)


def _dense_eig(m):
    return float(np.abs(np.linalg.eigvals(m)).max())


@pytest.mark.parametrize("dominant", [0.95, 1.3])
def test_krylov_radius_dominant_complex_pair(dominant):
    m = _dense_with_known_spectrum(300, dominant, seed=4)
    rho, _ = _krylov(m)
    assert rho == pytest.approx(_dense_eig(m), abs=1e-12)
    assert rho == pytest.approx(dominant, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, KRYLOV_STEPS])
def test_krylov_radius_small_dimension_is_exact(dim):
    # the Krylov space fills the whole space within one cycle
    m = np.random.default_rng(dim).standard_normal((dim, dim))
    rho, calls = _krylov(m)
    assert rho == pytest.approx(_dense_eig(m), abs=1e-12)
    assert calls <= dim


def test_krylov_radius_zero_operator():
    rho, calls = _krylov(np.zeros((50, 50)))
    assert rho == 0.0 == _dense_eig(np.zeros((50, 50)))
    assert calls == 1


@pytest.mark.parametrize("seed", range(4))
def test_krylov_radius_random_non_normal(seed):
    # a positive matrix (Perron root, eigenvector not orthogonal to the
    # rest) and a similarity S D S^-1 by a random non-orthogonal S whose
    # singular values lie in about [0.5, 1.5], so dense eig itself is
    # accurate to a few ulps
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(60, 600))
    positive = rng.uniform(size=(dim, dim))
    s = np.eye(dim) + 0.25 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    d = np.diag(np.concatenate([[1.0], rng.uniform(-0.8, 0.8, dim - 1)]))
    for m in (positive, s @ d @ np.linalg.inv(s)):
        rho, _ = _krylov(m, seed)
        assert rho == pytest.approx(_dense_eig(m), abs=1e-12 * max(1.0, _dense_eig(m)))


def test_krylov_radius_stalls_on_cyclic_permutation():
    # 520 eigenvalues on the unit circle: no dominant direction, so the
    # solver gives up after 1 + 520^2 // 1024 = 265 cycles, the first of
    # KRYLOV_STEPS products and each later one of about half as many (a
    # complex pair cut at the half keeps one vector more or fewer)
    m = np.roll(np.eye(520), 1, axis=1)
    rho, calls = _krylov(m)
    assert rho is None
    assert calls <= KRYLOV_STEPS + 264 * (KRYLOV_STEPS // 2 + 1)


def test_dense_radius_checks_matrix_and_copy(monkeypatch):
    m = _dense_with_known_spectrum(20, 0.9, seed=1)
    monkeypatch.setattr(linalg, "BYTE_CAP", 16 * 20 * 20 - 1)
    with pytest.raises(SizeLimitError, match="test matrix would hold 6400 bytes"):
        dense_radius(20, lambda: pytest.fail("built past the cap"), "test matrix")
    monkeypatch.setattr(linalg, "BYTE_CAP", 16 * 20 * 20)
    assert dense_radius(20, lambda: m, "test matrix") == spectral_radius(m)


def test_kron_entry_limit_default_is_reasonable():
    assert BYTE_CAP == 800_000_000

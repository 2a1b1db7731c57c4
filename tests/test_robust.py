from dataclasses import replace

import numpy as np
import pytest

from mjlstab import robust
from mjlstab.linalg import spectral_radius
from mjlstab.lp import lp_solve
from mjlstab.model import build_pendulum_model
from mjlstab.robust import (
    BoundsInfeasibleError,
    alphas,
    betas,
    column_corners,
    compute_bounds,
    grid_scan_max_rho,
    solve_bound_lp,
    weighted_bounds,
)
from mjlstab.stability import mss_matrix
from mjlstab.switched import ModeFamily, build_mode_family

NOMINAL = [[0.4, 0.6], [0.5, 0.5]]


def scalar_family():
    return ModeFamily.from_matrices([[[0.5]], [[1.25]]], NOMINAL)


def endpoint_family():
    return build_mode_family(build_pendulum_model(100), scope=1)


def dense_rho(fam):
    return float(np.abs(np.linalg.eigvals(mss_matrix(fam).matrix)).max())


def random_stable_families(seed, count):
    rng = np.random.default_rng(seed)
    families = []
    while len(families) < count:
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        p = rng.random((m, m)) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        fam = ModeFamily.from_matrices(rng.normal(size=(m, d, d)), p)
        # rescale into the stable region: rho scales with the square
        fam.matrices *= np.sqrt(rng.uniform(0.3, 0.95) / dense_rho(fam))
        families.append(fam)
    return families


# ---------------------------------------------------------------------------
# Norm coefficients and margins
# ---------------------------------------------------------------------------


def test_alphas_are_squared_norms():
    assert np.array_equal(alphas(scalar_family()), [0.25, 1.5625])
    rng = np.random.default_rng(1)
    mats = rng.normal(size=(3, 2, 2))
    fam = ModeFamily.from_matrices(mats, np.full((3, 3), 1.0 / 3.0))
    expected = [np.abs(np.kron(w, w)).sum(axis=1).max() for w in mats]
    assert np.allclose(alphas(fam), expected, rtol=1e-12)


def test_betas_known_values():
    beta = betas(scalar_family(), [0.25, 1.5625])
    assert np.allclose(beta, [0.11875, 0.06875], atol=1e-12)


def test_betas_validate_nominal():
    # betas reads the family's chain, which the family checks whenever it
    # is built or swapped
    fam = scalar_family()
    with pytest.raises(ValueError, match="joint_P: expected"):
        betas(replace(fam, joint_P=np.eye(3)), [0.25, 1.5625])
    with pytest.raises(ValueError, match=r"joint_P\[0\]: sums to 1\.2, not 1"):
        betas(replace(fam, joint_P=[[0.6, 0.6], [0.5, 0.5]]), [0.25, 1.5625])
    with pytest.raises(ValueError, match=r"joint_P\[0\]: non-finite"):
        betas(replace(fam, joint_P=[[np.nan, np.nan], [0.5, 0.5]]), [0.25, 1.5625])


# ---------------------------------------------------------------------------
# Two-step bound estimation
# ---------------------------------------------------------------------------


def test_compute_bounds_scalar_known_solution():
    res = compute_bounds(scalar_family())
    assert res.feasible is True
    assert np.array_equal(res.alpha, [0.25, 1.5625])
    assert np.allclose(res.beta, [0.11875, 0.06875], atol=1e-12)
    assert np.allclose(res.z_ub, [[0.6, 0.4], [-0.02, -0.02]], atol=1e-12)
    assert np.allclose(res.eps, [0.4, 0.02], atol=1e-12)


def test_compute_bounds_uniform_chain_hand_solution():
    # cheaper-coefficient mode is pushed to its box, the other takes the
    # remaining budget: z_ub columns are (0.296875, 0.5) for both s
    fam = ModeFamily.from_matrices([[[0.8]], [[0.7]]], np.full((2, 2), 0.5))
    res = compute_bounds(fam)
    assert res.feasible
    assert np.allclose(res.beta, [0.435, 0.435], atol=1e-12)
    assert np.allclose(res.z_ub, [[0.296875, 0.296875], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(res.eps, [0.296875, 0.5], atol=1e-12)


def test_compute_bounds_margin_tightens_budget():
    res = compute_bounds(scalar_family(), margin=0.02)
    assert res.feasible
    # upper solutions keep mode 1 at its box; mode 2 absorbs the margin
    assert np.allclose(res.z_ub, [[0.6, 0.4], [-0.0328, -0.0328]], atol=1e-12)
    assert np.allclose(res.eps, [0.4, 0.0328], atol=1e-12)


def test_compute_bounds_infeasible_reported_in_band():
    res = compute_bounds(endpoint_family())
    assert res.feasible is False
    assert np.array_equal(res.eps, np.zeros(4))
    assert np.array_equal(res.z_ub, np.zeros((4, 4)))
    assert np.allclose(res.beta, [0.2256, -0.1616, -0.1616, -0.7424], atol=1e-3)
    assert res.beta.min() < 0


def test_compute_bounds_margin_can_make_nominal_infeasible():
    res = compute_bounds(scalar_family(), margin=0.07)
    assert res.feasible is False
    assert np.array_equal(res.eps, np.zeros(2))


def test_solve_bound_lp_raises_outside_margin():
    with pytest.raises(BoundsInfeasibleError, match="fails the norm margin"):
        solve_bound_lp(endpoint_family())
    with pytest.raises(BoundsInfeasibleError):
        solve_bound_lp(scalar_family(), margin=0.07)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("bound", [compute_bounds, weighted_bounds, solve_bound_lp])
def test_non_finite_margin_is_rejected(bound, margin):
    # a NaN margin compares False with every beta, so it would pass the
    # feasibility check and give NaN eps reported as feasible
    with pytest.raises(ValueError, match="margin must be finite"):
        bound(scalar_family(), margin=margin)


@pytest.mark.parametrize("margin", [-0.5, -1e-12])
@pytest.mark.parametrize("bound", [compute_bounds, weighted_bounds, solve_bound_lp])
def test_negative_margin_is_rejected(bound, margin):
    # a negative margin widens every column's budget past beta_s: at -0.5
    # compute_bounds gave eps [0.4, 0.3] and weighted_bounds [0.4, 0.259],
    # boxes whose grid scans reach rho 1.31 and 1.26
    with pytest.raises(ValueError, match=rf"margin must be non-negative, got {margin!r}"):
        bound(scalar_family(), margin=margin)


def test_compute_bounds_evaluates_alphas_once(monkeypatch):
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(5, 2, 2))
    # scale so the squared norms alpha_r fall in [0.2, 0.6]
    mats *= (np.sqrt(rng.uniform(0.2, 0.6, size=5))
             / np.abs(mats).sum(axis=2).max(axis=1))[:, None, None]
    random_fam = ModeFamily.from_matrices(mats, rng.dirichlet(np.ones(5), size=5))
    for fam in (scalar_family(), random_fam):
        alpha = alphas(fam)
        z_ub = solve_bound_lp(fam)
        calls = []
        monkeypatch.setattr(
            "mjlstab.robust.alphas", lambda f: calls.append(f) or alphas(f)
        )
        res = compute_bounds(fam)
        monkeypatch.undo()
        assert len(calls) == 1
        assert res.feasible
        assert np.array_equal(res.alpha, alpha)
        assert np.array_equal(res.beta, betas(fam, alpha))
        assert np.array_equal(res.z_ub, z_ub)
        assert np.array_equal(res.eps, np.minimum(fam.joint_P.min(axis=1),
                                                  np.abs(z_ub).min(axis=1)))


def test_solve_bound_lp_solves_all_columns_in_one_call(monkeypatch):
    calls = []
    real = robust.lp_solve
    monkeypatch.setattr(robust, "lp_solve", lambda *args: calls.append(args) or real(*args))
    fam = random_stable_families(seed=9, count=1)[0]
    fam.matrices *= 0.3  # small enough for the infinity-norm margin
    z = solve_bound_lp(fam)
    assert len(calls) == 1
    assert z.shape == (fam.mode_count, fam.mode_count)
    calls.clear()
    assert compute_bounds(fam).feasible
    assert len(calls) == 1


def test_lower_direction_is_minus_nominal():
    # the downward step-1 program, min sum z s.t. alpha z <= beta and
    # -P <= z <= 1 - P, is lp_solve's program in y = -z; with alpha >= 0 no
    # downward move loosens the row, so every column starts and stays at
    # its lower box end, -P, and step 2 reads that side as P
    fam = random_stable_families(seed=9, count=1)[0]
    fam.matrices *= 0.3
    for family, bound in ((scalar_family(), compute_bounds), (fam, compute_bounds),
                          (fam, weighted_bounds), (endpoint_family(), weighted_bounds)):
        res = bound(family)
        p = family.joint_P
        assert res.feasible and np.all(res.alpha >= 0)
        assert np.array_equal(-lp_solve(-res.alpha, res.beta, p - 1.0, p), -p)
        rowwise = np.minimum(p.min(axis=1), np.abs(res.z_ub).min(axis=1))
        if bound is compute_bounds:
            assert np.array_equal(res.eps, rowwise)
        else:  # scaled down into its certified box
            assert np.all(res.eps <= rowwise)


def test_bound_result_to_dict_round_trips_lists():
    d = compute_bounds(scalar_family()).to_dict()
    assert set(d) == {"alpha", "beta", "eps", "feasible"}
    assert d["feasible"] is True
    assert d["eps"] == pytest.approx([0.4, 0.02], abs=1e-12)
    assert isinstance(d["alpha"], list)


# ---------------------------------------------------------------------------
# Coupled-Lyapunov weighted bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scope", [1, 2])
def test_weighted_bounds_positive_on_pendulum(scope):
    fam = build_mode_family(build_pendulum_model(100), scope=scope)
    res = weighted_bounds(fam)
    assert res.feasible is True
    assert np.all(res.beta > 0)
    # L(V) <= (1 - min beta) V bounds rho, so min beta <= 1 - rho; the
    # weighting evens the margins out, so here even the largest stays below
    assert res.beta.max() <= 1.0 - dense_rho(fam)
    assert np.all(res.eps > 0)


def test_weighted_bounds_unstable_reported_in_band():
    fam = ModeFamily.from_matrices([[[1.2]], [[0.9]]], NOMINAL)
    assert dense_rho(fam) > 1.0
    res = weighted_bounds(fam)
    assert res.feasible is False
    assert res.beta.min() <= 0
    assert np.array_equal(res.eps, np.zeros(2))
    assert np.array_equal(res.z_ub, np.zeros((2, 2)))


def test_weighted_bounds_box_certified_on_random_families():
    for fam in random_stable_families(seed=3, count=25):
        res = weighted_bounds(fam)
        assert res.feasible
        assert np.all(res.eps >= 0)
        assert res.alpha @ res.eps <= res.beta.min() + 1e-12
        for p in column_corners(fam, res.eps):
            assert dense_rho(replace(fam, joint_P=p)) < 1.0


def test_weighted_bounds_margin_tightens_budget():
    fam = random_stable_families(seed=5, count=1)[0]
    loose = weighted_bounds(fam)
    tight = weighted_bounds(fam, margin=0.5 * loose.beta.min())
    assert tight.feasible
    assert np.array_equal(tight.beta, loose.beta)
    assert tight.alpha @ tight.eps <= 0.5 * loose.beta.min() + 1e-12
    assert weighted_bounds(fam, margin=loose.beta.min()).feasible is False


def test_weighted_bounds_nilpotent_modes():
    fam = ModeFamily.from_matrices(
        [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], NOMINAL
    )
    res = weighted_bounds(fam)
    assert res.feasible
    assert res.beta.min() >= 1.0 - 2e-3


def test_column_corners_move_eps_into_each_column():
    nominal = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]])
    eps = np.array([0.1, 0.05, 0.2])
    fam = ModeFamily.from_matrices(np.zeros((3, 1, 1)), nominal)
    corners = column_corners(fam, eps)
    assert corners.shape == (3, 3, 3)
    assert np.allclose(corners.sum(axis=2), 1.0, atol=1e-15)
    for s in range(3):
        delta = corners[s] - nominal
        assert np.allclose(delta[:, s], eps, atol=1e-15)
        assert np.allclose(np.abs(delta).sum(axis=1), 2 * eps, atol=1e-15)
    # column 0 takes from each row's largest other entry: 0.5, 0.3, 0.4
    assert np.allclose(
        corners[0], [[0.3, 0.4, 0.3], [0.65, 0.1, 0.25], [0.5, 0.3, 0.2]],
        atol=1e-15,
    )
    with pytest.raises(ValueError, match="one entry per mode"):
        column_corners(fam, [0.1])


# ---------------------------------------------------------------------------
# Grid scan cross-check
# ---------------------------------------------------------------------------


def test_grid_scan_nominal_point_only():
    fam = scalar_family()
    rho0 = spectral_radius(mss_matrix(fam).matrix)
    assert grid_scan_max_rho(fam, [0.0, 0.0]) == rho0


def test_grid_scan_certified_box_peaks_at_one():
    """At the certified corner p = [[0, 1], [0.48, 0.52]] the test matrix is
    [[0, 0.75], [0.25, 0.8125]] whose dominant eigenvalue is exactly 1."""
    fam = scalar_family()
    worst = grid_scan_max_rho(fam, [0.4, 0.02], resolution=1e-3)
    assert worst == pytest.approx(1.0, abs=1e-9)
    assert worst <= 1.0 + 1e-9


def test_grid_scan_skips_inadmissible_chains():
    nominal = np.array([[1.0, 0.0], [0.5, 0.5]])
    fam = replace(scalar_family(), joint_P=nominal)
    res = 0.05
    worst = grid_scan_max_rho(fam, [0.2, 0.0], resolution=res)
    expected = 0.0
    for t1 in np.linspace(-0.2, 0.2, 9):
        p = nominal + np.array([[t1, -t1], [0.0, 0.0]])
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            continue
        expected = max(expected, spectral_radius(mss_matrix(replace(fam, joint_P=p)).matrix))
    assert worst == pytest.approx(expected, rel=1e-12)


def test_grid_scan_input_validation():
    fam3 = ModeFamily.from_matrices(np.zeros((3, 1, 1)), np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match="2-mode"):
        grid_scan_max_rho(fam3, [0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="one entry per mode"):
        grid_scan_max_rho(scalar_family(), [0.1])


@pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan"), float("inf")])
def test_grid_scan_rejects_bad_resolution(resolution):
    # unchecked, 0 would divide by zero, NaN fail in int() and inf scan only
    # the corner (-eps_0, -eps_1)
    with pytest.raises(ValueError, match="resolution must be finite and positive"):
        grid_scan_max_rho(scalar_family(), [0.4, 0.02], resolution=resolution)


def test_grid_scan_matrix_is_the_test_matrix_of_each_chain(monkeypatch):
    # the grid scales the column blocks of two prebuilt matrices; on a
    # 2-mode family with d = 3 each sum must be, bit for bit, the test
    # matrix that mss_matrix builds at that chain
    rng = np.random.default_rng(21)
    nominal = np.array([[0.3, 0.7], [0.6, 0.4]])
    fam = ModeFamily.from_matrices(0.4 * rng.normal(size=(2, 3, 3)), nominal)
    seen = []
    monkeypatch.setattr(robust, "spectral_radius",
                        lambda m: seen.append(m) or spectral_radius(m))
    worst = grid_scan_max_rho(fam, [0.05, 0.1], resolution=0.025)
    chains = [nominal + np.array([[t1, -t1], [t2, -t2]])
              for t1 in np.linspace(-0.05, 0.05, 5) for t2 in np.linspace(-0.1, 0.1, 9)]
    assert len(seen) == len(chains) == 45
    for test, p in zip(seen, chains):
        assert test.tobytes() == mss_matrix(replace(fam, joint_P=p)).matrix.tobytes()
    assert worst == max(spectral_radius(test) for test in seen)

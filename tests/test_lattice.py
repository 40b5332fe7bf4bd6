import numpy as np
import pytest

from acfield.lattice import (
    ChainConfig,
    first_diff,
    homogeneous,
    norm_l2eps,
    norm_weighted,
    positions,
    second_diff,
)


def test_positions_cached_read_only_and_bit_identical():
    rng = np.random.default_rng(3)
    N, F = 6, 1.3
    u = rng.normal(0, 0.05, 2 * N + 1)
    u -= u.mean()
    cfg = ChainConfig(N, F, u)
    u[0] += 1.0  # the config holds its own copy
    assert cfg.u[0] == u[0] - 1.0
    assert positions(cfg) is positions(cfg)
    for arr in (cfg.u, positions(cfg)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the per-call formula the cache replaces, for the default range and
    # for indices of the periodic extension
    for j_lo, j_hi in ((-N, N), (-N - 1, N + 1), (-3 * N, 4 * N)):
        j = np.arange(j_lo, j_hi + 1)
        i, k = (j + N) % cfg.n_atoms, (j + N) // cfg.n_atoms
        ref = cfg.F * cfg.eps * (i - N) + cfg.u[i] + k * cfg.L
        got = positions(cfg) if j_lo == -N and j_hi == N else positions(cfg, j_lo, j_hi)
        assert np.array_equal(got, ref)


def test_first_diff_cached_read_only_and_bit_identical():
    rng = np.random.default_rng(4)
    for N, F in ((1, 0.7), (6, 1.3), (40, 1.1)):
        u = rng.normal(0, 0.05, 2 * N + 1)
        cfg = ChainConfig(N, F, u - u.mean())
        assert first_diff(cfg) is first_diff(cfg)
        with pytest.raises(ValueError):
            first_diff(cfg)[0] = 0.0
        # the per-call formula the cache replaces
        ref = np.diff(positions(cfg, -N - 1, N)) / cfg.eps
        assert np.array_equal(first_diff(cfg), ref)
        # a new config gets its own strains
        other = cfg.replace_u(-cfg.u)
        assert np.array_equal(first_diff(other),
                              np.diff(positions(other, -N - 1, N)) / other.eps)


def test_homogeneous_positions_small():
    # N=1, F=1: eps = 2/3, atoms at -2/3, 0, 2/3; shifted by +2/3 that is (0, 2/3, 4/3)
    cfg = homogeneous(1, 1.0)
    y = positions(cfg)
    assert np.allclose(y + 2.0 / 3.0, [0.0, 2.0 / 3.0, 4.0 / 3.0])
    assert cfg.eps == pytest.approx(2.0 / 3.0)
    assert cfg.L == pytest.approx(2.0)


def test_periodic_extension():
    rng = np.random.default_rng(3)
    u = rng.normal(0, 0.01, 9)
    u -= u.mean()
    cfg = ChainConfig(4, 1.1, u)
    y = positions(cfg, -14, 14)
    base = positions(cfg)
    # y_{j + 9} = y_j + L for every j in range
    assert np.allclose(y[9:], y[:-9] + cfg.L, atol=1e-14)
    # j = -14..14 maps to index 0..28, so j = -4..4 (one period up) is 19..27
    assert np.allclose(y[19:28], base + cfg.L, atol=1e-14)


def test_positions_bounds_come_together():
    # one bound alone is not a range: both or neither
    cfg = homogeneous(4, 1.1)
    for bounds in ((-2,), (None, 2), (-2, None)):
        with pytest.raises(ValueError, match="j_lo and j_hi must be given together"):
            positions(cfg, *bounds)
    assert positions(cfg, None, None) is positions(cfg)


def test_first_second_diff_homogeneous():
    cfg = homogeneous(6, 1.3)
    assert np.allclose(first_diff(cfg), 1.3)
    assert np.allclose(second_diff(cfg), 0.0, atol=1e-12)


def test_second_diff_sums_to_zero():
    rng = np.random.default_rng(11)
    u = rng.normal(0, 0.05, 17)
    u -= u.mean()
    cfg = ChainConfig(8, 1.1, u)
    ypp = second_diff(cfg)
    assert cfg.eps * np.sum(ypp) == pytest.approx(0.0, abs=1e-12)
    # first differences average to F over the period
    assert np.mean(first_diff(cfg)) == pytest.approx(1.1)


def test_diff_matches_manual_interior():
    rng = np.random.default_rng(7)
    u = rng.normal(0, 0.02, 11)
    u -= u.mean()
    cfg = ChainConfig(5, 0.9, u)
    y = positions(cfg)
    yp = first_diff(cfg)
    # interior values, no wrap involved
    assert yp[3] == pytest.approx((y[3] - y[2]) / cfg.eps, rel=1e-14)
    ypp = second_diff(cfg)
    assert ypp[4] == pytest.approx((y[5] - 2 * y[4] + y[3]) / cfg.eps**2, rel=1e-12)


def test_norms():
    eps = 0.25
    v = np.ones(8)
    assert norm_l2eps(v, eps) == pytest.approx(np.sqrt(2.0))


def test_norm_l2eps_example():
    # ||(1,...,1)||^2 = eps*(2N+1) = 2 for any chain
    cfg = homogeneous(10, 1.0)
    v = np.ones(cfg.n_atoms)
    assert norm_l2eps(v, cfg.eps) ** 2 == pytest.approx(2.0)


def test_weighted_norm_single_spike():
    # single curvature spike at j=0 with K=4: weight e^{-4 m s0}
    N, K, m, s0 = 10, 4, 1.0, 1.05
    ypp = np.zeros(2 * N + 1)
    ypp[N] = 2.5
    eps = 2.0 / (2 * N + 1)
    got = norm_weighted(ypp, eps, s0, m, K)
    assert got == pytest.approx(np.sqrt(eps * np.exp(-4 * m * s0) * 2.5**2), rel=1e-12)
    # outside the band the weight is 1
    ypp2 = np.zeros(2 * N + 1)
    ypp2[N + K + 3] = 2.5
    got2 = norm_weighted(ypp2, eps, s0, m, K)
    assert got2 == pytest.approx(np.sqrt(eps * 2.5**2), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(3, 1.0, np.ones(7))  # not mean-zero
    with pytest.raises(ValueError):
        ChainConfig(3, 1.0, np.zeros(6))  # wrong length
    with pytest.raises(ValueError):
        ChainConfig(3, -1.0, np.zeros(7))  # bad stretch
    with pytest.raises(ValueError):
        ChainConfig(0, 1.0, np.zeros(1))
    # 2N+1 atoms indexed j = -N..N: a fractional N describes no chain
    with pytest.raises(ValueError, match="N must be an integer >= 1, got 2.5"):
        ChainConfig(2.5, 1.1, np.zeros(6))
    assert ChainConfig(np.int64(2), 1.1, np.zeros(5)).N == 2

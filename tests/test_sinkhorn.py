import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from geoseg.sinkhorn import (
    EXP_RANGE_BOUND,
    SinkhornConfig,
    _exp_domain_safe,
    solve,
)


def marginal_residual(plan: np.ndarray) -> float:
    """L1 distance of the plan's row and column sums from 1/n and 1/m."""
    n, m = plan.shape
    rows = np.abs(plan.sum(axis=1) - 1.0 / n).sum()
    cols = np.abs(plan.sum(axis=0) - 1.0 / m).sum()
    return float(rows + cols)


def naive_plan(cost: np.ndarray, sigma: float, iters: int = 10000, tol: float = 1e-14):
    """Independent fixed-point oracle: direct scaling in the exp domain.

    Deliberately written the textbook way (kernel matrix, u/v vectors) so
    it shares no code with the solver under test (no row shift, no
    plan-free residual, no log-domain fallback).
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    kernel = np.exp(-cost / sigma)
    v = np.ones(m)
    u = np.ones(n)
    for _ in range(iters):
        u = a / (kernel @ v)
        v = b / (kernel.T @ u)
        plan = u[:, None] * kernel * v[None, :]
        residual = np.abs(plan.sum(axis=1) - a).sum() + np.abs(plan.sum(axis=0) - b).sum()
        if residual < tol:
            break
    return u[:, None] * kernel * v[None, :]


def test_one_by_one_is_the_unit_plan():
    for sigma in (0.05, 0.5, 3.0):
        result = solve(np.array([[7.0]]), SinkhornConfig(sigma=sigma))
        assert_allclose(result.plan, [[1.0]], atol=1e-15)


def test_constant_cost_gives_product_measure():
    result = solve(np.full((3, 4), 2.5), SinkhornConfig())
    assert_allclose(result.plan, np.full((3, 4), 1.0 / 12.0), atol=1e-12)


def test_antidiagonal_cost_concentrates_on_cheap_pairs():
    result = solve(np.array([[0.0, 1.0], [1.0, 0.0]]), SinkhornConfig(sigma=0.05))
    expected = naive_plan(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05)
    assert_allclose(result.plan, expected, atol=1e-12)
    assert result.plan[0, 1] < 1e-8
    assert result.plan[1, 0] < 1e-8
    assert_allclose(np.diag(result.plan), [0.5, 0.5], atol=1e-8)


def test_random_cost_matches_oracle(rng):
    cost = rng.uniform(0.0, 1.0, size=(5, 3))
    result = solve(cost, SinkhornConfig(sigma=0.5, max_iters=2000, tol=1e-12))
    assert_allclose(result.plan, naive_plan(cost, 0.5), atol=1e-9, rtol=0)


def shifted_cost(cost: np.ndarray, sigma: float) -> np.ndarray:
    return (cost - cost.min(axis=1, keepdims=True)) / sigma


def test_small_sigma_does_not_underflow(rng):
    # exp(-cost/sigma) alone would underflow to hard zeros here; the
    # log-domain fallback must still produce a valid coupling.
    cost = rng.uniform(0.0, 80.0, size=(6, 4))
    assert not _exp_domain_safe(shifted_cost(cost, 0.01))
    result = solve(cost, SinkhornConfig(sigma=0.01, max_iters=5000))
    assert np.all(result.plan >= 0.0)
    assert_allclose(result.plan.sum(), 1.0, atol=1e-9)


def test_training_scale_cost_takes_the_fast_path(rng):
    # Plans in training see row ranges of C / sigma below 30.
    cost = rng.uniform(0.0, 1.4, size=(40, 8))
    assert shifted_cost(cost, 0.05).max() < 30.0
    assert _exp_domain_safe(shifted_cost(cost, 0.05))
    assert not _exp_domain_safe(np.array([[0.0, EXP_RANGE_BOUND]]))


def test_fallback_matches_oracle_just_above_the_bound(rng):
    # A row range in [bound, 700) takes the fallback, while the oracle's
    # kernel stays above float64's smallest normal number.
    cost = rng.uniform(0.0, 1.0, size=(7, 5))
    cost[:, 0] = 0.0
    cost[:, -1] = 1.0
    sigma = 1.0 / 600.0
    assert EXP_RANGE_BOUND <= shifted_cost(cost, sigma).max() < 700.0
    assert not _exp_domain_safe(shifted_cost(cost, sigma))
    result = solve(cost, SinkhornConfig(sigma=sigma, max_iters=5000, tol=1e-13))
    assert_allclose(result.plan, naive_plan(cost, sigma), atol=1e-9, rtol=0)


@pytest.mark.parametrize("sigma, fast", [(0.5, True), (0.01, False)])
def test_capped_run_reports_the_residual_of_its_plan(sigma, fast, rng):
    cost = rng.uniform(0.0, 80.0, size=(6, 4))
    assert _exp_domain_safe(shifted_cost(cost, sigma)) == fast
    result = solve(cost, SinkhornConfig(sigma=sigma, max_iters=1, tol=1e-16))
    assert result.iters_used == 1
    assert result.residual > 0.0
    assert marginal_residual(result.plan) == pytest.approx(result.residual, abs=1e-15)


def test_reports_iterations_and_residual(rng):
    cost = rng.uniform(0.0, 1.0, size=(4, 4))
    result = solve(cost, SinkhornConfig(sigma=0.5, max_iters=2000, tol=1e-10))
    assert result.residual < 1e-10
    assert 1 <= result.iters_used <= 2000
    assert result.shape == (4, 4)
    # The stored residual is exactly the recomputed one.
    assert marginal_residual(result.plan) == pytest.approx(result.residual, abs=1e-15)
    # The helper reads zero on an exact product plan and twice an offset
    # added to one of its entries, so the comparison above checks the solver.
    product = np.full((2, 3), 1.0 / 6.0)
    assert marginal_residual(product) == 0.0
    product[0, 1] += 1e-6
    assert marginal_residual(product) == pytest.approx(2e-6, rel=1e-9)


def test_nonconvergence_is_reported_not_raised(rng):
    cost = rng.uniform(0.0, 1.0, size=(8, 5))
    result = solve(cost, SinkhornConfig(sigma=0.05, max_iters=1, tol=1e-16))
    assert result.iters_used == 1
    assert result.residual > 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        solve(np.zeros((0, 3)), SinkhornConfig())
    with pytest.raises(ValueError):
        solve(np.zeros(4), SinkhornConfig())
    with pytest.raises(ValueError):
        solve(np.array([[np.inf, 0.0]]), SinkhornConfig())
    with pytest.raises(ValueError):
        SinkhornConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(max_iters=0)
    with pytest.raises(ValueError):
        SinkhornConfig(tol=-1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([0.05, 0.2, 1.0]),
    st.integers(min_value=0, max_value=2**31),
)
def test_plan_is_a_nonnegative_unit_mass_coupling(n, m, sigma, seed):
    cost = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, m))
    result = solve(cost, SinkhornConfig(sigma=sigma, max_iters=500))
    assert np.all(result.plan >= 0.0)
    # The final column scaling pins column marginals regardless of
    # convergence, so total mass is always 1 up to float error.
    assert_allclose(result.plan.sum(), 1.0, atol=1e-9)
    assert_allclose(result.plan.sum(axis=0), np.full(m, 1.0 / m), atol=1e-9)


# ------------------------------------------------------------ stopping rule


def iterations_checking_both_marginals(cost: np.ndarray, cfg: SinkhornConfig) -> int:
    """Iterations the scaling loop takes when it stops on the L1 residual of
    the row and the column marginal, each read from the products of the
    half-steps (the solver reads the row marginal alone)."""
    n, m = cost.shape
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    shifted = shifted_cost(cost, cfg.sigma)
    if _exp_domain_safe(shifted):
        kernel = np.exp(-shifted)
        kv = kernel.sum(axis=1)
        for it in range(1, cfg.max_iters + 1):
            u = a / kv
            ktu = kernel.T @ u
            v = b / ktu
            kv = kernel @ v
            if np.abs(u * kv - a).sum() + np.abs(v * ktu - b).sum() < cfg.tol:
                break
        return it

    def lse(x, axis):
        hi = x.max(axis=axis, keepdims=True)
        return np.squeeze(hi + np.log(np.exp(x - hi).sum(axis=axis, keepdims=True)), axis)

    row_lse = lse(-shifted, 1)
    for it in range(1, cfg.max_iters + 1):
        f = np.log(a) - row_lse
        col_lse = lse(-shifted + f[:, None], 0)
        g = np.log(b) - col_lse
        row_lse = lse(-shifted + g[None, :], 1)
        residual = np.abs(np.exp(f + row_lse) - a).sum() + np.abs(np.exp(g + col_lse) - b).sum()
        if residual < cfg.tol:
            break
    return it


@pytest.mark.parametrize("sigma, fast", [(0.5, True), (0.05, True), (0.01, False)])
def test_row_residual_stops_where_both_marginals_would(sigma, fast, rng):
    for shape in ((5, 3), (40, 8), (3, 7), (1, 4)):
        cost = rng.uniform(0.0, 80.0 * sigma if fast else 80.0, size=shape)
        assert _exp_domain_safe(shifted_cost(cost, sigma)) == fast
        cfg = SinkhornConfig(sigma=sigma, max_iters=5000)
        assert solve(cost, cfg).iters_used == iterations_checking_both_marginals(cost, cfg)


def test_training_costs_stop_where_both_marginals_would(monkeypatch):
    # Every plan of four ablation-scale steps, as training solves them.
    from dataclasses import replace

    import geoseg.geometry_embedding as ge
    from geoseg.synthetic import SynthConfig, make_split
    from geoseg.training import ablation_base_config, train

    solved = []
    monkeypatch.setattr(ge, "solve", lambda cost, cfg: solved.append(
        (cost, cfg, solve(cost, cfg))) or solved[-1][2])
    synth = SynthConfig()
    scenes, _ = make_split(synth, 8, 0)
    train(replace(ablation_base_config(), epochs=2), scenes, synth.classes)
    assert len(solved) >= 20
    for cost, cfg, plan in solved:
        assert plan.iters_used == iterations_checking_both_marginals(cost, cfg)

"""Entropic optimal transport between uniform marginals.

Given an n x m cost matrix C and regularization sigma, the solver finds
the fixed point of the scaling iteration

    u <- a / (K v),   v <- b / (K^T u),   K = exp(-C / sigma),

with a = (1/n) 1 and b = (1/m) 1, starting from v = 1. The returned plan
is diag(u) K diag(v). All arithmetic happens in the log domain
(log-sum-exp with max subtraction), so small sigma never underflows.
Iteration stops once the L1 residual of both marginals drops below tol
or max_iters is reached; non-convergence is reported via the residual,
never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SinkhornConfig:
    sigma: float = 0.05
    max_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class TransportPlan:
    """Solved plan between uniform marginals, with solver diagnostics."""

    plan: np.ndarray
    iters_used: int
    residual: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.plan.shape


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(x, axis=axis, keepdims=True)
    out = hi + np.log(np.sum(np.exp(x - hi), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def solve(cost: np.ndarray, cfg: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Transport plan between uniform marginals for the given cost matrix.

    Args:
        cost: (n, m) finite cost matrix, n >= 1 and m >= 1.
        cfg: regularization and stopping parameters.

    Returns:
        TransportPlan whose plan entries are non-negative with total mass 1
        up to the achieved residual.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValueError(f"cost must be a non-empty 2-D matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost contains non-finite entries")

    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    log_a = np.log(a)
    log_b = np.log(b)
    log_k = -cost / cfg.sigma

    # v = 1 start, i.e. g = 0; f is overwritten before first use.
    g = np.zeros(m)
    for it in range(1, cfg.max_iters + 1):
        f = log_a - _logsumexp(log_k + g[None, :], axis=1)
        g = log_b - _logsumexp(log_k + f[:, None], axis=0)
        plan = np.exp(f[:, None] + log_k + g[None, :])
        residual = float(
            np.abs(plan.sum(axis=1) - a).sum() + np.abs(plan.sum(axis=0) - b).sum()
        )
        iters_used = it
        if residual < cfg.tol:
            break
    return TransportPlan(plan, iters_used, residual)


def plan_marginal_residual(plan: TransportPlan) -> float:
    """L1 distance of the plan's marginals from the uniform 1/n and 1/m."""
    p = plan.plan
    n, m = p.shape
    return float(np.abs(p.sum(axis=1) - 1.0 / n).sum() + np.abs(p.sum(axis=0) - 1.0 / m).sum())

"""Entropic optimal transport between uniform marginals.

Given an n x m cost matrix C and regularization sigma, the solver finds
the fixed point of the scaling iteration

    u <- a / (K v),   v <- b / (K^T u),   K = exp(-S),

with a = (1/n) 1 and b = (1/m) 1, starting from v = 1, and returns the
plan diag(u) K diag(v). S = (C - rowmin C) / sigma is the scaled cost
with each row shifted to minimum 0; the shift only rescales u, so the
plan is that of exp(-C / sigma).

Fast path: while the largest row range max S stays below EXP_RANGE_BOUND
(500), K and a contiguous K^T are built once and each iteration is two
matrix-vector products. Every kernel entry is then at least e^-500, a
normal float64, so K v and K^T u stay positive, and float64's range down
to e^-708 leaves a factor e^208 of headroom for the scalings u and v, whose log
spread after an update is at most the row range.

Fallback: at or above the bound (tiny sigma against the cost's spread),
the same iteration runs on the log potentials log u and log v with
log-sum-exp, which never underflows.

Both paths stop once the L1 residual of the row marginal drops below tol
or max_iters is reached. The column marginal needs no check: each
iteration ends with the column update v = b / K^T u, so the columns of
diag(u) K diag(v) sum to v * K^T u = b in exact arithmetic, and in float64
they are off by rounding only (below 1e-16 at the sizes training solves,
against tol 1e-8). The row sums are u * K v, read from the product K v
that the next row update needs, so the plan is built once, after the
loop; the reported residual, of both marginals, is recomputed from that
plan. Non-convergence is reported via the residual, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoseg.autodiff import _row_reduce

# Largest row range of (C - rowmin C) / sigma that the exp domain takes:
# every kernel entry is then at least e^-500 ~ 7e-218, a normal float64.
EXP_RANGE_BOUND = 500.0


@dataclass(frozen=True)
class SinkhornConfig:
    sigma: float = 0.05
    max_iters: int = 50
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


def _marginal_residual(plan: np.ndarray) -> float:
    """L1 distance of the plan's row and column sums from 1/n and 1/m."""
    n, m = plan.shape
    return float(
        np.abs(_row_reduce(np.add, plan) - 1.0 / n).sum()
        + np.abs(plan.sum(axis=0) - 1.0 / m).sum()
    )


def _exp_domain_safe(shifted: np.ndarray) -> bool:
    """Whether the row-shifted scaled cost fits the exp-domain iteration."""
    return float(shifted.max()) < EXP_RANGE_BOUND


def _scaling(
    shifted: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: SinkhornConfig
) -> tuple[np.ndarray, int]:
    """Exp-domain iteration on K = exp(-shifted); the plan and iterations used."""
    kernel = np.exp(-shifted)
    kernel_t = np.ascontiguousarray(kernel.T)
    kv = _row_reduce(np.add, kernel)  # K v with v = 1
    row = np.empty_like(a)
    for it in range(1, cfg.max_iters + 1):
        u = a / kv
        v = b / (kernel_t @ u)
        kv = kernel @ v
        np.multiply(u, kv, out=row)
        np.subtract(row, a, out=row)
        if np.add.reduce(np.abs(row, out=row)) < cfg.tol:
            break
    return u[:, None] * kernel * v[None, :], it


def _log_scaling(
    shifted: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: SinkhornConfig
) -> tuple[np.ndarray, int]:
    """The same iteration on the potentials f = log u, g = log v."""
    log_k = -shifted
    log_a = np.log(a)
    log_b = np.log(b)
    row_lse = _logsumexp(log_k, axis=1)  # g = 0
    row = np.empty_like(a)
    for it in range(1, cfg.max_iters + 1):
        f = log_a - row_lse
        g = log_b - _logsumexp(log_k + f[:, None], axis=0)
        row_lse = _logsumexp(log_k + g[None, :], axis=1)
        np.exp(np.add(f, row_lse, out=row), out=row)
        np.subtract(row, a, out=row)
        if np.add.reduce(np.abs(row, out=row)) < cfg.tol:
            break
    return np.exp(f[:, None] + log_k + g[None, :]), it


def solve(cost: np.ndarray, cfg: SinkhornConfig) -> TransportPlan:
    """Transport plan between uniform marginals for the given cost matrix.

    Args:
        cost: (n, m) finite cost matrix, n >= 1 and m >= 1.
        cfg: regularization and stopping parameters.

    Returns:
        TransportPlan whose plan entries are non-negative with total mass 1
        up to the achieved residual, which is measured on the plan itself.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValueError(f"cost must be a non-empty 2-D matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost contains non-finite entries")

    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    shifted = (cost - _row_reduce(np.minimum, cost)[:, None]) / cfg.sigma
    iterate = _scaling if _exp_domain_safe(shifted) else _log_scaling
    plan, iters_used = iterate(shifted, a, b, cfg)
    return TransportPlan(plan, iters_used, _marginal_residual(plan))

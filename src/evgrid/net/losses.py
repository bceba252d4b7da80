"""Fused loss heads with analytic gradients.

Both losses consume a pre-head tensor of shape (N, C, H, W) and a target
array of the same layout and return a scalar Tensor (mean over batch and
cells).
"""

from __future__ import annotations

import numpy as np

from evgrid.errors import ConfigError
from evgrid.net.tensor import Tensor, _accumulate


def softmax_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Channel-wise softmax cross entropy against belief-vector targets.

    Targets are rows of (b_f, b_o, u); the conflict target (0.5, 0.5, 0)
    simply weights the two log-probabilities.
    """
    if logits.shape != target.shape:
        raise ConfigError(f"logits shape {logits.shape} != target shape {target.shape}")
    y = logits.data
    ymax = y.max(axis=1, keepdims=True)
    lse = ymax + np.log(np.exp(y - ymax).sum(axis=1, keepdims=True))
    logp = y - lse
    n_cells = y.shape[0] * y.shape[2] * y.shape[3]
    loss = -(target * logp).sum() / n_cells
    t = Tensor(np.asarray(loss, dtype=y.dtype), parents=(logits,))

    def backward(g):
        p = np.exp(logp)
        _accumulate(logits, g * (p - target) / n_cells)

    t._backward = backward
    return t


def softmax(y: np.ndarray) -> np.ndarray:
    """Softmax over the first axis, the channels of one (C, H, W) map."""
    ymax = y.max(axis=0, keepdims=True)
    e = np.exp(y - ymax)
    return e / e.sum(axis=0, keepdims=True)


def evidential_bayes_risk(evidence: Tensor, target: np.ndarray) -> Tensor:
    """Bayesian-risk loss of a Dirichlet head with unknown-target handling.

    Per cell, with alpha = e + 1 (K = 2, uniform base rate), S = 2 + sum(e),
    p = alpha / S and u = 2 / S:

        L = [ sum_k (t_k - p_k)^2 + p_k (1 - p_k) / (S + 1) ] * (t_f + t_o)
            + (1 - u)^2 * t_u

    For pure free/occupied/conflict targets the bracket alone is active; for
    the unknown target only the evidence-suppressing second term remains.
    """
    if evidence.shape != target.shape[:1] + (2,) + target.shape[2:]:
        raise ConfigError(
            f"evidence shape {evidence.shape} incompatible with target shape {target.shape}")
    e = evidence.data
    k = 2.0
    t_b = target[:, :2]  # belief-mass targets (t_f, t_o)
    t_u = target[:, 2]
    s = k + e.sum(axis=1, keepdims=True)  # (N,1,H,W)
    p = (e + 1.0) / s
    u_hat = k / s[:, 0]
    known = t_b.sum(axis=1)  # t_f + t_o
    bracket = (np.square(t_b - p) + p * (1.0 - p) / (s + 1.0)).sum(axis=1)
    per_cell = bracket * known + np.square(1.0 - u_hat) * t_u
    n_cells = per_cell.size
    t = Tensor(np.asarray(per_cell.sum() / n_cells, dtype=e.dtype), parents=(evidence,))

    def backward(g):
        # dp_k/de_j = (delta_kj - p_k) / S ; dS/de_j = 1 ; du/de_j = -K/S^2
        diff = t_b - p
        var_sum = (p * (1.0 - p)).sum(axis=1, keepdims=True)
        # d/de_j of sum_k (t_k - p_k)^2
        d_sq = (-2.0 * diff * (1.0 / s)) + 2.0 * (diff * p).sum(axis=1, keepdims=True) / s
        # d/de_j of sum_k p_k(1-p_k)/(S+1)
        d_var = ((1.0 - 2.0 * p) / (s * (s + 1.0))
                 - ((1.0 - 2.0 * p) * p).sum(axis=1, keepdims=True) / (s * (s + 1.0))
                 - var_sum / np.square(s + 1.0))
        d_known = (d_sq + d_var) * known[:, None]
        d_unknown = (2.0 * (1.0 - u_hat) * k / np.square(s[:, 0]) * t_u)[:, None]
        _accumulate(evidence, g * (d_known + d_unknown) / n_cells)

    t._backward = backward
    return t

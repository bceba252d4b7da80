"""Subjective-Logic state algebra.

Connects the three views of a cell's occupancy state over the two classes
(free, occupied): a nonnegative evidence vector, the belief/unknown masses
it induces, and the expectation of the Dirichlet distribution it
parameterizes. ``evidence_to_belief_array`` is the one implementation of
b = e/S, u = 2/S, and ``evidence_to_evidential`` a thin per-state wrapper
over it; the per-state functions serve the tests as oracles. Dropout-sampled
evidence is reduced by a nearest-rank percentile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from evgrid.errors import DomainError

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProbabilisticState:
    """Binary occupancy probabilities (p_f, p_o), summing to 1."""

    p_f: float
    p_o: float

    def __post_init__(self) -> None:
        for v in (self.p_f, self.p_o):
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"probability out of [0,1]: {v}")
        if abs(self.p_f + self.p_o - 1.0) > _SUM_TOL:
            raise DomainError("probabilities must sum to 1")


@dataclass(frozen=True)
class EvidentialState:
    """Belief masses (b_f, b_o) plus unknown mass u, summing to 1."""

    b_f: float
    b_o: float
    u: float

    def __post_init__(self) -> None:
        for v in (self.b_f, self.b_o, self.u):
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"belief mass out of [0,1]: {v}")
        if abs(self.b_f + self.b_o + self.u - 1.0) > _SUM_TOL:
            raise DomainError("belief masses must sum to 1")


@dataclass(frozen=True)
class Evidence:
    """Nonnegative evidence (e_f, e_o), one component per class."""

    e: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", tuple(float(v) for v in self.e))
        if len(self.e) != 2:
            raise DomainError(f"evidence has {len(self.e)} components, expected 2")
        for v in self.e:
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"evidence must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet shape parameters alpha and total strength S = sum(alpha)."""

    alpha: tuple[float, ...]
    S: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        if any(not math.isfinite(v) or v <= 0.0 for v in self.alpha):
            raise DomainError("alpha components must be finite and > 0")
        object.__setattr__(self, "S", float(sum(self.alpha)))


def evidence_to_evidential(e: Evidence) -> EvidentialState:
    """Map evidence to belief masses: b = e/S, u = 2/S with S = 2 + sum(e)."""
    b_f, b_o, u = evidence_to_belief_array(np.array(e.e)).tolist()
    return EvidentialState(b_f=b_f, b_o=b_o, u=u)


def evidence_to_dirichlet(e: Evidence) -> DirichletParams:
    """Map evidence to Dirichlet shape parameters: alpha = e + 1."""
    return DirichletParams(alpha=tuple(v + 1.0 for v in e.e))


def dirichlet_expectation(d: DirichletParams) -> ProbabilisticState:
    """Expectation of Dir(alpha): p_k = alpha_k / S."""
    p_f, p_o = (a / d.S for a in d.alpha)
    return ProbabilisticState(p_f=p_f, p_o=p_o)


def evidential_to_probability(s: EvidentialState) -> ProbabilisticState:
    """Distribute the unknown mass by the uniform base rate: p = b + u/2."""
    return ProbabilisticState(p_f=s.b_f + s.u * 0.5, p_o=s.b_o + s.u * 0.5)


def percentile_reduce_array(samples: np.ndarray, n: float) -> np.ndarray:
    """Nearest-rank percentile over the first axis (the samples) of a raw array."""
    count = len(samples)
    if count < 1:
        raise DomainError("need at least one epistemic sample")
    if not (0.0 < n <= 100.0):
        raise DomainError(f"percentile must be in (0, 100], got {n}")
    rank = math.ceil(n / 100.0 * count)  # 1-based
    return np.sort(samples, axis=0)[rank - 1]


def evidence_to_belief_array(e: np.ndarray) -> np.ndarray:
    """Map evidence to belief masses over a raw array: b = e/S, u = K/S.

    ``e`` holds K evidence components along its first axis; the result holds
    K + 1 components along it, the last being the unknown mass.
    """
    e = np.asarray(e, dtype=np.float64)
    k = len(e)
    if np.any(~np.isfinite(e)) or np.any(e < 0):
        raise DomainError("evidence must be finite and >= 0")
    s = k + e.sum(axis=0, keepdims=True)
    return np.concatenate([e / s, k / s])

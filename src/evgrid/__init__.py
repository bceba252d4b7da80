"""Evidential radar occupancy grids.

Subjective-Logic state algebra, a closed-form detection-based inverse sensor
model, Dempster's rule of combination, a from-scratch differentiable U-Net with
evidential and softmax heads, a synthetic 2-D world generator, and
conditional-probability scoring of the resulting occupancy estimates.
"""

from evgrid.errors import ConfigError, DomainError, EvgridError, TrainingDiverged

__all__ = ["EvgridError", "DomainError", "ConfigError", "TrainingDiverged"]

__version__ = "0.1.0"

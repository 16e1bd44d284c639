"""Robust multiclass linear classification with tempered log/exp losses.

Two temperatures shape the surrogate loss: t1 deforms the logarithm
(bounding the loss for t1 < 1) and t2 deforms the exponential that maps
activations to probabilities (heavy tails for t2 > 1). The package bundles
the kernels, a matching-loss trainer, curvature and calibration
diagnostics, and a seeded noise-robustness experiment harness.

Each module's __all__ is the one list of its public names; the package
exports their concatenation, in dependency order.
"""

from .tempered import *
from .partition import *
from .loss import *
from .optimizer import *
from .data import *
from .model import *
from .analysis import *
from .verify import *
from .experiment import *
from . import analysis, data, experiment, loss, model, optimizer, partition, tempered, verify

__version__ = "0.1.0"

__all__ = (
    tempered.__all__ + partition.__all__ + loss.__all__ + optimizer.__all__ + data.__all__
    + model.__all__ + analysis.__all__ + verify.__all__ + experiment.__all__
)

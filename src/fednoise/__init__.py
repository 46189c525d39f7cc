"""Deterministic federated-learning simulator for training under label noise.

Numpy-only models and losses, seeded end to end: a config plus a seed
reproduces every draw, every parameter, and every output file.

The package re-exports every name in its modules' ``__all__`` lists, and
only those: each module's ``__all__`` is the one list of what it offers.
"""

from . import augment, data, federation, harness, losses, model, numerics
from .augment import *  # noqa: F401, F403
from .data import *  # noqa: F401, F403
from .federation import *  # noqa: F401, F403
from .harness import *  # noqa: F401, F403
from .losses import *  # noqa: F401, F403
from .model import *  # noqa: F401, F403
from .numerics import *  # noqa: F401, F403

# numpy loads numpy.random on first use, which would book its import to the
# first draw of a run; load it with the package instead. After the package's
# own modules it reuses memory their imports freed: loaded before them, it
# left a run's peak RSS 0.3-0.6 MB higher.
import numpy.random  # noqa: E402, F401

__version__ = "0.1.0"

__all__ = [
    name
    for module in (augment, data, federation, harness, losses, model, numerics)
    for name in module.__all__
] + ["__version__"]

"""Bilateral two-dimensional quaternion PCA with Lp norms.

Color images become pure quaternion matrices; two orthonormal bases of
projection directions are fitted by Lp-sphere ascent with deflation and
drive nearest-neighbor recognition and image reconstruction.
"""

from . import dataset, errors, quaternion, recognition, reconstruction, solver, weighting
from .errors import *
from .quaternion import *
from .solver import *
from .weighting import *
from .recognition import *
from .reconstruction import *
from .dataset import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *quaternion.__all__, *solver.__all__, *weighting.__all__,
           *recognition.__all__, *reconstruction.__all__, *dataset.__all__, "__version__"]

"""Dissipative stabilization of entangled atomic pairs in a 1D array
coupled to a broadband squeezed vacuum: master-equation dynamics,
analytic dark-state constructors, observables, and sweep tooling.

Importing the package sets OPENBLAS_THREAD_TIMEOUT to 4 (2^4 cycles,
OpenBLAS's shortest spin) unless the user set it, before numpy loads:
an idle OpenBLAS worker then sleeps at once instead of spinning for about
0.1 s after each threaded call, and sweep workers inherit the setting.
A caller that imports numpy before the package keeps OpenBLAS's default.
"""

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")  # read once, when numpy loads

__version__ = "0.1.0"

from . import darkstates, dynamics, model, observables  # noqa: E402
from .darkstates import *  # noqa: E402,F401,F403
from .dynamics import *  # noqa: E402,F401,F403
from .model import *  # noqa: E402,F401,F403
from .observables import *  # noqa: E402,F401,F403

__all__ = ["__version__", *darkstates.__all__, *dynamics.__all__, *model.__all__,
           *observables.__all__]

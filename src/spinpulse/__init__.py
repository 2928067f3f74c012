"""spinpulse: composite-pulse spin control simulation and verification.

Models systematic rotation-angle and phase errors in pulsed magnetic
resonance, builds BB1-corrected sequences, and provides desk-scale
numerical versions of three verification protocols: corrected nutation
traces, CP/CPMG echo-train error estimation, and echo-modulation
frequency ratios.

The package namespace is the union of the six modules' ``__all__``
lists plus ``__version__``; each module lists its public names once.
"""

from . import analysis, dsl, errors, sequence, simulator, su2
from .analysis import *  # noqa: F401,F403
from .dsl import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .sequence import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .su2 import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *su2.__all__,
    *sequence.__all__,
    *dsl.__all__,
    *errors.__all__,
    *simulator.__all__,
    *analysis.__all__,
    "__version__",
]

"""Exact arithmetic for rational blow-down constructions on blown-up planes.

The package follows one pipeline: blow up the projective plane along a
scripted sequence of (possibly infinitely near) points while tracking named
curve classes exactly (:mod:`blowdown.lattice`); recognise and generate the
chains of class T whose contractions smooth into rational homology balls
(:mod:`blowdown.tchains`); contract chains numerically, producing
discrepancies, the pullback of the canonical class and nef tests
(:mod:`blowdown.contraction`); account for the surgery topologically, from
the fundamental group closure to the homeomorphism fingerprint
(:mod:`blowdown.topology`); and replay complete constructions shipped as
JSON datasets, grading every recorded value (:mod:`blowdown.constructions`).
"""

__version__ = "0.1.0"

from . import constructions, contraction, lattice, tchains, topology
from .constructions import *  # noqa: F401,F403
from .contraction import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .tchains import *  # noqa: F401,F403
from .topology import *  # noqa: F401,F403

# The public names are each module's own ``__all__``.
__all__ = [
    "__version__",
    *lattice.__all__,
    *tchains.__all__,
    *contraction.__all__,
    *topology.__all__,
    *constructions.__all__,
]

"""Translation surfaces in the upper half-space model: group structure,
surface jets, soliton residuals, profile ODEs, and deterministic exports.
The public names are each module's ``__all__``."""

from .errors import *
from .lie_halfspace import *
from .profile_odes import *
from .soliton_residuals import *
from .surface_factory import *
from .surface_jets import *

__version__ = "0.1.0"

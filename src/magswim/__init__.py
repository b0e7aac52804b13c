"""magswim: simulation and analysis of a planar three-link magneto-elastic swimmer."""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
from . import brackets, checks, dynamics, errors, linear, model, runconfig
from . import serialize, simulate
from .model import *
from .dynamics import *
from .errors import *
from .simulate import *
from .linear import *
from .brackets import *
from .runconfig import *
from .serialize import *
from .checks import *

__all__ = ["__version__", *model.__all__, *dynamics.__all__, *errors.__all__,
           *simulate.__all__, *linear.__all__, *brackets.__all__,
           *runconfig.__all__, *serialize.__all__, *checks.__all__]

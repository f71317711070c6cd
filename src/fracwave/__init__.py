"""fracwave: closed-form travelling-wave solutions of fractional wave
equations on scaled coordinates, plus the numerical machinery to verify them
(fractional operators, grid residuals, stability bounds).  The package
re-exports each module's __all__, its public surface, in module order."""

from . import core, expr, fracops, solver, transform, verify
from .core import *
from .expr import *
from .fracops import *
from .solver import *
from .transform import *
from .verify import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += core.__all__
__all__ += expr.__all__
__all__ += fracops.__all__
__all__ += solver.__all__
__all__ += transform.__all__
__all__ += verify.__all__
__all__ += ["__version__"]

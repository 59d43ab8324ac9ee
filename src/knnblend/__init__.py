"""knnblend: retrieval-augmented classification with a decoupled key space.

A small trainable encoder produces two representations per instance: one for
the softmax classifier and one (through a separate MLP, shaped by a triplet
loss) for exact nearest-neighbor retrieval. At prediction time the label
votes of retrieved neighbors are blended with the classifier's distribution.

The package exports each module's `__all__`; `cli` is left to `knnblend.cli`.
"""

from types import ModuleType as _ModuleType

from .core import *
from .data import *
from .datastore import *
from .evaluate import *
from .model import *
from .retrieval import *
from .training import *

__version__ = "0.1.0"

# Each star import above also binds its submodule here; their exports are the package's.
_modules = [value for value in list(globals().values()) if isinstance(value, _ModuleType)]
__all__ = [*sorted({name for module in _modules for name in module.__all__}), "__version__"]

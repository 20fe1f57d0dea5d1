"""Profit/loss distribution of a stop-protected affine feedback trading rule.

The package has four layers: parameter types and closed-form gain expressions
(:mod:`stopgain.model`), the distribution functions (:mod:`stopgain.cdf`), a
seeded Monte Carlo sampler (:mod:`stopgain.simulate`) and the comparison
harness tying the two together (:mod:`stopgain.verify`).  The ``stopgain``
command line wraps all of it.  Each module's ``__all__`` is its public API;
the package re-exports all of them.
"""

from . import cdf, errors, model, simulate, verify
from .cdf import *
from .errors import *
from .model import *
from .simulate import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *model.__all__, *cdf.__all__, *simulate.__all__, *verify.__all__]

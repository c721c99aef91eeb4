"""Saran F_K-type hypergeometric functions, their q-analogues, and numerical
verification of the Erdelyi-type integral identities relating them.

Quick start::

    from saranfk import gauss_2f1, FkParams, saran_fk_triple
    from saranfk import builtin_registry, verify_identity

    gauss_2f1(1, 1, 2, 0.5).value            # 2 log 2
    case = {c.id: c for c in builtin_registry()}["fk-erdelyi"]
    verify_identity(case, seed=42, count=5).passed

The public names are those listed in each module's ``__all__``; this package
re-exports exactly their union.
"""

from . import core, errors, measures, qkernels, registry, series
from .core import *
from .errors import *
from .measures import *
from .qkernels import *
from .registry import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *errors.__all__, *measures.__all__,
    *qkernels.__all__, *registry.__all__, *series.__all__,
]

"""Isometric colligations over finite test-function families.

The package models functions f on a finite point set that admit a
transfer-function realization f(x) = A + B L(x) (I - D L(x))^{-1} C,
where L(x) substitutes test-function values into an orthogonal
projection decomposition of the state space.  It provides evaluation,
composition, three certified factorization routes through a structured
block pattern, and positivity checks linking realizations to kernel
families.
"""

from __future__ import annotations

from . import errors, factorization, fileio, linalg, realization, testfn
from .errors import *  # noqa: F401,F403
from .factorization import *  # noqa: F401,F403
from .fileio import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .realization import *  # noqa: F401,F403
from .testfn import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, factorization, fileio, linalg, realization, testfn)
    for name in module.__all__
] + ["__version__"]

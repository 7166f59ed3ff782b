"""Exact computation in two-parameter Hecke algebras of finite Coxeter groups.

The package builds finite Coxeter systems, multiplies in the corresponding
Hecke algebra over Z[a, b], manipulates modules through induction,
restriction, outer products, and twisting along (anti)automorphisms, and
verifies the resulting decomposition and compatibility identities with exact
rational arithmetic.  The `hecke-kit` console script exposes the same checks
from the command line.

The top level carries the names the README's library section documents;
everything else is reached through its submodule (`hecke_kit.repmod`, ...).
"""

from .scalars import ParamSpec
from .coxeter import get_system
from .report import TOOL_VERSION
from .repmod import (
    boxtimes,
    direct_sum,
    hom_space,
    induce,
    iso_test,
    outer_tensor,
    regular,
    restrict,
    twist_along,
)
from .mackey import build_sides, verify, verify_tensor_decomposition
from .twists import verify_thm44, verify_thm48
from .battery import run_suite

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    "ParamSpec",
    "get_system",
    "regular",
    "induce",
    "restrict",
    "outer_tensor",
    "boxtimes",
    "twist_along",
    "direct_sum",
    "hom_space",
    "iso_test",
    "build_sides",
    "verify",
    "verify_tensor_decomposition",
    "verify_thm44",
    "verify_thm48",
    "run_suite",
]

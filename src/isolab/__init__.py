"""isolab: closed-form and numerical cross-checks for an isomonodromic correspondence.

The package connects four descriptions of the same rank-3 monodromy object:

* asymptotic data (sigma, J, theta) of a Painleve VI transcendent near x = 0,
* the boundary value Phi0 of the associated isomonodromic flow,
* the Stokes matrices of the rank-one irregular ODE built from Phi0,
* trace coordinates of the monodromy representation,

together with the explicit maps between them (``arrow_q``, ``arrow_g``,
``arrow_p``, ``arrow_f``) and three independent numerical oracles
(a Painleve VI trajectory integrator with regularised x -> 0 limits, the
deformation flow in the pole locations u, and direct numerical Stokes
matrices).  The composition arrow_f o arrow_p o arrow_g o arrow_q is the
identity on (sigma, J), and the test-suite holds the package to that.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import arrows, core_linalg, jmms_flow, ode_engine
from . import pvi_trajectory, special_fn, stokes_numeric
from .errors import IsolabError

# cli_harness is not imported here, so that ``python -m isolab.cli_harness``
# runs the CLI as __main__ without a second copy in sys.modules.
__all__ = [
    "__version__",
    "IsolabError",
    "arrows",
    "cli_harness",
    "core_linalg",
    "jmms_flow",
    "ode_engine",
    "pvi_trajectory",
    "special_fn",
    "stokes_numeric",
]

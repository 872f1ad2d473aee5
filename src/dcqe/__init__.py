"""Finite probability tools for delayed-choice eraser statistics.

The package centers on one object, a joint distribution P(X, C, D) over
screen bin X, choice setting C, and detection label D, and one question:
which of the four structural properties

* independence of X and C,
* losslessness (no LOSS label carrying mass),
* deterministic routing D = f(C),
* distinct detector conditionals p(x | d),

does a given table satisfy? No table satisfies all four, and the audit in
:mod:`dcqe.audit` reports which ones fail, with explicit witnesses. Joint
tables come from :mod:`dcqe.architectures`, which builds the standard
eraser layouts from interference models and the classical region-routing
construction that reproduces conditional fringes by selection alone; from
Monte Carlo event logs (:mod:`dcqe.events`); or from files
(:mod:`dcqe.io`). The :mod:`dcqe.feasibility` module treats the loss
loophole quantitatively: exact bounds on the loss rate, explicit witness
tables, and an exact rational feasibility decision.

Each of those modules names its public API in its own ``__all__``; this
package republishes exactly those names, and its ``__all__`` is their
sorted union.
"""

from . import architectures as _architectures
from . import audit as _audit
from . import errors as _errors
from . import events as _events
from . import feasibility as _feasibility
from . import joint as _joint
from .architectures import *
from .audit import *
from .errors import *
from .events import *
from .feasibility import *
from .joint import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (_architectures, _audit, _errors, _events, _feasibility, _joint)
        for name in module.__all__
    }
)

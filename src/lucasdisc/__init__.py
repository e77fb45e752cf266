"""Verification toolkit: k-generalized Lucas numbers never hit |disc|.

The package proves-by-computation the finite part of the statement that
no k-generalized Lucas number equals the absolute discriminant of
x^k - x^(k-1) - ... - x - 1:

* ``sequences``  -- the order-k recurrences, closed forms, identities;
* ``twoadic``    -- 2-adic valuations and Lucas congruences mod 2^E;
* ``roots``      -- certified dominant-root enclosures and growth checks;
* ``bounds``     -- discriminants, exclusion bounds, scan envelopes;
* ``campaigns``  -- the exhaustive search campaigns and their reports;
* ``lemmas``     -- cross-cutting invariant suites;
* ``cli``        -- the ``lucasdisc`` command line (not imported here).

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import sequences, twoadic, roots, bounds, campaigns, lemmas
from .sequences import *
from .twoadic import *
from .roots import *
from .bounds import *
from .campaigns import *
from .lemmas import *

__version__ = "0.1.0"

__all__ = [
    *sequences.__all__,
    *twoadic.__all__,
    *roots.__all__,
    *bounds.__all__,
    *campaigns.__all__,
    *lemmas.__all__,
    "__version__",
]

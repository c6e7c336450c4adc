"""Coupling constant and its rescaled companion.

Everything in this package is parametrised by a single coupling
``lambda <= 0``.  The stability theory holds on ``[-1/6, 0]``; the
rescaled value ``lambda_r = |lambda| / (1 - 2|lambda|)`` governs the
upper edge of the fixed-point domain and most bound constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import checked

THEOREM_LAMBDA_MIN = -1.0 / 6.0

# Open lower end of the exploratory range (-1/pi, 0]: R(t)/t tends to
# sqrt(1 - (lambda pi)^2), which has no real value from -1/pi on, and the
# exact solution of the model (Grosse-Hock-Wulkenhaar, arXiv:1908.04543)
# exists for every lambda > -1/pi.
EXPLORATORY_LAMBDA_MIN = -1.0 / math.pi


def lambda_in_theorem_range(lam: float) -> bool:
    """The stability range [-1/6, 0], with 1e-15 of room for rounding."""
    return THEOREM_LAMBDA_MIN - 1e-15 <= lam <= 0.0


class CouplingRangeError(ValueError):
    """A finite coupling outside the stability range [-1/6, 0]."""


@dataclass(frozen=True)
class Coupling:
    """Coupling ``lam`` in ``[-1/6, 0]`` with cached ``lambda_r``.

    ``exploratory=True`` (the CLI's ``--exploratory``) marks a diagnostic
    run: it widens the range to (-1/pi, 0] and nothing else; ``solve``
    keeps the envelope band and the pole guard, and no bound is asserted.
    """

    lam: float
    exploratory: bool = False
    lambda_r: float = field(init=False)

    def __post_init__(self) -> None:
        lam = float(self.lam)
        checked(lam, "coupling")
        if self.exploratory:
            if not EXPLORATORY_LAMBDA_MIN < lam <= 0.0:
                raise ValueError(
                    f"exploratory coupling must lie in (-1/pi, 0], got {lam:g}: "
                    "R(t)/t tends to sqrt(1 - (lambda pi)^2), not real from -1/pi on"
                )
        elif not lambda_in_theorem_range(lam):
            raise CouplingRangeError(f"coupling {lam} outside [{THEOREM_LAMBDA_MIN:.6f}, 0]")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(
            self, "lambda_r", abs(lam) / (1.0 - 2.0 * abs(lam))
        )

    @property
    def abs_lambda(self) -> float:
        return abs(self.lam)

    def lower_envelope_exponent(self) -> float:
        """Exponent ``-(1 - |lambda|)`` of the steep envelope edge."""
        return -(1.0 - self.abs_lambda)

    def upper_envelope_exponent(self) -> float:
        """Exponent ``-(1 - lambda_r)`` of the shallow envelope edge."""
        return -(1.0 - self.lambda_r)

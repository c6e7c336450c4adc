"""Coupling constant and its rescaled companion.

Everything in this package is parametrised by a single coupling
``lambda <= 0``.  The stability theory holds on ``[-1/6, 0]``; the
rescaled value ``lambda_r = |lambda| / (1 - 2|lambda|)`` governs the
upper edge of the fixed-point domain and most bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domain import checked

THEOREM_LAMBDA_MIN = -1.0 / 6.0

# Hard limit: lambda_r blows up at |lambda| = 1/2, and the fixed-point
# domain itself is only defined for |lambda| < 1/3.
EXPLORATORY_LAMBDA_MIN = -0.499


def lambda_in_theorem_range(lam: float) -> bool:
    """The stability range [-1/6, 0], with 1e-15 of room for rounding."""
    return THEOREM_LAMBDA_MIN - 1e-15 <= lam <= 0.0


class CouplingRangeError(ValueError):
    """A finite coupling outside the stability range [-1/6, 0]."""


@dataclass(frozen=True)
class Coupling:
    """Coupling ``lam`` in ``[-1/6, 0]`` with cached ``lambda_r``.

    ``exploratory=True`` (the CLI's ``--exploratory``) marks a diagnostic
    run: it relaxes the range check, and ``solve`` then enforces neither
    the envelope band nor the pole guard; no bound is asserted.
    """

    lam: float
    exploratory: bool = False
    lambda_r: float = field(init=False)

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if self.exploratory:
            checked(lam, "exploratory coupling", EXPLORATORY_LAMBDA_MIN, 0.0)
        else:
            checked(lam, "coupling")
            if not lambda_in_theorem_range(lam):
                raise CouplingRangeError(
                    f"coupling {lam} outside [{THEOREM_LAMBDA_MIN:.6f}, 0]"
                )
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

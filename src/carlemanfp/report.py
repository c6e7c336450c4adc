"""Verification reports: one record per certified inequality.

Margins are oriented so that a nonnegative value means the inequality
holds at every sampled point.  A strict check whose margin is positive
but below the floating-point trust band is flagged "inconclusive"
instead of passing silently.  A margin that is not finite fails.  Every
scan folds its margins through one ``Worst``, which builds its report: a
NaN margin becomes the worst, and a scan that sampled nothing keeps
+inf, so both fail.  The
JSON report is strict (RFC 8259): such a margin, or any other non-finite
number in it, is written as the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

INCONCLUSIVE_BAND = 1e-9


@dataclass
class VerificationReport:
    lemma_id: str
    domain: str
    worst_margin: float
    worst_location: object = None
    passed: bool = False
    strict: bool = True
    notes: str = ""

    @property
    def status(self) -> str:
        if not self.passed:
            return "fail"
        if self.strict and self.worst_margin < INCONCLUSIVE_BAND:
            return "inconclusive"
        return "pass"

    def to_dict(self) -> dict:
        loc = self.worst_location
        if hasattr(loc, "tolist"):
            loc = loc.tolist()
        elif isinstance(loc, tuple):
            loc = list(loc)
        return {
            "lemma_id": self.lemma_id,
            "domain": self.domain,
            "worst_margin": float(self.worst_margin),
            "worst_location": loc,
            "passed": bool(self.passed),
            "status": self.status,
            "notes": self.notes,
        }

    def to_line(self) -> str:
        loc = self.worst_location
        if isinstance(loc, float):
            loc = f"{loc:.6g}"
        return (
            f"{self.lemma_id:<38s} margin={self.worst_margin:+.6e} "
            f"at {loc} [{self.status}]"
        )


class Worst:
    """The least margin of a scan and where it fell, folded row by row.

    The first least margin wins a tie, the first NaN margin is the least
    of all, and a scan that adds nothing keeps +inf.
    """

    def __init__(self) -> None:
        self.margin = math.inf
        self.location = None

    def add(self, margins, at: Callable[[int], object]) -> None:
        """Fold in one row of margins, a scalar or an array; ``at(i)``
        names the location of its i-th entry in flat order."""
        if math.isnan(self.margin):
            return
        row = np.ravel(margins)
        if row.size == 0:
            return
        i = int(np.argmin(row))  # the first NaN, else the first least
        m = float(row[i])
        if math.isnan(m) or m < self.margin:
            self.margin, self.location = m, at(i)

    def report(self, lemma_id: str, domain: str, *, strict: bool = True,
               floor: float = 0.0, notes: str = "") -> VerificationReport:
        """The scan's report: it passes if its least margin is finite and
        at least ``floor``."""
        return VerificationReport(
            lemma_id=lemma_id,
            domain=domain,
            worst_margin=self.margin,
            worst_location=self.location,
            passed=math.isfinite(self.margin) and self.margin >= floor,
            strict=strict,
            notes=notes,
        )


def all_passed(reports: Iterable[VerificationReport]) -> bool:
    return all(r.status == "pass" for r in reports)


def _strict(value):
    """value with every non-finite float, at any depth of its dicts, lists
    and tuples, as the string "inf", "-inf" or "nan": strict JSON has no
    token for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def write_reports_json(path, reports: Iterable[VerificationReport], meta: dict | None = None) -> None:
    payload = {
        "meta": meta or {},
        "reports": [r.to_dict() for r in reports],
    }
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

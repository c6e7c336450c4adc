"""Grid plans: the work that depends only on a grid, built once per grid.

An operator is applied again and again on one grid, and much of each
application -- the working grid's nodes, panel points and weights, the
target boxes and interpolation rows of the far field -- depends on the
grid alone.  The objects that own a grid keep that work as plans
(``hilbert``'s grid plan and the source and target plans of its PV sums),
so an application does only the work that depends on the sampled
function.  Every caller on the grid shares a plan's arrays, so
``read_only`` makes them read-only.  The plans hold the intermediates
the application used to compute, combined by the same operations in the
same order, so the results keep their bits.  ``PlanCache`` is the memo
of the quadrature weights by grid (``quadrature._weight_cache``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

import numpy as np

Plan = TypeVar("Plan")


def read_only(plan: Plan) -> Plan:
    """plan, with every array it holds made read-only: in a tuple, list or
    dict, or an attribute of an object, at any depth."""
    if isinstance(plan, np.ndarray):
        plan.setflags(write=False)
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            read_only(part)
    elif isinstance(plan, dict):
        for part in plan.values():
            read_only(part)
    elif hasattr(plan, "__dict__"):
        for part in vars(plan).values():
            read_only(part)
    return plan


class PlanCache:
    """At most ``size`` plans, the least recently used dropped first.

    ``get(key, build)`` returns the plan stored under ``key``, or builds
    one with ``build()``, makes its arrays read-only (every caller on the
    grid shares them) and stores it.  Not locked: the package runs
    single-threaded.
    """

    def __init__(self, size: int):
        self.size = size
        self._plans: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: Hashable, build: Callable[[], Plan]) -> Plan:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        plan = self._plans[key] = read_only(build())
        if len(self._plans) > self.size:
            self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        self._plans.clear()

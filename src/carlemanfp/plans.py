"""Bounded caches of grid plans: the work that depends only on a grid.

An operator is applied again and again on one grid, and much of each
application -- the working grid's nodes, panel points and weights, the
target boxes and interpolation rows of the far field -- depends on the
grid alone.  A ``RecurringPlan`` keeps that work while the same points
are asked for call after call, and a ``PlanCache`` keeps the plans of a
few grids, each keyed by the bytes of the points it was built for, so an
application does only the work that depends on the sampled function.
The plans hold the intermediates the application used to compute,
combined by the same operations in the same order, so the results keep
their bits.
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


class RecurringPlan:
    """The plan of the points asked for call after call, and no other.

    ``get(key, build)`` builds a plan with ``build()`` and makes its arrays
    read-only.  The plan is kept from the second request in a row for the
    same key on, and dropped by a request for another key or by
    ``clear``.  A loop on one grid thus builds its plan twice and then
    reads it, while points used once, or in turn with others, hold no
    memory after their use.  The plans in ``followers`` serve this one's
    points: their runs end with its run, so a request for another key
    clears them too.  Not locked: the package runs single-threaded.
    """

    def __init__(self, followers: tuple[RecurringPlan, ...] = ()):
        self._key: Hashable | None = None  # the key of the last request
        self._plan = None                  # its plan, once asked for twice
        self._followers = followers

    def __len__(self) -> int:
        return int(self._plan is not None)

    def get(self, key: Hashable, build: Callable[[], Plan]) -> Plan:
        if key != self._key:
            self.clear()
            self._key = key
            return read_only(build())
        if self._plan is None:
            self._plan = read_only(build())
        return self._plan

    def clear(self) -> None:
        self._key = self._plan = None
        for plan in self._followers:
            plan.clear()

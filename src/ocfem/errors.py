"""Exception types shared across the package."""

from __future__ import annotations


class BarrierDomainError(ValueError):
    """A barrier evaluation met a nonpositive auxiliary value.

    Carries the quadrature point index and the auxiliary component index so
    callers can report exactly where positivity was lost.
    """

    def __init__(self, point_index: int, component: int, value: float):
        self.point_index = int(point_index)
        self.component = int(component)
        self.value = float(value)
        super().__init__(
            f"auxiliary component {component} is {value!r} <= 0 at quadrature "
            f"point {point_index}; the log barrier is undefined there"
        )

"""Semi-analytical model of the discretely sampled, digitally coded cylinder.

N identical elements sit on the illuminated half of the cylinder at angles
alpha_n; element n contributes
a_n(phi) = E_n(phi) exp{ j k0 R [cos(phi - alpha_n) + cos(alpha_n)] }
to the far field, with a cosine element pattern E_n supported on
|phi - alpha_n| < pi/2. The far field of an excitation gamma is the linear
form F(phi) = a(phi)^T gamma, which makes this module the objective-function
engine for every optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_span, checked
from .geometry import AngularGrid, CylinderGeometry, phase_function, wrap_angle
from .patterns import PatternGrid, first_null_width

__all__ = [
    "ElementArray",
    "SteeringVectorTable",
    "steering_vector",
    "steering_vector_at",
    "far_field_discrete",
    "conjugate_phase_excitation",
    "reference_beamwidth",
    "reference_window",
]

REFERENCE_GRID_POINTS = 3601  # grid on which `reference_window` measures the lobe


@dataclass(frozen=True)
class ElementArray:
    """A uniform arc of N elements, pitch p along the arc, centered on phi = 0.

    Each argument obeys its `array` config key, and the arc must stay on the
    illuminated half (`config.check_span`). The element angles are computed,
    never given: alpha_n = (n - (N+1)/2) * p / R for n = 1..N.
    """

    geom: CylinderGeometry
    n_elements: int
    arc_pitch_m: float
    element_pattern: str | None = None
    alphas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_elements", "arc_pitch_m", "element_pattern"):
            object.__setattr__(self, name, checked(f"array.{name}", getattr(self, name)))
        check_span(self.n_elements, self.arc_pitch_m, self.geom.radius_m)
        n = np.arange(1, self.n_elements + 1)
        alphas = (n - (self.n_elements + 1) / 2.0) * (self.arc_pitch_m / self.geom.radius_m)
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)


def build_array(geom, n_elements, arc_pitch_m, element_pattern=None) -> ElementArray:
    """`ElementArray` under its former name, which the benchmark harness's tests call."""
    return ElementArray(geom, n_elements, arc_pitch_m, element_pattern)


def _element_gain(delta: np.ndarray, array: ElementArray) -> np.ndarray:
    """Cosine element pattern, hard-cut outside +-90 deg from the normal.

    "cos" is the plain re-radiation cosine; "cos2" additionally weights each
    element by the cosine of its illumination angle cos(alpha_n).
    """
    gain = np.where(np.abs(delta) < np.pi / 2, np.cos(delta), 0.0)
    if array.element_pattern == "cos2":
        gain = gain * np.cos(array.alphas)
    return gain


@dataclass(frozen=True)
class SteeringVectorTable:
    """Stacked per-element far-field contributions a_n(phi), grid x N."""

    grid: AngularGrid
    a: np.ndarray
    array: ElementArray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (len(self.grid), self.array.n_elements):
            raise ValueError("steering matrix shape must be (grid, N)")
        object.__setattr__(self, "a", a)

    @property
    def n_elements(self) -> int:
        return self.array.n_elements


def steering_vector(array: ElementArray, grid: AngularGrid) -> SteeringVectorTable:
    """Tabulate a_n(phi) for every grid angle and element."""
    return SteeringVectorTable(grid=grid, a=steering_vector_at(array, grid.values), array=array)


def steering_vector_at(array: ElementArray, phi) -> np.ndarray:
    """a(phi) at any angle or array of angles, exact (no grid snapping).

    The one steering kernel: the result has shape phi.shape + (N,). The
    phase is built in place, so a large table needs few temporaries.
    """
    delta = wrap_angle(np.asarray(phi, dtype=float)[..., None] - array.alphas)
    gain = _element_gain(delta, array)
    arg = np.cos(delta)
    del delta
    arg += np.cos(array.alphas)
    arg *= array.geom.k0r
    a = 1j * arg
    del arg
    np.exp(a, out=a)
    a *= gain
    return a


def far_field_discrete(table: SteeringVectorTable, gamma) -> PatternGrid:
    """F(phi) = sum_n gamma_n a_n(phi) on the table's grid."""
    g = np.asarray(gamma, dtype=complex)
    if g.shape != (table.n_elements,):
        raise ValueError("gamma length must equal the number of elements")
    return PatternGrid(grid=table.grid, f=table.a @ g)


def conjugate_phase_excitation(array: ElementArray, phi_o: float) -> np.ndarray:
    """Cophasal reference excitation: the GO reflection exp(-j Phi_r) at alpha_n."""
    return np.exp(-1j * phase_function(array.geom, phi_o, array.alphas))


def reference_beamwidth(table: SteeringVectorTable, phi_o: float) -> float:
    """Null-to-null width of the cophasal reference lobe pointed at phi_o, on `table`'s grid.

    Evaluated at boresight, it is what the steering-window default is built
    on: a steering-independent array property, and a protected window that
    covers the whole lobe keeps the sidelobe-ratio objective well posed.
    """
    pattern = far_field_discrete(table, conjugate_phase_excitation(table.array, phi_o))
    return first_null_width(pattern)


def reference_window(array: ElementArray, factor: float | None = None) -> float:
    """Default protected width: factor (`steering.value`) times the boresight lobe width."""
    table = steering_vector(array, AngularGrid.uniform(REFERENCE_GRID_POINTS))
    return checked("steering.value", factor) * reference_beamwidth(table, 0.0)

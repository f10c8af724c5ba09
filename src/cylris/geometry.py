"""Physical configuration shared by all syntheses.

Angle convention: radians everywhere, principal value in [-pi, pi); all
angular comparisons are wrap-aware. Config files speak degrees, the library
speaks radians.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .config import checked

__all__ = [
    "SPEED_OF_LIGHT",
    "wrap_angle",
    "CylinderGeometry",
    "SteeringSpec",
    "AngularGrid",
    "incident_field",
    "phase_function",
    "exclusion_set_mask",
]

# Free-space propagation speed [m/s]. The round 3e8 convention keeps the
# electrical sizes used throughout the test suite at their quoted values.
SPEED_OF_LIGHT = 3.0e8


def wrap_angle(x):
    """Wrap angle(s) to the principal interval [-pi, pi)."""
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


@dataclass(frozen=True)
class CylinderGeometry:
    """Cylinder radius and operating frequency; electrical size is derived."""

    radius_m: float
    freq_hz: float

    def __post_init__(self):
        for name in ("radius_m", "freq_hz"):
            object.__setattr__(self, name, checked(f"geometry.{name}", getattr(self, name)))

    @property
    def k0(self) -> float:
        """Free-space wavenumber [rad/m]."""
        return 2.0 * np.pi * self.freq_hz / SPEED_OF_LIGHT

    @property
    def k0r(self) -> float:
        """Electrical radius k0 * R (dimensionless), always recomputed."""
        return self.k0 * self.radius_m


def incident_field(geom: CylinderGeometry, r, phi):
    """Unit plane wave travelling along -x: exp(j k0 r cos(phi))."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    out = np.exp(1j * geom.k0 * r * np.cos(np.asarray(phi, dtype=float)))
    return out if out.ndim else complex(out)


def phase_function(geom: CylinderGeometry, phi_o: float, phi) -> np.ndarray:
    """Round-trip phase Phi_r(phi) = k0 R [cos(phi - phi_o) + cos(phi)]; exp(-j Phi_r) is
    both the GO reflection and the cophasal array excitation."""
    phi = np.asarray(phi, dtype=float)
    return geom.k0r * (np.cos(phi - phi_o) + np.cos(phi))


@dataclass(frozen=True)
class SteeringSpec:
    """Steering direction and protected main-beam width (both radians)."""

    phi_o: float
    delta_phi: float

    def __post_init__(self):
        if not self.delta_phi > 0:
            raise ValueError("delta_phi must be positive")
        object.__setattr__(self, "phi_o", float(wrap_angle(self.phi_o)))
        object.__setattr__(self, "delta_phi", float(self.delta_phi))

    def warn_if_below_reference(self, reference_rad: float) -> None:
        if self.delta_phi < reference_rad:
            warnings.warn(
                f"delta_phi = {np.degrees(self.delta_phi):.2f} deg is below the "
                f"reference beamwidth {np.degrees(reference_rad):.2f} deg; the "
                "sidelobe problem may be ill-conditioned",
                stacklevel=2,
            )


class AngularGrid:
    """Full-circle grid phi_k = -pi + 2 pi k / n, k = 0..n-1, built only by `uniform(n)`.

    Every grid quadrature (a plain Riemann sum) and modal sum (one FFT) relies on it.
    """

    __slots__ = ("values",)

    @classmethod
    def uniform(cls, n_points: int) -> "AngularGrid":
        n_points = operator.index(n_points)
        if n_points < 2:
            raise ValueError("need at least two grid points")
        grid = cls()
        grid.values = -np.pi + 2 * np.pi * np.arange(n_points) / n_points
        grid.values.setflags(write=False)
        return grid

    @property
    def spacing(self) -> float:
        return float(self.values[1] - self.values[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.degrees(self.values)

    def __len__(self) -> int:
        return self.values.size

    def nearest_index(self, phi: float) -> int:
        """Index of the sample closest to phi (wrap-aware)."""
        return int(np.argmin(np.abs(wrap_angle(self.values - phi))))


def exclusion_set_mask(spec: SteeringSpec, grid: AngularGrid) -> np.ndarray:
    """Boolean mask, true exactly where |wrap(phi - phi_o)| > delta_phi / 2."""
    return np.abs(wrap_angle(grid.values - spec.phi_o)) > spec.delta_phi / 2.0

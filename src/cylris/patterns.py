"""Sampled far-field patterns and the metrics reported for them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AngularGrid, SteeringSpec, wrap_angle

__all__ = [
    "PatternGrid",
    "PatternMetrics",
    "pattern_metrics",
    "half_power_width",
    "first_null_width",
    "interpolate_magnitude",
]

HALF_POWER_DROP_DB = 3.0
NULL_FLOOR_REL = 10.0 ** (-10.5 / 20.0)  # about -10.5 dB


@dataclass(frozen=True)
class PatternGrid:
    """Complex far-field samples F(phi) on an angular grid."""

    grid: AngularGrid
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex)
        if f.shape != (len(self.grid),):
            raise ValueError("pattern length must match grid length")
        if not np.all(np.isfinite(f)):
            raise ValueError("pattern contains non-finite samples")
        object.__setattr__(self, "f", f)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.f)

    def magnitude_db(self) -> np.ndarray:
        """Peak-normalized 20 log10 |F|; -inf where |F| = 0."""
        mag = self.magnitude
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag)


@dataclass(frozen=True)
class PatternMetrics:
    """Headline numbers for one pattern.

    peak_db is absolute (20 log10 of the peak magnitude); sll_db and
    main_beam_level_at_target_db are relative to the pattern's own peak, so
    both are <= 0. beamwidth_rad is NaN when no half-power crossing exists.
    """

    peak_db: float
    peak_dir_rad: float
    sll_db: float
    beamwidth_rad: float
    main_beam_level_at_target_db: float

    def to_dict(self) -> dict:
        def _num(x):
            return None if (isinstance(x, float) and not math.isfinite(x)) else x

        return {
            "peak_db": _num(self.peak_db),
            "peak_dir_deg": float(np.degrees(self.peak_dir_rad)),
            "sll_db": _num(self.sll_db),
            "beamwidth_deg": _num(float(np.degrees(self.beamwidth_rad))),
            "target_level_db": _num(self.main_beam_level_at_target_db),
        }


def _db(x: float) -> float:
    return 20.0 * np.log10(x) if x > 0 else -np.inf


def _refined_local_max(mag: np.ndarray, i: int) -> float:
    """Sub-sample magnitude at a local maximum via a 3-point parabola.

    Falls back to the sample value when i is not an interior local maximum
    (plateau or boundary of a masked region).
    """
    n = mag.size
    y0, ym, yp = mag[i], mag[(i - 1) % n], mag[(i + 1) % n]
    den = ym - 2.0 * y0 + yp
    if den >= 0 or not (ym <= y0 >= yp):
        return float(y0)
    delta = float(np.clip(0.5 * (ym - yp) / den, -0.5, 0.5))
    return float(y0 - 0.25 * (ym - yp) * delta)


def interpolate_magnitude(pattern: PatternGrid, phi: float) -> float:
    """|F| at an exact angle, quadratic through the three nearest samples."""
    mag = pattern.magnitude
    n = mag.size
    i = pattern.grid.nearest_index(phi)
    t = float(wrap_angle(phi - pattern.grid.values[i])) / pattern.grid.spacing
    ym, y0, yp = mag[(i - 1) % n], mag[i], mag[(i + 1) % n]
    val = y0 + 0.5 * t * (yp - ym) + 0.5 * t * t * (ym - 2.0 * y0 + yp)
    return float(max(val, 0.0))


def _lobe_width(mag: np.ndarray, step: float, edge) -> float:
    """Width of the lobe around the peak of the magnitudes `mag`, `step` apart.

    On each side, walk outward from the peak, a sample j -> k at a time
    (cyclic), until edge(j, k) gives the fraction of that step at which the
    lobe ends; NaN when no edge lies within one turn.
    """
    n = mag.size
    i_pk = int(mag.argmax())

    def offset(direction: int) -> float:
        j = i_pk
        for steps in range(n):
            k = (j + direction) % n
            t = edge(j, k)
            if t is not None:
                return (steps + t) * step
            j = k
        return np.nan

    return offset(+1) + offset(-1)


def half_power_width(pattern: PatternGrid) -> float:
    """Width of the main lobe between the -3 dB crossings around the peak.

    Crossings are located by linear interpolation between samples; NaN when a
    crossing is missing on either side (pattern never falls below the level).
    """
    mag = pattern.magnitude
    level = mag.max() * 10.0 ** (-HALF_POWER_DROP_DB / 20.0)

    def crossing(j: int, k: int):
        return (mag[j] - level) / (mag[j] - mag[k]) if mag[k] < level else None

    return _lobe_width(mag, pattern.grid.spacing, crossing)


def first_null_width(pattern: PatternGrid) -> float:
    """Null-to-null width of the main lobe.

    A null is the first local minimum on each side of the peak whose level is
    below NULL_FLOOR_REL times the peak, which skips shallow ripple on the
    lobe shoulders.
    """
    mag = pattern.magnitude
    floor = mag.max() * NULL_FLOOR_REL

    def null(j: int, k: int):
        return 0 if mag[k] >= mag[j] and mag[j] <= floor else None

    return _lobe_width(mag, pattern.grid.spacing, null)


def pattern_metrics(pattern: PatternGrid, spec: SteeringSpec) -> PatternMetrics:
    """Peak, pointing, sidelobe ratio and beamwidth of one pattern.

    Magnitude readouts are refined past the grid: the peak and the sidelobe
    maximum with a local parabola, the target level by interpolation at the
    exact steering angle, and the exclusion-set supremum also checks the two
    window-edge angles. This keeps metrics computed on the coarse optimizer
    grid and the fine reporting grid consistent. The reported peak direction
    is the argmax sample itself.
    """
    mag = pattern.magnitude
    i_pk = int(mag.argmax())
    peak = _refined_local_max(mag, i_pk)
    excl = spec.excludes(pattern.grid.values)
    side = 0.0
    if excl.any():
        side = _refined_local_max(mag, int(np.argmax(np.where(excl, mag, -1.0))))
        # the open exclusion region attains its supremum at the window edges
        side = max(side, *(interpolate_magnitude(pattern, edge) for edge in spec.edges))
        side = min(side, peak)  # interpolation must not push the ratio past 0 dB
    sll_db = _db(side / peak) if peak > 0 else -np.inf
    target = min(interpolate_magnitude(pattern, spec.phi_o), peak)
    return PatternMetrics(
        peak_db=_db(peak),
        peak_dir_rad=float(pattern.grid.values[i_pk]),
        sll_db=sll_db,
        beamwidth_rad=half_power_width(pattern),
        main_beam_level_at_target_db=_db(target / peak) if peak > 0 else -np.inf,
    )

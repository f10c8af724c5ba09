import numpy as np
import pytest

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ElementArray,
    SteeringSpec,
    ideal_one_bit,
    reference_window,
    state_sets_for_array,
    steering_vector,
)

FULL_SCALE = dict(radius_m=0.4, freq_hz=3.6e9, n_elements=30, arc_pitch_m=0.038)


@pytest.fixture(scope="session")
def geom():
    return CylinderGeometry(radius_m=FULL_SCALE["radius_m"], freq_hz=FULL_SCALE["freq_hz"])


@pytest.fixture(scope="session")
def array30(geom):
    return ElementArray(geom, FULL_SCALE["n_elements"], FULL_SCALE["arc_pitch_m"])


@pytest.fixture(scope="session")
def fine_grid():
    return AngularGrid.uniform(3601)


@pytest.fixture(scope="session")
def obj_grid():
    return AngularGrid.uniform(361)


@pytest.fixture(scope="session")
def one_bit_table():
    return ideal_one_bit("constant")


@pytest.fixture(scope="session")
def toy():
    """Small instance (N = 8, one bit) cheap enough for exhaustive search.

    The steering angle is deliberately off the symmetry axis so the optimum
    is unique and tie-handling never decides a comparison.
    """
    geom = CylinderGeometry(radius_m=0.12, freq_hz=3.6e9)
    array = ElementArray(geom, 8, 0.038)
    table = steering_vector(array, AngularGrid.uniform(361))
    states = state_sets_for_array(ideal_one_bit("constant"), array)
    spec = SteeringSpec(phi_o=np.radians(20.0), delta_phi=reference_window(array))
    return dict(geom=geom, array=array, table=table, states=states, spec=spec)

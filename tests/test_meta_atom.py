import numpy as np
import pytest

from cylris import (
    CylinderGeometry,
    ElementArray,
    StateTable,
    build_array,
    ideal_one_bit,
    load_state_table,
    state_sets_for_array,
)

from oracles import state_sets_loop

# the two-angle table of the CSV pipeline test, and {1, -1, j, -j} at every angle
TWO_ANGLE_TABLE = StateTable(
    np.array([0.0, 80.0]),
    np.array([[1.0, -1.0], [0.95 * np.exp(-1j * np.radians(20)), 0.9 * np.exp(1j * np.radians(120))]]),
)
FOUR_STATES = StateTable(np.array([0.0]), np.array([[1, -1, 1j, -1j]]))
TABLES = {
    "constant": ideal_one_bit("constant"),
    "cosine": ideal_one_bit("cosine"),
    "two_angle": TWO_ANGLE_TABLE,
    "four_states": FOUR_STATES,
}
RADIUS_OF_ARRAY = {8: 0.12, 20: 0.4, 24: 0.4, 30: 0.4}  # n_elements -> radius_m


class TestIdealOneBit:
    def test_constant_normal_incidence_states(self):
        t = ideal_one_bit("constant")
        s = t.states_at(0.0)
        assert np.allclose(s, [1.0, -1.0])

    def test_constant_is_angle_independent(self):
        t = ideal_one_bit("constant")
        assert np.array_equal(t.states_at(0.0), t.states_at(63.7))

    def test_cosine_taper_at_sixty_degrees(self):
        t = ideal_one_bit("cosine")
        s = t.states_at(60.0)
        dphase = np.angle(s[1] / s[0])
        assert np.degrees(dphase) == pytest.approx(90.0, abs=1e-9)

    def test_cosine_split_shrinks_with_angle(self):
        t = ideal_one_bit("cosine")
        def split(a):
            s = t.states_at(a)
            return abs(np.angle(s[1] / s[0]))
        assert split(0.0) == pytest.approx(np.pi, abs=1e-12)
        assert split(0.0) > split(30.0) > split(60.0) > split(85.0)

    def test_unknown_taper_rejected(self):
        with pytest.raises(ValueError):
            ideal_one_bit("linear")


class TestLoadStateTable:
    def _write(self, tmp_path, body):
        p = tmp_path / "table.csv"
        p.write_text("angle_deg,state_index,mag,phase_deg\n" + body)
        return p

    def test_two_row_interpolation_on_chords(self, tmp_path):
        body = (
            "0,0,1.0,0\n0,1,0.8,180\n"
            "80,0,1.0,-40\n80,1,0.4,100\n"
        )
        t = load_state_table(self._write(tmp_path, body))
        s = t.states_at(40.0)
        # magnitude and phase interpolate separately, halfway along each chord
        assert abs(s[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.degrees(np.angle(s[0])) == pytest.approx(-20.0, abs=1e-9)
        assert abs(s[1]) == pytest.approx(0.6, abs=1e-12)
        assert np.degrees(np.angle(s[1])) == pytest.approx(140.0, abs=1e-9)

    def test_passivity_violation_names_row(self, tmp_path):
        body = "0,0,1.0,0\n0,1,1.2,180\n"
        with pytest.raises(ValueError, match="line 3"):
            load_state_table(self._write(tmp_path, body))

    def test_missing_state_rejected(self, tmp_path):
        body = "0,0,1.0,0\n0,1,1.0,180\n10,0,1.0,0\n"
        with pytest.raises(ValueError, match="missing"):
            load_state_table(self._write(tmp_path, body))

    def test_non_power_of_two_rejected(self, tmp_path):
        body = "0,0,1.0,0\n0,1,1.0,120\n0,2,1.0,240\n"
        with pytest.raises(ValueError, match="power of two"):
            load_state_table(self._write(tmp_path, body))

    @pytest.mark.parametrize(
        "row",
        ["0,1,-1.0,180", "0,1,nan,180", "0,1,inf,180", "0,1,1.0,nan", "0,1,1.0,-inf", "nan,1,1.0,180"],
    )
    def test_non_finite_or_negative_value_names_row(self, tmp_path, row):
        path = self._write(tmp_path, f"0,0,1.0,0\n{row}\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: values must be finite"):
            load_state_table(path)

    def test_state_table_rule_names_the_file(self, tmp_path):
        path = self._write(tmp_path, "95,0,1.0,0\n95,1,1.0,180\n")
        with pytest.raises(ValueError, match=f"{path}: angles_deg must lie in"):
            load_state_table(path)

    def test_metadata_round_trip(self, tmp_path):
        body = "0,0,1.0,0\n0,1,1.0,180\n"
        descriptor = {
            "patch_side_mm": 26.0,
            "lattice_period_mm": 38.0,
            "substrate_h_mm": 1.57,
            "diode_on": "series RL, 1.5 ohm, 0.7 nH",
            "diode_off": "series LC, 0.7 nH, 0.15 pF",
        }
        t = load_state_table(self._write(tmp_path, body), metadata=descriptor)
        assert t.metadata == descriptor

    def test_phase_unwrap_across_rows(self, tmp_path):
        # raw phases jump across the +-180 branch; interpolation must follow
        # the unwrapped, continuous branch
        body = (
            "0,0,1.0,170\n0,1,1.0,0\n"
            "20,0,1.0,-170\n20,1,1.0,0\n"
        )
        t = load_state_table(self._write(tmp_path, body))
        s = t.states_at(10.0)
        assert np.degrees(np.angle(s[0])) == pytest.approx(180.0, abs=1e-9) or np.degrees(
            np.angle(s[0])
        ) == pytest.approx(-180.0, abs=1e-9)


class TestStateTable:
    @pytest.mark.parametrize(
        "angles, states",
        [
            ([0.0], [[np.nan, -1.0]]),
            ([0.0], [[1.0, complex(0.0, np.inf)]]),
            ([np.nan], [[1.0, -1.0]]),
            ([0.0, np.inf], [[1.0, -1.0], [1.0, -1.0]]),
        ],
        ids=["nan_state", "inf_state", "nan_angle", "inf_angle"],
    )
    def test_non_finite_rejected(self, angles, states):
        with pytest.raises(ValueError, match="finite"):
            StateTable(np.array(angles), np.array(states))

    @pytest.mark.parametrize("states", [[[1.0]], [[1.0, -1.0, 1j]]], ids=["one", "three"])
    def test_state_count_is_a_power_of_two_of_at_least_two(self, states):
        with pytest.raises(ValueError, match="power of two"):
            StateTable(np.array([0.0]), np.array(states))

    @pytest.mark.parametrize("name", TABLES)
    def test_array_lookup_equals_per_angle_calls(self, name):
        t = TABLES[name]
        # knots, between knots, both ends and out of range
        angles = np.array([[0.0, 0.5, 17.3, 40.0, 60.0], [79.99, 80.0, 89.5, 90.0, 120.0]])
        got = t.states_at(angles)
        assert got.shape == angles.shape + (t.states.shape[1],)
        want = np.array([[t.states_at(a) for a in row] for row in angles])
        assert np.array_equal(got, want)
        assert np.array_equal(t.states_at(-5.0), t.states_at(0.0))

    @pytest.mark.parametrize("name", TABLES)
    def test_non_finite_angle_rejected(self, name):
        with pytest.raises(ValueError, match="finite"):
            TABLES[name].states_at(np.array([10.0, np.nan]))


class TestStateSetForElement:
    def test_normal_incidence_row_verbatim(self):
        t = ideal_one_bit("cosine")
        assert np.array_equal(t.states_at(0.0), t.states[0])
        # the middle element of an odd array sits at alpha = 0
        array = build_array(CylinderGeometry(0.4, 3.6e9), 9, 0.038)
        assert np.array_equal(state_sets_for_array(t, array)[4], t.states[0])

    def test_even_symmetry_in_alpha(self, geom):
        array = ElementArray(geom, np.radians([-33.0, 33.0]), geom.radius_m * np.radians(66.0))
        sets = state_sets_for_array(ideal_one_bit("cosine"), array)
        assert np.array_equal(sets[0], sets[1])

    def test_knots_bit_exact(self):
        t = ideal_one_bit("cosine")
        assert np.array_equal(t.states_at(60.0), t.states[60])
        assert np.array_equal(t.states_at(89.0), t.states[89])
        assert np.array_equal(t.states_at(np.array([60.0, 89.0])), t.states[[60, 89]])

    def test_element_at_sixty_degrees_ninety_apart(self, geom):
        t = ideal_one_bit("cosine")
        array = ElementArray(geom, np.radians([-60.0, 60.0]), geom.radius_m * np.radians(120.0))
        for s in state_sets_for_array(t, array):
            assert np.degrees(np.angle(s[1] / s[0])) == pytest.approx(90.0, abs=1e-9)

    def test_constant_table_flip_is_negation(self, array30):
        sets = state_sets_for_array(ideal_one_bit("constant"), array30)
        for s in sets:
            assert np.array_equal(s[1], -s[0])

    @pytest.mark.parametrize("n_elements", RADIUS_OF_ARRAY)
    @pytest.mark.parametrize("name", TABLES)
    def test_matches_per_element_oracle(self, name, n_elements):
        array = build_array(CylinderGeometry(RADIUS_OF_ARRAY[n_elements], 3.6e9), n_elements, 0.038)
        got = state_sets_for_array(TABLES[name], array)
        assert got.shape == (n_elements, TABLES[name].states.shape[1])
        assert np.array_equal(got, state_sets_loop(TABLES[name], array))

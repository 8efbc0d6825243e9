"""Tests for the empirical timing models and switch registry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcam import (
    SWITCH_MODEL_NAMES,
    EmpiricalTimingModel,
    InsertOrder,
    commodity_switch_models,
    dell_8132f,
    get_switch_model,
    hp_5406zl,
    ideal_switch,
    pica8_p3290,
)


def scalar_curve_oracle(model, occupancy):
    """The curve as one scalar ``np.interp`` per occupancy, past the last
    point along the last segment: the formula the per-occupancy table
    replaced, kept here as its oracle."""
    xs, ys = model._occupancies, model._latencies
    occ = float(min(occupancy, model.capacity))
    if occ >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return float(ys[-1] + slope * (occ - xs[-1]))
    return float(np.interp(occ, xs, ys))


def binary_search_oracle(model, guarantee):
    """Guarantee sizing as a binary search over scalar curve reads."""
    if model.worst_case_insertion_latency(0) > guarantee:
        return 0
    low, high = 0, model.capacity
    while low < high:
        mid = (low + high + 1) // 2
        if model.worst_case_insertion_latency(mid) <= guarantee:
            low = mid
        else:
            high = mid - 1
    return low


# Table 1 of the paper: occupancy -> updates per second.
PICA8_TABLE1 = {50: 1266.0, 200: 114.0, 1000: 23.0, 2000: 12.0}
DELL_TABLE1 = {50: 970.0, 250: 494.0, 500: 42.0, 750: 29.0}


class TestTable1Calibration:
    @pytest.mark.parametrize("occupancy,rate", sorted(PICA8_TABLE1.items()))
    def test_pica8_matches_published_rates(self, occupancy, rate):
        model = pica8_p3290()
        assert model.update_rate(occupancy) == pytest.approx(rate, rel=1e-6)

    @pytest.mark.parametrize("occupancy,rate", sorted(DELL_TABLE1.items()))
    def test_dell_matches_published_rates(self, occupancy, rate):
        model = dell_8132f()
        assert model.update_rate(occupancy) == pytest.approx(rate, rel=1e-6)

    def test_pica8_vs_dell_at_50_entries(self):
        # Paper Section 2.1.1: at 50 entries, Pica8 supports ~1266 updates/s
        # and Dell ~970: "more than 23% difference".
        ratio = pica8_p3290().update_rate(50) / dell_8132f().update_rate(50)
        assert ratio > 1.23

    def test_dell_occupancy_cliff(self):
        # Paper: inserting with 250 resident rules is >10x faster than 500.
        model = dell_8132f()
        assert model.update_rate(250) / model.update_rate(500) > 10


class TestInterpolation:
    def test_latency_monotone_in_occupancy(self):
        model = pica8_p3290()
        latencies = [model.base_insertion_latency(n) for n in range(0, 2500, 25)]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_extrapolation_beyond_last_point(self):
        model = pica8_p3290()
        assert model.base_insertion_latency(2500) > model.base_insertion_latency(2000)

    def test_extrapolation_capped_at_capacity(self):
        model = pica8_p3290()
        at_capacity = model.base_insertion_latency(model.capacity)
        assert model.base_insertion_latency(model.capacity * 10) == at_capacity

    def test_empty_table_latency_positive(self):
        assert pica8_p3290().base_insertion_latency(0) > 0

    def test_decreasing_latency_points_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalTimingModel(
                name="bogus",
                capacity=100,
                occupancy_latency_points=[(10, 2e-3), (50, 1e-3)],
            )

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalTimingModel(name="bogus", capacity=100, occupancy_latency_points=[])

    def test_lone_zero_occupancy_point_rejected(self):
        # No zero anchor is added, so one knot would leave the last
        # segment's slope undefined on the first read.
        with pytest.raises(ValueError, match="above occupancy 0"):
            EmpiricalTimingModel(
                name="bogus", capacity=100, occupancy_latency_points=[(0, 1e-3)]
            )
        # One point above zero gets the anchor and is a valid curve.
        model = EmpiricalTimingModel(
            name="one", capacity=100, occupancy_latency_points=[(50, 1e-3)]
        )
        assert model.base_insertion_latency(50) == pytest.approx(1e-3)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            pica8_p3290().base_insertion_latency(-1)

    def test_negative_occupancy_rejected_by_the_array_path(self):
        with pytest.raises(ValueError):
            pica8_p3290().base_insertion_latencies(np.array([3, -1]))

    @pytest.mark.parametrize("name", SWITCH_MODEL_NAMES)
    def test_array_curve_equals_scalar_curve(self, name):
        # Every occupancy, past the last measured point and past capacity:
        # the scalar reads (the table) and the array path both equal the
        # scalar formula bit for bit.
        model = get_switch_model(name)
        occupancies = np.arange(model.capacity + 64)
        expected = [scalar_curve_oracle(model, int(o)) for o in occupancies]
        assert [model.base_insertion_latency(int(o)) for o in occupancies] == expected
        assert model.base_insertion_latencies(occupancies).tolist() == expected

    @pytest.mark.parametrize("name", SWITCH_MODEL_NAMES)
    def test_table_never_decreases(self, name):
        model = get_switch_model(name)
        curve = [model.base_insertion_latency(o) for o in range(model.capacity + 1)]
        assert all(b >= a for a, b in zip(curve, curve[1:]))


class TestPenalties:
    def test_priority_free_append_is_cheaper(self):
        model = pica8_p3290()
        shifting = model.insertion_latency(500, shifts=500)
        appending = model.insertion_latency(500, shifts=0)
        assert shifting / appending == pytest.approx(model.priority_penalty)

    def test_partial_shift_between_floor_and_full(self):
        model = pica8_p3290()
        full = model.insertion_latency(500, shifts=500)
        half = model.insertion_latency(500, shifts=250)
        none = model.insertion_latency(500, shifts=0)
        assert none < half < full

    def test_descending_order_penalty(self):
        model = pica8_p3290()
        ascending = model.insertion_latency(500, order=InsertOrder.ASCENDING)
        descending = model.insertion_latency(500, order=InsertOrder.DESCENDING)
        assert descending / ascending == pytest.approx(10.0)

    def test_noise_is_reproducible_with_seed(self):
        model = pica8_p3290()
        a = model.insertion_latency(100, rng=np.random.default_rng(7))
        b = model.insertion_latency(100, rng=np.random.default_rng(7))
        assert a == b


class TestGuaranteeSizing:
    @pytest.mark.parametrize("model_factory", [pica8_p3290, dell_8132f, hp_5406zl])
    @pytest.mark.parametrize("guarantee_ms", [1.0, 5.0, 10.0])
    def test_sizing_respects_guarantee(self, model_factory, guarantee_ms):
        model = model_factory()
        budget = guarantee_ms / 1e3
        occupancy = model.max_occupancy_for_guarantee(budget)
        assert model.worst_case_insertion_latency(occupancy) <= budget
        if occupancy < model.capacity:
            assert model.worst_case_insertion_latency(occupancy + 1) > budget

    def test_tighter_guarantee_smaller_shadow(self):
        model = pica8_p3290()
        assert model.max_occupancy_for_guarantee(1e-3) < model.max_occupancy_for_guarantee(
            10e-3
        )

    def test_impossible_guarantee_gives_zero(self):
        assert pica8_p3290().max_occupancy_for_guarantee(1e-9) == 0

    def test_paper_headline_overhead(self):
        # Abstract: "with less than 5% overheads, Hermes provides 5ms
        # insertion guarantees" — holds for the Pica8 model.
        model = pica8_p3290()
        shadow = model.max_occupancy_for_guarantee(5e-3)
        assert 0 < shadow / model.capacity < 0.05

    @pytest.mark.parametrize("name", SWITCH_MODEL_NAMES)
    def test_sizing_equals_binary_search(self, name):
        model = get_switch_model(name)
        empty = model.base_insertion_latency(0)
        full = model.base_insertion_latency(model.capacity)
        samples = [
            model.base_insertion_latency(o) for o in range(0, model.capacity + 1, 97)
        ]
        guarantees = [empty / 2 - 1e-9, empty, full, full * 2 + 1e-9]
        # Each sampled latency, and the floats just below and above it.
        guarantees += [
            np.nextafter(value, toward)
            for value in samples
            for toward in (-np.inf, np.inf)
        ]
        guarantees += samples
        guarantees += list(np.linspace(empty, full, 41))
        for guarantee in guarantees:
            assert model.max_occupancy_for_guarantee(guarantee) == (
                binary_search_oracle(model, guarantee)
            ), guarantee
        # Below the empty-table latency nothing fits; above the full-table
        # latency everything does.
        assert model.max_occupancy_for_guarantee(empty / 2 - 1e-9) == 0
        assert model.max_occupancy_for_guarantee(full * 2 + 1e-9) == model.capacity

    @given(st.floats(min_value=1e-4, max_value=0.2))
    def test_sizing_monotone_in_budget(self, budget):
        model = dell_8132f()
        smaller = model.max_occupancy_for_guarantee(budget / 2)
        larger = model.max_occupancy_for_guarantee(budget)
        assert smaller <= larger


class TestOtherActions:
    def test_deletion_fast_and_constant(self):
        model = pica8_p3290()
        assert model.deletion_latency() < model.base_insertion_latency(500)
        assert model.deletion_latency() == model.deletion_latency()

    def test_modification_constant(self):
        model = pica8_p3290()
        assert model.modification_latency() == pytest.approx(model.modify_latency)


class TestIdealSwitch:
    def test_zero_latency(self):
        model = ideal_switch()
        assert model.base_insertion_latency(1000) == 0.0
        assert model.deletion_latency() == 0.0
        assert model.update_rate(100) == math.inf

    def test_guarantee_always_met(self):
        model = ideal_switch()
        assert model.max_occupancy_for_guarantee(1e-9) == model.capacity


class TestRegistry:
    def test_lookup_by_name_variants(self):
        assert get_switch_model("Pica8 P3290").name == "Pica8 P-3290"
        assert get_switch_model("dell_8132f").name == "Dell 8132F"
        assert get_switch_model("HP-5406ZL").name == "HP 5406zl"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_switch_model("cisco-9000")

    def test_models_compare_by_their_parameters(self):
        assert pica8_p3290() == pica8_p3290()
        assert pica8_p3290() != dell_8132f()

    def test_commodity_models_are_fresh_instances(self):
        first = commodity_switch_models()
        second = commodity_switch_models()
        assert [m.name for m in first] == [m.name for m in second]
        assert all(a is not b for a, b in zip(first, second))

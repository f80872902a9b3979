"""Tests for the virtual platform: overhead models and machines."""

from __future__ import annotations

import math

import pytest

from repro.core import ManagerWork
from repro.platform import (
    DESKTOP_LIKE,
    FAST_EMBEDDED,
    IPOD_LIKE,
    LinearOverheadModel,
    Machine,
    OverheadParameters,
    desktop,
    fast_embedded,
    ipod_video,
)

from helpers import make_synthetic_system


class TestOverheadParameters:
    def test_scaled(self):
        params = OverheadParameters(per_call=1.0, per_arithmetic_op=0.1, per_comparison=0.2, per_table_lookup=0.3)
        scaled = params.scaled(2.0)
        assert scaled.per_call == 2.0
        assert scaled.per_arithmetic_op == pytest.approx(0.2)
        assert scaled.per_table_lookup == pytest.approx(0.6)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            IPOD_LIKE.scaled(-1.0)

    def test_presets_ordering(self):
        assert IPOD_LIKE.per_call > FAST_EMBEDDED.per_call > DESKTOP_LIKE.per_call

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_costs_must_be_finite_and_non_negative(self, value):
        """A negative or NaN cost would run a missed cycle back under its deadline."""
        for name in ("per_call", "per_arithmetic_op", "per_comparison", "per_table_lookup"):
            with pytest.raises(ValueError, match=name):
                OverheadParameters(**{name: value})


class TestLinearOverheadModel:
    def test_cost_formula(self):
        params = OverheadParameters(per_call=1.0, per_arithmetic_op=0.01, per_comparison=0.1, per_table_lookup=0.2)
        model = LinearOverheadModel(params)
        work = ManagerWork(arithmetic_ops=10, comparisons=2, table_lookups=3)
        assert model.charge(work) == pytest.approx(1.0 + 0.1 + 0.2 + 0.6)

    def test_numeric_work_costs_more_than_lookup_work(self):
        model = LinearOverheadModel(IPOD_LIKE)
        numeric_work = ManagerWork(arithmetic_ops=1000 * 7 * 4, comparisons=7)
        region_work = ManagerWork(comparisons=7, table_lookups=7)
        assert model.charge(numeric_work) > model.charge(region_work)


class TestMachine:
    def test_presets(self):
        assert ipod_video().speed_factor == 1.0
        assert fast_embedded().speed_factor < 1.0
        assert desktop().speed_factor < fast_embedded().speed_factor

    def test_invalid_speed_factor(self):
        with pytest.raises(ValueError):
            Machine(name="bad", speed_factor=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_speed_factor(self, value):
        with pytest.raises(ValueError, match="speed factor must be finite"):
            Machine(name="bad", speed_factor=value)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_invalid_clock_read_overhead(self, value):
        with pytest.raises(ValueError, match="clock read"):
            Machine(name="bad", clock_read_overhead=value)

    def test_deploy_rescales_system(self):
        system = make_synthetic_system(n_actions=5)
        machine = Machine(name="slow", speed_factor=2.0)
        deployed = machine.deploy(system)
        assert deployed.average.total(1, 5, 0) == pytest.approx(
            2.0 * system.average.total(1, 5, 0)
        )

    def test_deploy_identity_when_factor_one(self):
        system = make_synthetic_system(n_actions=5)
        assert ipod_video().deploy(system) is system

    def test_scaled_machine(self):
        machine = ipod_video().scaled(10.0)
        assert machine.speed_factor == pytest.approx(10.0)
        assert machine.overhead.per_call == pytest.approx(IPOD_LIKE.per_call * 10.0)

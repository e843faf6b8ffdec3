"""Tests for `ScenarioSpec.describe()` and `ScenarioRegistry` error paths."""

from __future__ import annotations

import json

import pytest

from repro.arcade.repair import RepairStrategy
from repro.casestudy.facility import LINE2, StrategyConfiguration
from repro.service import ScenarioRegistry, ScenarioSpec, paper_registry


def make_spec(name: str = "custom", **overrides) -> ScenarioSpec:
    parameters = dict(
        name=name,
        measure="survivability",
        lines=(LINE2,),
        strategies=(StrategyConfiguration(RepairStrategy.DEDICATED, 1),),
        disasters=("disaster2",),
        interval_indices=(0, 2),
        horizon=42.0,
        points=11,
        description="a custom spec",
    )
    parameters.update(overrides)
    return ScenarioSpec(**parameters)


class TestDescribe:
    def test_json_round_trip_preserves_every_field(self):
        spec = make_spec()
        document = spec.describe()
        restored = json.loads(json.dumps(document))
        assert restored == document
        assert restored == {
            "name": "custom",
            "measure": "survivability",
            "lines": ["line2"],
            "strategies": ["DED"],
            "disasters": ["disaster2"],
            "interval_indices": [0, 2],
            "horizon": 42.0,
            "points": 11,
            "description": "a custom spec",
        }

    def test_every_paper_spec_is_json_serialisable(self):
        for document in paper_registry().describe():
            assert json.loads(json.dumps(document)) == document

    def test_invalid_measure_is_rejected(self):
        with pytest.raises(ValueError, match="unknown measure"):
            make_spec(measure="latency")


class TestRegistryErrors:
    def test_duplicate_name_is_refused(self):
        registry = ScenarioRegistry([make_spec()])
        with pytest.raises(ValueError, match="already registered"):
            registry.register(make_spec(points=99))
        # The original spec survives the refused registration.
        assert registry.get("custom").points == 11

    def test_replace_existing_opts_into_shadowing(self):
        registry = ScenarioRegistry([make_spec()])
        registry.register(make_spec(points=99), replace_existing=True)
        assert registry.get("custom").points == 99
        assert len(registry) == 1

    def test_unknown_name_raises_keyerror_listing_known(self):
        registry = ScenarioRegistry([make_spec()])
        with pytest.raises(KeyError, match="unknown scenario 'ghost'.*custom"):
            registry.get("ghost")
        with pytest.raises(KeyError, match="unknown scenario"):
            registry.expand("ghost")

    def test_contains_names_and_with_points(self):
        registry = ScenarioRegistry([make_spec()])
        assert "custom" in registry and "ghost" not in registry
        assert registry.names == ("custom",)
        coarse = registry.with_points("custom", 5)
        assert coarse.points == 5
        assert registry.get("custom").points == 11  # original untouched

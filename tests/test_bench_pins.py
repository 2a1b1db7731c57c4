"""The names and attributes the traced benchmark (perfbench/spans.py) relies on.

`spans.install` wraps every function in `spans.TARGETS` by name and fails
when one is missing, and the span attributes in `spans._ATTRS` read fields
of their results. These tests fail under pytest when a change removes one of
those layers, before the benchmark does.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from mjlstab.linalg import spectral_radius
from mjlstab.model import build_global_matrix, build_pendulum_model
from mjlstab.robust import compute_bounds
from mjlstab.sim import SimConfig, simulate_trajectory
from mjlstab.stability import mss_matrix
from mjlstab.switched import ModeFamily, build_mode_family

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_traced_target_exists(spans):
    for module, names in spans.TARGETS.items():
        mod = importlib.import_module(f"mjlstab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"mjlstab.{module}.{name}"


def test_span_attributes_read_existing_fields(spans):
    model = build_pendulum_model(4)
    family = ModeFamily.from_matrices([[[0.5]], [[0.8]]], [[0.4, 0.6], [0.5, 0.5]])
    calls = {
        "model.build_global_matrix": (build_global_matrix, (model,)),
        "stability.mss_matrix": (mss_matrix, (family,)),
        "switched.build_mode_family": (build_mode_family, (model, 1)),
        "linalg.spectral_radius": (spectral_radius, (np.eye(3),)),
        "robust.compute_bounds": (compute_bounds, (family,)),
        "sim.simulate_trajectory": (simulate_trajectory, (model, SimConfig(steps=5))),
    }
    assert set(calls) == set(spans._ATTRS)
    for name, (fn, args) in calls.items():
        attrs = spans._ATTRS[name](args, fn(*args))
        assert attrs and all(isinstance(v, (int, bool)) for v in attrs.values()), name

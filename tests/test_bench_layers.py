"""The per-layer metrics that BENCHMARK.json names still name live functions.

perfbench's tracer wraps the public functions of the specreg layer modules
by name, so a listed function that is renamed, made private or deleted
drops its metrics from a traced run without an error.  BENCHMARK.json is
only read here.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _layer_functions() -> list[tuple[str, str]]:
    """(layer, function) of every per_layer name <layer>.<function>.<stat>;
    the two-part names are the CLI's, the benchmark's own and the
    quadrature's integrand count."""
    names = [metric["name"].split(".") for metric in
             json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({(layer, function) for layer, function, *stat in names
                   if stat and function != "coeff_cache"})


@pytest.mark.parametrize("layer, function", _layer_functions(),
                         ids=lambda part: part)
def test_listed_layer_function_is_public(layer, function):
    module = importlib.import_module(f"specreg.{layer}")
    obj = getattr(module, function, None)
    assert inspect.isfunction(obj), f"specreg.{layer}.{function} is gone"
    assert obj.__module__ == f"specreg.{layer}"
    assert not function.startswith("_")


def test_coefficient_cache_is_readable():
    # heat_expansion.coeff_cache.* reads the cache of the solos' tables
    from specreg import heat_expansion

    assert hasattr(heat_expansion._one_sided_power_coeffs, "cache_info")

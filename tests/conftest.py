"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

import specreg  # noqa: F401  (loads every specreg module)

# the bounded tables of shift-free dual factors (zeta._theta_bracket's
# incomplete gammas, spectra._dual_mellin's erfc weights)
DUAL_TABLES = (specreg.zeta._dual_gamma, specreg.zeta._unshifted_gamma,
               specreg.spectra._dual_weights)


@pytest.fixture(autouse=True)
def cold_dual_tables():
    """Every test starts with the dual tables empty, so a monkeypatch that
    counts or replaces upper_gamma_scaled or math.erfc sees every call;
    returns the tables."""
    for table in DUAL_TABLES:
        table.cache_clear()
    return DUAL_TABLES


@pytest.fixture
def refuse(monkeypatch):
    """refuse(*names): each named function raises AssertionError from every
    specreg module that binds it, so a call through any import is caught."""

    def install(*names: str) -> None:
        def refused(*args, **kwargs):
            raise AssertionError(f"called one of {names}")

        for key, module in list(sys.modules.items()):
            if key == "specreg" or key.startswith("specreg."):
                for name in names:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, refused)

    return install

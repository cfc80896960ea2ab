"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

import specreg  # noqa: F401  (loads every specreg module)


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

"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

import specreg  # noqa: F401  (loads every specreg module)
from specreg import DomainError

# the bounded tables of shift-free dual factors (the zeta bracket's
# incomplete gammas, the heat split's erfc weights)
DUAL_TABLES = (specreg.zeta._dual_gamma, specreg.zeta._unshifted_gamma,
               specreg.regdet._erfc_table)
# the cached split kernels, which bind exp_integral_e1 and upper_gamma_scaled
# as they are built
KERNELS = (specreg.regdet._e1_kernel, specreg.zeta._gamma_kernel)


@pytest.fixture(autouse=True)
def cold_dual_tables():
    """Every test starts with the dual tables and the split kernels empty, so
    a monkeypatch that counts or replaces exp_integral_e1,
    upper_gamma_scaled or math.erfc sees every call; returns the tables."""
    for table in DUAL_TABLES + KERNELS:
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


@pytest.fixture
def check_record():
    """check_record(record, bad, message): building the record's class from
    its fields with `bad` swapped in and record._replace(**bad) both raise
    DomainError with the same text, which matches `message`; assigning a
    field raises AttributeError; and a record built from the same fields is
    equal and, where the record hashes at all, hashes equal."""

    def check(record, bad: dict, message: str) -> None:
        cls = type(record)
        with pytest.raises(DomainError, match=message) as built:
            cls(**{**record._asdict(), **bad})
        with pytest.raises(DomainError) as replaced:
            record._replace(**bad)
        assert str(replaced.value) == str(built.value)
        for name in bad:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        twin = cls(*record)
        assert twin == record and twin is not record
        try:
            expected = hash(record)
        except TypeError:  # a dict field, as in HeatExpansion
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == expected

    return check

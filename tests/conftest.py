"""Shared test settings and fixtures.

Property tests draw their examples from a fixed derandomized sequence, so
every run of the suite sees the same inputs, and they have no per-example
deadline, since timings vary across machines.
"""

import sys

import pytest
from hypothesis import settings

from imaxcal import data as data_mod

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def finite_scans(monkeypatch):
    """The entries data.check_finite reads, one count per call, in call
    order. As perfbench/tracer.py wraps its boundaries, the function is
    replaced in every imaxcal module that holds it, so calls through names
    imported from data are counted too."""
    check_finite = data_mod.check_finite
    entries = []

    def counted(values, what):
        entries.append(values.size)
        return check_finite(values, what)

    for name, module in list(sys.modules.items()):
        in_package = name == "imaxcal" or name.startswith("imaxcal.")
        if in_package and getattr(module, "check_finite", None) is check_finite:
            monkeypatch.setattr(module, "check_finite", counted)
    return entries

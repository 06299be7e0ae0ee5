"""Shared fixtures: built designs and synthesized results reused across tests.

Heavy artifacts (the elaborated core, RTL2MuPATH runs) are session-scoped
so the suite pays for each expensive synthesis exactly once.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.designs import (
    ContextFamilyConfig,
    CoreContextProvider,
    build_core,
)
from repro.core import Rtl2MuPath

# a compact context configuration for suite-wide synthesis runs: fewer
# neighbours and values than the default (the benches use richer families)
FAST_FAMILY = ContextFamilyConfig(
    horizon=44,
    neighbors=("DIV", "SW", "BEQ", "LW"),
    iuv_values=(0, 1, 2, 3, 8, 128, 255),
    neighbor_values=(0, 1, 2, 3, 255),
)


@pytest.fixture(scope="session")
def core_design():
    return build_core()

@pytest.fixture(scope="session")
def core_provider():
    return CoreContextProvider(xlen=8, config=FAST_FAMILY)


@pytest.fixture(scope="session")
def mupath_tool(core_design, core_provider):
    return Rtl2MuPath(core_design, core_provider)


@pytest.fixture(scope="session")
def mupath_add(mupath_tool):
    return mupath_tool.synthesize("ADD")


@pytest.fixture(scope="session")
def mupath_lw(mupath_tool):
    return mupath_tool.synthesize("LW")


@pytest.fixture(scope="session")
def mupath_divu(mupath_tool):
    return mupath_tool.synthesize("DIVU")

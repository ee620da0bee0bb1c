import json
import os
from pathlib import Path

import pytest

import riskforge
from riskforge.contracts import DATA_DIR, ContractSet
from riskforge.gateway import StubGateway
from riskforge.grounding import Corpus

PROFILE_IDS = ["health_15", "fintech_30", "mfg_40", "retail_20", "saas_25"]


@pytest.fixture(scope="session")
def package_env():
    """The environment for a subprocess that imports this checkout's riskforge."""
    src = str(Path(riskforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def corpus():
    return Corpus.ingest(DATA_DIR / "corpus" / "mini_csf.jsonl")


@pytest.fixture(scope="session")
def profiles():
    out = {}
    for pid in PROFILE_IDS:
        out[pid] = json.loads(
            (DATA_DIR / "profiles" / f"{pid}.json").read_text(encoding="utf-8"))
    return out


@pytest.fixture
def health_profile(profiles):
    return profiles["health_15"]


@pytest.fixture
def case_contracts():
    return ContractSet(schema_mode="case_study")


@pytest.fixture
def cross_contracts():
    return ContractSet(schema_mode="cross_sector")


@pytest.fixture
def specific_gateway():
    return StubGateway(DATA_DIR / "stub" / "specific")


@pytest.fixture
def generic_gateway():
    return StubGateway(DATA_DIR / "stub" / "generic")


@pytest.fixture(scope="session")
def fixtures_dir():
    return DATA_DIR / "fixtures"

from __future__ import annotations

from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]
ASSETS = PKG_ROOT / "src" / "pseudoexec" / "assets"


@pytest.fixture(scope="session")
def assets_dir() -> Path:
    return ASSETS


@pytest.fixture(scope="session")
def paper_fixture_dir() -> Path:
    return ASSETS / "fixtures" / "paper"


@pytest.fixture(scope="session")
def replay_fixture_dir() -> Path:
    return ASSETS / "fixtures" / "replay"


@pytest.fixture(scope="session")
def cassette_path() -> Path:
    return ASSETS / "replay" / "cassette.jsonl"


@pytest.fixture(scope="session")
def sandbox():
    """One default PoT sandbox for every test that needs no setting of its
    own, so its zygote boots once per session."""
    from pseudoexec.baselines import Sandbox

    with Sandbox() as opened:
        yield opened

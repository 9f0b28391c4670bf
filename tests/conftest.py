import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

_GOLDEN = Path(__file__).parent / "golden"

# Property tests draw the same examples on every run (seeded from each
# test's own hash, no example database); HYPOTHESIS_PROFILE=default
# restores random exploration.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def golden():
    """Loader for the frozen reference values in tests/golden/."""

    def load(name: str):
        with open(_GOLDEN / f"{name}.json") as fh:
            return json.load(fh)

    return load

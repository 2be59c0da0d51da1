import os
from pathlib import Path

import pytest

import mcjacobi

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
    # property failure in CI reproduces locally under the same profile
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this checkout's mcjacobi."""
    src = str(Path(mcjacobi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)

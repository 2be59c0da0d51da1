import os
from pathlib import Path

import pytest

import mcjacobi


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this checkout's mcjacobi."""
    src = str(Path(mcjacobi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)

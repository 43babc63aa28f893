import os
from pathlib import Path

import pytest


@pytest.fixture
def src_env():
    """Environment for a child Python that imports this checkout's fockstab.

    A subprocess does not see pytest's pythonpath setting, so the checkout's
    src goes first on the child's PYTHONPATH.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
SRC = Path(__file__).resolve().parent.parent / "src"

from rsad import build_table


@pytest.fixture(scope="session")
def t10k():
    return build_table(10**4 + 64)


@pytest.fixture(scope="session")
def t100k():
    return build_table(10**5 + 64)


@pytest.fixture(scope="session")
def t10m():
    return build_table(10**7 + 64)


@pytest.fixture(scope="session")
def t100m():
    return build_table(10**8)


@pytest.fixture
def child_env():
    """Environment for a child `python -m rsad`: this checkout's src first on
    PYTHONPATH, which pytest's own `pythonpath` setting does not pass on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def children_import_src():
    """Child interpreters (the CLI runs, a fresh import) load the package
    from the src tree that pyproject's pythonpath gives this process, so
    bare `pytest` passes in a checkout that is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def catalog3():
    from toruspack.ecg import identify

    return identify(3)


@pytest.fixture(scope="session")
def catalog4():
    from toruspack.ecg import identify

    return identify(4)

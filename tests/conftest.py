import inspect
import os
from collections import Counter

import pytest
from hypothesis import settings

from cantorproj import Family
from cantorproj.cli import ENV_PREFIX
from cantorproj.suites import _FaultyFamily

# One profile for every property test: no per-example deadline, which a
# loaded machine can miss, and a derandomized search, so every run draws
# the same examples.  Each test keeps its own max_examples.
settings.register_profile("cantorproj", deadline=None, derandomize=True)
settings.load_profile("cantorproj")


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    # An exported CANTORPROJ_* knob would change the bytes the golden tests
    # pin and the runs a benchmark subprocess makes; a test that needs one
    # sets it with monkeypatch.setenv.
    for name in [name for name in os.environ if name.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def fam() -> Family:
    # The generator memoizes append-only state, so sharing one instance
    # across tests only warms caches and cannot change any answer.
    return Family()


@pytest.fixture(scope="session")
def faulty() -> Family:
    return _FaultyFamily()


class Work(Counter):
    """Work counts: calls of watched functions by key, and a family's memo sizes."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def watch(self, owner, name, key=None):
        """Count each call of ``owner.name`` under ``key or name``; the call still runs."""
        found = inspect.getattr_static(owner, name)
        func = getattr(found, "__func__", found)

        def counted(*args, **kwargs):
            self[key or name] += 1
            return func(*args, **kwargs)

        if isinstance(found, (staticmethod, classmethod)):
            counted = type(found)(counted)
        self._monkeypatch.setattr(owner, name, counted)

    @staticmethod
    def sizes(fam: Family) -> dict:
        """Heads in each column, pairs built, approximants and recognitions memoised."""
        return {
            "x_heads": len(fam._x.heads),
            "y_heads": len(fam._y.heads),
            "pairs": len(fam._pairs),
            "approximants": len(fam._approx),
            "recognitions": len(fam._recog),
        }


@pytest.fixture
def work(monkeypatch) -> Work:
    return Work(monkeypatch)

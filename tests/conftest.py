import pytest
from hypothesis import settings

from cantorproj import Family

# One profile for every property test: no per-example deadline, which a
# loaded machine can miss, and a derandomized search, so every run draws
# the same examples.  Each test keeps its own max_examples.
settings.register_profile("cantorproj", deadline=None, derandomize=True)
settings.load_profile("cantorproj")


@pytest.fixture(scope="session")
def fam() -> Family:
    # The generator memoizes append-only state, so sharing one instance
    # across tests only warms caches and cannot change any answer.
    return Family()

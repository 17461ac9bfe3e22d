import pathlib
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fanrep import geometry, quivers  # noqa: E402

# the builders' memos, shared by every caller in a process
CACHES = (quivers._cube_quiver_cached, quivers._fan_quiver_cached, geometry._loop_references)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with empty memos, so counts of quiver builds and
    call counts do not depend on which tests ran before; a test that asks
    for it gets the function that empties them again."""
    clear_caches()
    return clear_caches

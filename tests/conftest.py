import pytest

from edim import edengine, groups


@pytest.fixture(autouse=True)
def cold_engine_memo():
    """Start every test on empty engine and group memos, so a test that
    counts oracle calls or patches an oracle sees the engine derive
    afresh."""
    for mod in (edengine, groups):
        for fn in vars(mod).values():
            if getattr(fn, "__module__", None) == mod.__name__ \
                    and hasattr(fn, "cache_clear"):
                fn.cache_clear()

import pytest

from edim import edengine


@pytest.fixture(autouse=True)
def cold_engine_memo():
    """Start every test on an empty engine memo, so a test that counts
    oracle calls or patches an oracle sees the engine derive afresh."""
    for fn in vars(edengine).values():
        if getattr(fn, "__module__", None) == edengine.__name__ \
                and hasattr(fn, "cache_clear"):
            fn.cache_clear()

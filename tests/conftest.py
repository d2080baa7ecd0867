"""Suite-wide fixtures."""

import gc
import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_calibration_cache(tmp_path_factory):
    """Keep the persistent calibration cache out of the real home dir.

    Tests still exercise both cache layers — they just do it against a
    per-session sandbox instead of ``~/.cache/quartz-repro``.
    """
    sandbox = tmp_path_factory.mktemp("quartz-cache")
    previous = os.environ.get("QUARTZ_REPRO_CACHE_DIR")
    os.environ["QUARTZ_REPRO_CACHE_DIR"] = str(sandbox)
    yield
    if previous is None:
        os.environ.pop("QUARTZ_REPRO_CACHE_DIR", None)
    else:
        os.environ["QUARTZ_REPRO_CACHE_DIR"] = previous


@pytest.fixture
def no_cyclic_gc():
    """Run the test with the cyclic garbage collector off.

    What the test then sees freed was freed by reference counting alone,
    as soon as its last reference went: the lifetime oracle of testbeds
    and memory flows.
    """
    gc.disable()
    yield
    gc.enable()

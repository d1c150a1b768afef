"""Repo-wide test configuration: deterministic hypothesis profiles.

Two registered profiles:

- ``ci`` (the default): ``derandomize=True`` with a fixed
  ``database=None`` — every hypothesis test explores the same example
  sequence on every run, so CI failures always reproduce locally and
  flakes cannot hide in random exploration.  The deadline is bounded
  but generous; per-test ``@settings`` still override the fields they
  set explicitly (``max_examples``, ``deadline=None`` for
  simulation-heavy tests).
- ``dev``: randomized exploration with the example database, for
  local bug hunting.  Select with ``HYPOTHESIS_PROFILE=dev``.

Also the ``switch_off`` fixture, shared by every test that keeps read
repair or hinted handoff out.
"""

import os

import pytest
from hypothesis import settings

from repro.cluster.coordinator import Coordinator
from repro.cluster.hints import HintService

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=30_000,
    print_blob=True,
)
settings.register_profile("dev")

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def switch_off(monkeypatch):
    """Keep an eventual-delivery mechanism out of one test.

    Read repair and hinted handoff are always on in the store; a test
    that must see what happens without one calls
    ``switch_off("read_repair")`` or ``switch_off("hinted_handoff")``
    (or both), which makes that mechanism's entry point a no-op for
    the test's duration.
    """
    entry_points = {"read_repair": (Coordinator, "_maybe_read_repair"),
                    "hinted_handoff": (HintService, "add")}

    def off(*mechanisms):
        for mechanism in mechanisms:
            owner, name = entry_points[mechanism]
            monkeypatch.setattr(owner, name, lambda *args: None)

    return off

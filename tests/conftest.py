"""Shared fixtures and helpers for the BRISK test suite."""

from __future__ import annotations

import os
import random
import re
import time
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, settings

from repro.core.records import EventRecord, FieldType

#: Every profile (``ci`` below inherits it): no per-example deadline and
#: no ``too_slow`` health check, so slow input generation on a loaded host
#: cannot fail a property whose assertions hold.  Example counts and every
#: other health check are unchanged.
settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

#: ``--hypothesis-profile=ci`` caps examples for tests that leave the count
#: to the profile (the ``property``-marked differential suites).
settings.register_profile(
    "ci", max_examples=int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "25"))
)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite golden conformance artifacts instead of comparing",
    )


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseeded per test."""
    return random.Random(0xB215C)


def wait_until(
    predicate: Callable[[], Any],
    timeout: float = 5.0,
    interval: float = 0.005,
    message: str | None = None,
) -> Any:
    """Poll *predicate* until it returns a truthy value, then return it.

    The suite's replacement for fixed ``time.sleep`` waits on real
    threads and processes: it converges as soon as the condition holds
    (fast machines don't pay the worst case) and only fails after a
    generous *timeout* (slow machines don't flake).
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"condition not met within {timeout}s: {predicate}"
            )
        time.sleep(interval)


def doc_json_block(marker: str, doc: str = "docs/monitor-spec.md") -> str:
    """The fenced JSON block after ``<!-- marker -->`` in a repo document:
    tests run the specs the docs print, not copies of them."""
    text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
    match = re.search(
        rf"<!-- {re.escape(marker)} -->\n```json\n(.*?)\n```", text, re.DOTALL
    )
    assert match, f"{marker!r} block missing from {doc}"
    return match.group(1)


def make_record(
    event_id: int = 1,
    timestamp: int = 1_000_000,
    n_ints: int = 6,
    node_id: int = 0,
    **extra,
) -> EventRecord:
    """The paper's benchmark record: *n_ints* integer fields."""
    return EventRecord(
        event_id=event_id,
        timestamp=timestamp,
        field_types=(FieldType.X_INT,) * n_ints,
        values=tuple(range(1, n_ints + 1)),
        node_id=node_id,
        **extra,
    )


def make_mixed_record(timestamp: int = 5_000_000) -> EventRecord:
    """A record exercising every field-type family."""
    return EventRecord(
        event_id=9,
        timestamp=timestamp,
        field_types=(
            FieldType.X_BYTE,
            FieldType.X_USHORT,
            FieldType.X_UINT,
            FieldType.X_HYPER,
            FieldType.X_FLOAT,
            FieldType.X_DOUBLE,
            FieldType.X_STRING,
            FieldType.X_OPAQUE,
        ),
        values=(-5, 65_000, 2**31, -(2**40), 1.5, 3.25, "héllo", b"\x00\xff"),
        node_id=3,
    )

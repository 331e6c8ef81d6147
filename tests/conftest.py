"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.protocol import Context
from repro.core.types import TRANSMITTER
from repro.crypto.signatures import SignatureService
from repro.transport.base import LockstepTransport

# Deterministic Hypothesis runs by default: property tests are part of the
# tier-1 suite, so they must not flake.  ``derandomize=True`` derives the
# examples from the test body itself — same code, same examples, every run.
# Opt into exploratory randomised search with HYPOTHESIS_PROFILE=explore.
settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def make_context(
    pid: int = 0,
    n: int = 5,
    t: int = 1,
    service: SignatureService | None = None,
) -> Context:
    """A standalone processor context backed by a (shared) service."""
    service = service if service is not None else SignatureService()
    return Context(
        pid=pid,
        n=n,
        t=t,
        transmitter=TRANSMITTER,
        key=service.key_for(pid),
        service=service,
    )


@pytest.fixture
def service() -> SignatureService:
    return SignatureService()


@pytest.fixture
def ctx(service: SignatureService) -> Context:
    return make_context(service=service)


def route_by_inbox(sent):
    """Reference routing: bucket every sent envelope by destination, then
    stable-sort each inbox by source.

    A different algorithm from :func:`repro.transport.base.route` (which
    sorts the whole phase once, then buckets) with the same inboxes: the
    oracle the routing tests compare it against.
    """
    pending = {}
    for envelope in sent:
        pending.setdefault(envelope.dst, []).append(envelope)
    for inbox in pending.values():
        inbox.sort(key=lambda e: e.src)
    return pending


class SortedTransport(LockstepTransport):
    """The perfect network routed by :func:`route_by_inbox`: the oracle
    the runner's default routing is compared against."""

    __slots__ = ()

    def deliver(self, phase, sent):
        return route_by_inbox(sent)

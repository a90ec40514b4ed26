"""Shared fixtures."""

import collections

import pytest


def _counted(calls, name, original):
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names)`` counts every call of ``owner.name``
    under that name, in one Counter per test, and returns that Counter."""
    calls = collections.Counter()

    def count(owner, *names):
        for name in names:
            monkeypatch.setattr(owner, name, _counted(calls, name, getattr(owner, name)))
        return calls

    return count

import threading

import pytest
from hypothesis import settings

import binsched.faults

# property tests spawn threads and share a noisy host; wall-clock deadlines
# would turn scheduler jitter into spurious failures
settings.register_profile("binsched", deadline=None)
settings.load_profile("binsched")


@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads the worker runner starts, in start order."""
    names = []

    class Recorded(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(binsched.faults.threading, "Thread", Recorded)
    return names

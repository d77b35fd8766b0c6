import threading

import pytest
from hypothesis import settings

import binsched.executor
import binsched.faults
import binsched.scheduler

# property tests spawn threads and share a noisy host; wall-clock deadlines
# would turn scheduler jitter into spurious failures
settings.register_profile("binsched", deadline=None)
settings.load_profile("binsched")


@pytest.fixture
def worker_threads(monkeypatch):
    """For each run of the worker runner, in run order, the thread each worker id ran on."""
    runs = []
    run_workers = binsched.faults.run_workers

    def recorded(body, num_threads, *args, **kwargs):
        ran_on = {}
        runs.append(ran_on)

        def traced(w):
            ran_on[w] = threading.current_thread()
            body(w)

        run_workers(traced, num_threads, *args, **kwargs)

    monkeypatch.setattr(binsched.scheduler, "run_workers", recorded)
    monkeypatch.setattr(binsched.executor, "run_workers", recorded)
    return runs

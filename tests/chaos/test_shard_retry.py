"""Crashed-worker recovery in the coordinator's pool (`_partition_result`)."""

import concurrent.futures
import pickle

import pytest

from repro.distributed.coordinator import _partition_result


class _Future:
    """Scripted future: yields each outcome (value or raised exception)."""

    def __init__(self, *outcomes):
        self._outcomes = list(outcomes)

    def result(self):
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class _Script:
    """Scripted ``resubmit``/``inline`` pair that records its calls."""

    def __init__(self, *resubmits):
        self._resubmits = list(resubmits)
        self.resubmitted = 0
        self.inlined = 0

    def resubmit(self):
        self.resubmitted += 1
        outcome = self._resubmits.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def inline(self):
        self.inlined += 1
        return "inline"

    def result(self, future, **kwargs):
        return _partition_result(
            self.resubmit, self.inline, future, **kwargs
        )


class TestPartitionResult:
    def test_healthy_future_passes_through(self):
        script = _Script()
        assert script.result(_Future("ok")) == "ok"
        assert script.resubmitted == 0 and script.inlined == 0

    def test_infra_failure_resubmits_with_backoff(self):
        script = _Script(_Future("recovered"))
        result = script.result(_Future(OSError("worker killed")), backoff=0.0)
        assert result == "recovered"
        assert script.resubmitted == 1
        assert script.inlined == 0  # worker recovered, no inline work

    @pytest.mark.parametrize(
        "error",
        [
            OSError("pipe dropped"),
            pickle.PicklingError("bad payload"),
            MemoryError(),
        ],
    )
    def test_exhausted_retries_rerun_inline(self, error):
        script = _Script(_Future(error), _Future(error))
        result = script.result(_Future(error), retries=2, backoff=0.0)
        assert result == "inline"
        assert script.resubmitted == 2 and script.inlined == 1

    def test_pool_shutdown_mid_retry_reruns_inline(self):
        script = _Script(RuntimeError("cannot schedule new futures"))
        result = script.result(_Future(OSError("worker killed")), backoff=0.0)
        assert result == "inline"
        assert script.resubmitted == 1 and script.inlined == 1

    def test_broken_pool_propagates_to_pool_fallback(self):
        script = _Script()
        broken = concurrent.futures.BrokenExecutor("pool died")
        with pytest.raises(concurrent.futures.BrokenExecutor):
            script.result(_Future(broken), backoff=0.0)
        assert script.resubmitted == 0 and script.inlined == 0

    def test_genuine_bug_propagates_immediately(self):
        script = _Script()
        with pytest.raises(ValueError, match="deterministic bug"):
            script.result(_Future(ValueError("deterministic bug")))
        assert script.resubmitted == 0 and script.inlined == 0

"""Interruption handling: SIGINT/SIGTERM leave a resumable run behind.

The result cache is the run's checkpoint: every finished simulation is
already an entry in it when a signal arrives."""

import os
import signal

import pytest

from repro import obs
from repro.codes import get_version
from repro.experiments.harness import SimulationRunner, interruption_guard
from repro.machine.configs import PENTIUM_PRO
from repro.store.core import Store

SIZES = {"T": 6, "L": 24}
MACHINE = PENTIUM_PRO.scaled(64)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def version():
    return get_version("stencil5", "ov")


def make_runner(tmp_path, **kwargs):
    return SimulationRunner(cache_dir=tmp_path / "cache", **kwargs)


class TestSignalFlush:
    def test_sigterm_flushes_checkpoint_ledger_and_exits_143(
        self, tmp_path, version
    ):
        ledger_path = tmp_path / "ledger.jsonl"
        obs.configure_ledger(str(ledger_path))
        runner = make_runner(tmp_path)
        runner.run(version, SIZES, MACHINE)
        assert runner.simulated == 1

        with pytest.raises(SystemExit) as excinfo:
            with interruption_guard(runner):
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.code == 128 + signal.SIGTERM

        from repro.obs.ledger import read_entries

        entries, corrupt = read_entries(ledger_path)
        assert corrupt == 0
        interrupted = [
            e for e in entries if e.get("event") == "interrupted"
        ]
        assert len(interrupted) == 1
        assert interrupted[0]["signal"] == "SIGTERM"
        assert interrupted[0]["simulated"] == 1
        assert interrupted[0]["quarantined"] == []

    def test_sigint_raises_keyboard_interrupt_after_flushing(
        self, tmp_path, version
    ):
        runner = make_runner(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            with interruption_guard(runner):
                os.kill(os.getpid(), signal.SIGINT)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["resilience.interrupts"] == 1

    def test_interrupted_checkpoint_resumes_with_zero_resimulation(
        self, tmp_path, version
    ):
        runner = make_runner(tmp_path)
        runner.run(version, SIZES, MACHINE)
        with pytest.raises(SystemExit):
            with interruption_guard(runner):
                os.kill(os.getpid(), signal.SIGTERM)

        # The cache holds the completed result...
        with Store.open(tmp_path / "cache") as cache:
            assert len(cache.keys()) == 1
        # ...and a re-run on the same cache replays it without simulating.
        rerun = make_runner(tmp_path)
        try:
            rerun.run(version, SIZES, MACHINE)
            assert rerun.simulated == 0
            assert rerun.cache_hits == 1
        finally:
            rerun.close()


class TestGuardHygiene:
    def test_previous_handlers_are_restored(self, tmp_path):
        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        runner = make_runner(tmp_path)
        try:
            with interruption_guard(runner):
                assert signal.getsignal(signal.SIGTERM) is not before_term
        finally:
            runner.close()
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int

    def test_guard_is_a_noop_off_the_main_thread(self, tmp_path):
        import threading

        runner = make_runner(tmp_path)
        before = signal.getsignal(signal.SIGTERM)
        seen = {}

        def body():
            with interruption_guard(runner):
                seen["handler"] = signal.getsignal(signal.SIGTERM)

        t = threading.Thread(target=body)
        t.start()
        t.join(timeout=30)
        runner.close()
        assert seen["handler"] is before  # nothing was installed

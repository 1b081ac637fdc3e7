"""Progress-callback guarding: a broken observer cannot kill a sweep.

Regression tests for the guarantee documented on ``Study.on_progress``: the
sweep engine wraps every callback in :func:`repro.api.guard_progress`, so an
exception inside one is caught and warned about (once), while
:class:`repro.api.StopSweep` — the sanctioned abort signal — passes through.
"""

import warnings

import pytest

from repro.api import StopSweep, Study, guard_progress
from repro.serve import ServePool
from repro.traces.generator import synthetic_ensemble


@pytest.fixture(scope="module")
def ensemble():
    return synthetic_ensemble("balanced", processes=3, tasks_per_process=20, seed=5)


@pytest.fixture(scope="module")
def pool():
    pool = ServePool(2)
    yield pool
    pool.shutdown()


def backend_for(name, pool):
    """``serve-pool`` is the serving daemon's shared thread pool."""
    return pool.backend() if name == "serve-pool" else name


def study(ensemble) -> Study:
    return Study().traces(ensemble).capacities(1.25).solvers("LCMR", "OS")


class TestGuardUnit:
    def test_none_passes_through(self):
        assert guard_progress(None) is None

    def test_clean_callback_is_transparent(self):
        seen = []
        guarded = guard_progress(lambda done, total: seen.append((done, total)))
        guarded(1, 3)
        guarded(2, 3)
        assert seen == [(1, 3), (2, 3)]

    def test_exception_is_caught_and_warned_once(self):
        calls = []

        def broken(done, total):
            calls.append(done)
            raise ValueError("observer bug")

        guarded = guard_progress(broken)
        with pytest.warns(RuntimeWarning, match="observer bug"):
            guarded(1, 3)
        # The second failure is silent: one warning per sweep, not per tick.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guarded(2, 3)
        assert calls == [1, 2]  # the callback kept being invoked regardless

    def test_stop_sweep_passes_through(self):
        def abort(done, total):
            raise StopSweep("enough")

        guarded = guard_progress(abort)
        with pytest.raises(StopSweep, match="enough"):
            guarded(1, 3)


class TestGuardInSweeps:
    @pytest.mark.parametrize("backend", ["serial", "serve-pool"])
    def test_broken_callback_warns_but_the_sweep_completes(self, ensemble, pool, backend):
        ticks = []

        def broken(done, total):
            ticks.append(done)
            raise RuntimeError("progress bar fell over")

        with pytest.warns(RuntimeWarning, match="progress bar fell over"):
            results = (
                study(ensemble)
                .parallel(2, backend=backend_for(backend, pool), chunk_size=1)
                .on_progress(broken)
                .run()
            )
        assert len(results) == 6  # 3 traces x 1 capacity x 2 solvers: all ran
        assert ticks == [1, 2, 3]

    def test_results_match_an_unobserved_sweep(self, ensemble):
        with pytest.warns(RuntimeWarning):
            observed = (
                study(ensemble)
                .on_progress(lambda d, t: (_ for _ in ()).throw(ValueError("x")))
                .run()
            )
        assert observed.to_json() == study(ensemble).run().to_json()

    @pytest.mark.parametrize("backend", ["serial", "serve-pool"])
    def test_stop_sweep_aborts_the_sweep(self, ensemble, pool, backend):
        def abort_after_first(done, total):
            if done >= 1:
                raise StopSweep("deadline")

        with pytest.raises(StopSweep):
            (
                study(ensemble)
                .parallel(2, backend=backend_for(backend, pool), chunk_size=1)
                .on_progress(abort_after_first)
                .run()
            )

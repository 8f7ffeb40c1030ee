"""The static RPR014 window-bound check against the runtime bound.

:func:`repro.verify.check_window_bound` re-proves, without running a
day, the capacity bound :func:`repro.fleet.no_death_window` computes
live; the two must agree on every window the runtime would take.
"""

from repro.fleet import no_death_window
from repro.fleet.service import MAX_WINDOW
from repro.verify import check_window_bound


class TestWindowBoundAgainstRuntime:
    """The static RPR014 pass must agree with the live no_death_window
    arithmetic it re-proves."""

    def test_runtime_window_always_passes_static_bound(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            thresholds = rng.uniform(1e3, 1e7, size=n)
            cumulative = thresholds * rng.uniform(0.0, 0.9, size=n)
            per_day = rng.uniform(0.1, 50.0, size=n)
            window = no_death_window(
                thresholds,
                cumulative,
                np.full(n, -1, dtype=np.int64),
                per_day,
                MAX_WINDOW,
            )
            if window < 1:
                continue
            assert check_window_bound(
                int(window),
                per_day_max=per_day,
                thresholds=thresholds,
                cumulative=cumulative,
            ) == []

    def test_one_day_past_the_runtime_window_fails(self):
        import numpy as np

        thresholds = np.array([1e6, 2e6])
        cumulative = np.array([9.9e5, 0.0])
        per_day = np.array([100.0, 1.0])
        window = no_death_window(
            thresholds,
            cumulative,
            np.array([-1, -1], dtype=np.int64),
            per_day,
            MAX_WINDOW,
        )
        assert window >= 1
        diagnostics = check_window_bound(
            int(window) + 1,
            per_day_max=per_day,
            thresholds=thresholds,
            cumulative=cumulative,
        )
        assert [d.code for d in diagnostics] == ["RPR014"]

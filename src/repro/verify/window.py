"""Static soundness check of the fleet's no-death window bound (RPR014).

The fleet day loop (:class:`~repro.fleet.service.FleetService`) may
advance a whole span of days in one batch when
:func:`~repro.fleet.service.no_death_window` proves no array can cross
its death threshold inside it. :func:`check_window_bound` re-proves that
bound per spec without running a day: the declared window must stay
under the hard cap that keeps the float64 rounding-drift margin valid,
and, when concrete campaign vectors are supplied, the per-array bound
``window x per-day wear <= headroom margin`` must actually hold.

The fleet modules are imported lazily inside the function so
``repro.fleet`` can import ``repro.verify`` for its own pre-run gating
without a cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = ["check_window_bound"]


def check_window_bound(
    window: int,
    per_day_max: Optional[Sequence[float]] = None,
    thresholds: Optional[Sequence[float]] = None,
    cumulative: Optional[Sequence[float]] = None,
) -> List[Diagnostic]:
    """RPR014: re-prove the no-death window bound for a spec.

    Two layers:

    * **Spec-level** (always): the declared maximum window must not
      exceed :data:`repro.fleet.service.MAX_WINDOW`, and the float64
      rounding-drift proof behind
      :data:`repro.fleet.service.WINDOW_MARGIN` must still hold at the
      declared size (``window * 2**-53 < WINDOW_MARGIN`` — ``window``
      consecutive additions drift by at most ``window`` ulps).
    * **Campaign-level** (when concrete vectors are supplied): the
      capacity bound itself, per array — ``window * per_day_max[i]``
      must not exceed the margin-shrunk headroom ``thresholds[i] *
      (1 - WINDOW_MARGIN) - cumulative[i]``, i.e. no array can possibly
      cross its death threshold inside the window. This is the exact
      form :func:`repro.fleet.service.no_death_window` floors, so
      every runtime-derived window passes and ``window + 1`` fails.

    Args:
        window: The declared maximum no-death window, in days (0
            disables window stepping and is trivially sound).
        per_day_max: Optional per-array upper bound on daily wear.
        thresholds: Optional per-array death thresholds.
        cumulative: Optional per-array accumulated iterations.
    """
    from repro.fleet.service import MAX_WINDOW, WINDOW_MARGIN

    diagnostics: List[Diagnostic] = []
    if window < 0:
        diagnostics.append(
            Diagnostic(
                "RPR014",
                Severity.ERROR,
                f"window {window} is negative",
                Location(place="window bound"),
            )
        )
        return diagnostics
    if window == 0:
        return diagnostics
    if window > MAX_WINDOW:
        diagnostics.append(
            Diagnostic(
                "RPR014",
                Severity.ERROR,
                f"declared window {window} exceeds the rounding-proof cap "
                f"MAX_WINDOW = {MAX_WINDOW}",
                Location(place="window bound"),
                hint="the WINDOW_MARGIN drift analysis only covers windows "
                "up to MAX_WINDOW days",
            )
        )
    drift = window * 2.0 ** -53
    if drift >= WINDOW_MARGIN:
        diagnostics.append(
            Diagnostic(
                "RPR014",
                Severity.ERROR,
                f"worst-case rounding drift of {window} consecutive float64 "
                f"additions ({drift:.3e}) reaches WINDOW_MARGIN "
                f"({WINDOW_MARGIN:.0e})",
                Location(place="window bound"),
                hint="shrink the window or widen WINDOW_MARGIN",
            )
        )
    supplied = [per_day_max, thresholds, cumulative]
    if any(v is not None for v in supplied):
        if any(v is None for v in supplied):
            raise ValueError(
                "per_day_max, thresholds, and cumulative must be supplied "
                "together"
            )
        rate = np.asarray(per_day_max, dtype=float)
        thr = np.asarray(thresholds, dtype=float)
        cum = np.asarray(cumulative, dtype=float)
        if not (len(rate) == len(thr) == len(cum)):
            raise ValueError("campaign vectors must share one length")
        if len(rate):
            margin = thr * (1.0 - WINDOW_MARGIN) - cum
            excess = window * rate - margin
            offender = int(np.argmax(excess))
            if excess[offender] > 0:
                diagnostics.append(
                    Diagnostic(
                        "RPR014",
                        Severity.ERROR,
                        f"window {window} x per-day wear "
                        f"{rate[offender]:g} = "
                        f"{window * rate[offender]:g} exceeds array "
                        f"{offender}'s headroom margin "
                        f"{margin[offender]:g}",
                        Location(
                            address=offender, place="window capacity bound"
                        ),
                        hint="an array could cross its death threshold "
                        "inside the window; step per-day instead",
                    )
                )
    return diagnostics

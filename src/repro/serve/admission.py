"""Admission control for the scheduling service.

A long-running scheduler front-end must fail *fast* when overloaded:
queuing unboundedly trades a quick, honest 429 for an eventual timeout
after the client has already given up.  The admission controller keeps a
hard bound on backlog (queued + actively dispatching jobs) and sheds work
above it, attaching a ``Retry-After`` hint derived from *observed* service
time rather than a static guess:

    retry_after = (backlog + 1) * ewma_service_seconds

i.e. "the time for the current backlog to drain through the dispatcher at
the recently measured per-job rate, plus one slot for you".  The estimate
is an exponentially weighted moving average so a burst of huge
graphs raises the hint and a run of small ones lowers it, with clamps so
the header is always a sane positive integer number of seconds.  Only
computed jobs feed it: result-cache hits are answered at admission and
never reach a dispatcher.
"""

from __future__ import annotations

__all__ = ["AdmissionController", "ShedError"]

#: Starting per-job service estimate before any observation (seconds).
DEFAULT_SERVICE_ESTIMATE = 0.05

#: Smoothing factor for the service-time EWMA (higher = more reactive).
EWMA_ALPHA = 0.3

#: Retry-After clamps (seconds) — the header is advisory, keep it humane.
MIN_RETRY_AFTER = 1
MAX_RETRY_AFTER = 120


class ShedError(Exception):
    """Raised when a request is refused admission.

    Carries the 429 payload: ``retry_after`` (whole seconds, >= 1) and a
    human-readable ``reason``.
    """

    def __init__(self, retry_after: int, reason: str) -> None:
        super().__init__(reason)
        self.retry_after = retry_after
        self.reason = reason


class AdmissionController:
    """Bounded-backlog admission with an EWMA service-time estimator.

    ``max_backlog`` is the largest number of jobs allowed in the system
    (waiting in the fair queue plus being dispatched).  The estimate starts
    at :data:`DEFAULT_SERVICE_ESTIMATE` and smooths with
    :data:`EWMA_ALPHA`.
    """

    def __init__(self, max_backlog: int) -> None:
        if max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
        self.max_backlog = max_backlog
        self._ewma = DEFAULT_SERVICE_ESTIMATE
        self._observations = 0

    # -- service-time estimator ---------------------------------------------

    @property
    def service_estimate(self) -> float:
        """Current EWMA of per-job service time in seconds."""
        return self._ewma

    @property
    def observations(self) -> int:
        return self._observations

    def observe_service(self, seconds: float) -> None:
        """Feed one completed job's service time into the EWMA."""
        if seconds < 0:
            return
        if self._observations == 0:
            # First real sample replaces the prior outright.
            self._ewma = seconds
        else:
            self._ewma += EWMA_ALPHA * (seconds - self._ewma)
        self._observations += 1

    # -- admission -----------------------------------------------------------

    def retry_after(self, backlog: int) -> int:
        """Whole-second drain estimate for a client arriving behind
        ``backlog`` jobs."""
        est = (backlog + 1) * self._ewma
        whole = int(est) + (1 if est > int(est) else 0)  # ceil without math
        return max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, whole))

    def admit(self, backlog: int, draining: bool = False) -> None:
        """Admit a request seen at ``backlog``, or raise :class:`ShedError`.

        ``draining`` sheds unconditionally (the server is completing
        in-flight work before shutdown and accepts nothing new).
        """
        if draining:
            raise ShedError(
                self.retry_after(backlog), "server is draining for shutdown"
            )
        if backlog >= self.max_backlog:
            raise ShedError(
                self.retry_after(backlog),
                f"backlog full ({backlog}/{self.max_backlog} jobs)",
            )

    def __repr__(self) -> str:
        return (
            f"<AdmissionController max_backlog={self.max_backlog} "
            f"ewma={self._ewma:.4f}s "
            f"obs={self._observations}>"
        )

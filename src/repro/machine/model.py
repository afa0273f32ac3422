"""The distributed-memory machine model.

The paper assumes "a set P of P processors connected in homogeneous clique
topology" with contention-free interprocessor communication, and zero
communication cost between tasks on the same processor (Section 2).

:class:`MachineModel` captures exactly that, with three extension hooks
kept out of the paper's experiments but useful for sensitivity studies and
the heterogeneous extension (HEFT; the authors' own follow-up work went
heterogeneous):

* ``comm_scale`` — multiplies every cross-processor communication cost
  (models faster/slower interconnect relative to the task-graph's weights);
* ``latency`` — fixed per-message start-up cost added to every
  cross-processor message;
* ``speeds`` — optional per-processor relative speeds: a task with
  computation cost ``c`` runs for ``c / speeds[p]`` on processor ``p``
  (``None`` = homogeneous, the paper's model).

With the defaults the model is precisely the paper's:
``delay(src, dst, cost) = cost`` when the processors differ, ``0``
otherwise, and every task runs for exactly its computation cost.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["MachineModel"]

#: Version tag mixed into :meth:`MachineModel.fingerprint`.  Bump it if the
#: set of fingerprinted fields ever changes, so old persisted keys can never
#: alias new ones.
_FINGERPRINT_VERSION = b"machine-v1"


@dataclass(frozen=True)
class MachineModel:
    """A contention-free clique of ``num_procs`` processors."""

    num_procs: int
    comm_scale: float = 1.0
    latency: float = 0.0
    speeds: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")
        if not 0 <= self.comm_scale < math.inf:
            raise ValueError(
                f"comm_scale must be finite and >= 0, got {self.comm_scale}"
            )
        if not 0 <= self.latency < math.inf:
            raise ValueError(f"latency must be finite and >= 0, got {self.latency}")
        if self.speeds is not None:
            speeds = tuple(float(s) for s in self.speeds)
            if len(speeds) != self.num_procs:
                raise ValueError(
                    f"speeds must have one entry per processor "
                    f"({self.num_procs}), got {len(speeds)}"
                )
            if not all(0 < s < math.inf for s in speeds):
                raise ValueError(
                    f"all processor speeds must be positive and finite, got "
                    f"{speeds}"
                )
            object.__setattr__(self, "speeds", speeds)

    @property
    def procs(self) -> range:
        """Processor ids ``0 .. num_procs-1``."""
        return range(self.num_procs)

    @property
    def is_heterogeneous(self) -> bool:
        return self.speeds is not None and len(set(self.speeds)) > 1

    def duration(self, comp: float, proc: int) -> float:
        """Execution time of a task with computation cost ``comp`` on ``proc``."""
        if self.speeds is None:
            return comp
        return comp / self.speeds[proc]

    def mean_duration(self, comp: float) -> float:
        """Execution time averaged over processors (HEFT's rank weights)."""
        if self.speeds is None:
            return comp
        return comp * sum(1.0 / s for s in self.speeds) / self.num_procs

    def comm_delay(self, src_proc: int, dst_proc: int, cost: float) -> float:
        """Delay for a message of weight ``cost`` between two processors.

        Zero when both endpoints are the same processor; otherwise
        ``latency + comm_scale * cost`` (paper default: ``cost``).
        """
        if src_proc == dst_proc:
            return 0.0
        return self.remote_delay(cost)

    def remote_delay(self, cost: float) -> float:
        """Delay for a message of weight ``cost`` that must cross processors.

        This is what the paper's ``LMT`` uses: the arrival time assuming the
        message is remote, regardless of where the consumer ends up.
        """
        return self.latency + self.comm_scale * cost

    @property
    def is_paper_model(self) -> bool:
        """True when the model matches the paper's assumptions exactly."""
        return (
            self.comm_scale == 1.0
            and self.latency == 0.0
            and not self.is_heterogeneous
        )

    def fingerprint(self) -> str:
        """Canonical hex digest of the model (cache/coalescing key material).

        blake2b over the exact field values — ``num_procs``, ``comm_scale``,
        ``latency`` and the ``speeds`` tuple (absent vs. present is part of
        the digest, so ``MachineModel(4)`` and ``MachineModel(4, speeds=(1.0,
        1.0, 1.0, 1.0))`` fingerprint differently, exactly as they compare
        unequal).  Floats are packed as IEEE-754 doubles, so two models
        fingerprint equal iff they are ``==``.  Memoized on the instance;
        the dataclass is frozen, so the digest can never go stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return str(cached)
        h = hashlib.blake2b(digest_size=16)
        h.update(_FINGERPRINT_VERSION)
        h.update(struct.pack("<q", self.num_procs))
        h.update(struct.pack("<dd", self.comm_scale, self.latency))
        if self.speeds is None:
            h.update(b"homog")
        else:
            h.update(struct.pack(f"<{len(self.speeds)}d", *self.speeds))
        digest = h.hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (the serve plane's ``machine`` object)."""
        doc: Dict[str, Any] = {
            "num_procs": self.num_procs,
            "comm_scale": self.comm_scale,
            "latency": self.latency,
        }
        if self.speeds is not None:
            doc["speeds"] = list(self.speeds)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MachineModel":
        """Parse the :meth:`to_dict` document (strict: unknown keys raise).

        Raises :class:`ValueError` on malformed input — wire-facing callers
        (the HTTP front-end, ``--machine-json``) turn that into their own
        400/usage errors.
        """
        if not isinstance(doc, Mapping):
            raise ValueError(f"machine must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"num_procs", "comm_scale", "latency", "speeds"}
        if unknown:
            raise ValueError(f"unknown machine field(s): {sorted(unknown)}")
        num_procs = doc.get("num_procs")
        if not isinstance(num_procs, int) or isinstance(num_procs, bool):
            raise ValueError("machine.num_procs must be an integer")
        comm_scale = doc.get("comm_scale", 1.0)
        latency = doc.get("latency", 0.0)
        for name, value in (("comm_scale", comm_scale), ("latency", latency)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"machine.{name} must be a number")
        speeds = doc.get("speeds")
        if speeds is not None:
            if not isinstance(speeds, (list, tuple)) or any(
                isinstance(s, bool) or not isinstance(s, (int, float))
                for s in speeds
            ):
                raise ValueError("machine.speeds must be a list of numbers")
            speeds = tuple(float(s) for s in speeds)
        return cls(
            num_procs=num_procs,
            comm_scale=float(comm_scale),
            latency=float(latency),
            speeds=speeds,
        )

"""Configuration for the chained-HotStuff baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.messages.base import DEFAULT_PAYLOAD


@dataclass(frozen=True)
class HotStuffConfig:
    """Tunables for one HotStuff deployment.

    Attributes:
        n: replica count (3f+1).
        f: fault bound; defaults to ⌊(n-1)/3⌋.
        payload_size: bytes per request.
        batch_size: requests per block — the single batch parameter the
            paper sweeps in Fig. 6 (800 in its headline runs, Table II).
        idle_repropose_delay: when the mempool is empty at QC time, retry
            proposing after this long.
        progress_timeout: pacemaker timeout for leader rotation.
        quorum: 2f + 1 votes form a quorum certificate (derived).
    """

    n: int
    f: int = -1
    payload_size: int = DEFAULT_PAYLOAD
    batch_size: int = 800
    idle_repropose_delay: float = 0.001
    progress_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError("HotStuff needs n >= 4")
        if self.f < 0:
            object.__setattr__(self, "f", (self.n - 1) // 3)
        if self.n < 3 * self.f + 1:
            raise ConfigError(f"n={self.n} cannot tolerate f={self.f}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        object.__setattr__(self, "quorum", 2 * self.f + 1)

    def leader_of(self, view: int) -> int:
        """Round-robin pacemaker."""
        return view % self.n

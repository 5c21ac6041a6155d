"""Configuration for the PBFT / BFT-SMaRt baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.messages.base import DEFAULT_PAYLOAD


@dataclass(frozen=True)
class PbftConfig:
    """Tunables for one PBFT deployment.

    Attributes:
        n: replica count (3f+1).
        f: fault bound; defaults to ⌊(n-1)/3⌋.
        payload_size: bytes per request.
        batch_size: requests per pre-prepare batch.
        window: parallel-instance watermark window (PBFT's k).
        proposal_interval: leader proposal tick.
        quorum: 2f + 1 matching votes complete a phase (derived; read
            once per vote, so it is stored, not recomputed).
    """

    n: int
    f: int = -1
    payload_size: int = DEFAULT_PAYLOAD
    batch_size: int = 800
    window: int = 20
    proposal_interval: float = 0.005

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError("PBFT needs n >= 4")
        if self.f < 0:
            object.__setattr__(self, "f", (self.n - 1) // 3)
        if self.n < 3 * self.f + 1:
            raise ConfigError(f"n={self.n} cannot tolerate f={self.f}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        object.__setattr__(self, "quorum", 2 * self.f + 1)

    def leader_of(self, view: int) -> int:
        """Round-robin leader assignment."""
        return view % self.n

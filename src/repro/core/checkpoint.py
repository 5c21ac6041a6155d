"""Checkpointing and garbage collection (paper Algorithm 4, Appendix A).

Every ``checkpoint_period`` executed serial numbers, replicas send a
threshold-signature share over ⟨checkpoint, sn, H(st)⟩ to the leader, which
combines 2f+1 shares into a checkpoint certificate and multicasts it.  A
valid certificate advances the low watermark ``lw`` (unblocking new serial
numbers, Algorithm 2 line 37) and lets replicas drop executed requests.
"""

from __future__ import annotations

from repro.crypto.threshold import (
    SignatureShare,
    ThresholdError,
    ThresholdScheme,
    ThresholdSignature,
    message_element,
)
from repro.messages.leopard import (
    CheckpointProof,
    CheckpointShare,
    checkpoint_payload,
)


class CheckpointManager:
    """Per-replica checkpoint state; the leader also aggregates shares."""

    def __init__(self, period: int, scheme: ThresholdScheme) -> None:
        self.period = period
        self.scheme = scheme
        self.stable_sn = 0
        self.latest_proof: CheckpointProof | None = None
        self._last_share_sn = 0
        self._shares: dict[tuple[int, bytes], dict[int, SignatureShare]] = {}
        self._elements: dict[tuple[int, bytes], int] = {}
        self._issued: set[tuple[int, bytes]] = set()

    def due(self, executed_sn: int) -> bool:
        """Whether an executed prefix ending at ``executed_sn`` needs a share."""
        if executed_sn <= self._last_share_sn:
            return False
        return executed_sn % self.period == 0

    def make_share(self, replica_id: int, secret_signer, executed_sn: int,
                   state_digest: bytes) -> CheckpointShare:
        """Produce this replica's checkpoint share (Algorithm 4, lines 2-6)."""
        self._last_share_sn = executed_sn
        payload = checkpoint_payload(executed_sn, state_digest)
        return CheckpointShare(
            executed_sn, state_digest, secret_signer.sign(payload))

    def on_share(self, sender: int, share: CheckpointShare
                 ) -> CheckpointProof | None:
        """Leader-side aggregation; returns the certificate on quorum."""
        key = (share.sn, share.state_digest)
        if key in self._issued or share.sn <= self.stable_sn:
            return None
        if sender != share.share.signer:
            return None
        payload = checkpoint_payload(share.sn, share.state_digest)
        element = self._elements.get(key)
        if element is None:
            element = message_element(payload)
        if not self.scheme.verify_share(share.share, payload,
                                        element=element):
            return None
        # Cache only for valid shares, so _elements keys mirror _shares
        # buckets (and get the same stale-cleanup in on_proof).
        self._elements.setdefault(key, element)
        bucket = self._shares.setdefault(key, {})
        bucket[sender] = share.share
        if len(bucket) < self.scheme.threshold:
            return None
        try:
            # Shares were verified on arrival; skip the one-by-one recheck.
            combined = self.scheme.combine(list(bucket.values()), payload,
                                           preverified=True)
        except ThresholdError:
            return None
        self._elements.pop(key, None)
        self._issued.add(key)
        self._shares.pop(key, None)
        return CheckpointProof(share.sn, share.state_digest, combined)

    def on_proof(self, proof: CheckpointProof) -> bool:
        """Validate and adopt a checkpoint certificate; True if it advanced."""
        if proof.sn <= self.stable_sn:
            return False
        payload = checkpoint_payload(proof.sn, proof.state_digest)
        if not self.scheme.verify(proof.signature, payload):
            return False
        self.stable_sn = proof.sn
        self.latest_proof = proof
        stale = [key for key in self._shares if key[0] <= proof.sn]
        for key in stale:
            del self._shares[key]
            self._elements.pop(key, None)
        # on_share already refuses every sn <= stable_sn.
        self._issued = {key for key in self._issued if key[0] > proof.sn}
        return True

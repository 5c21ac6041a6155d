"""Agreement-instance state (paper Algorithm 2).

Each serial number hosts one :class:`AgreementInstance` progressing
``PROPOSED → NOTARIZED → CONFIRMED`` as the two voting rounds complete.
:class:`InstanceStore` is the per-replica book of instances (with the
watermark window and the one-vote-per-(view, sn) rule of VRFBFTBLOCK);
:class:`VoteAggregator` is the leader-side share collector that turns 2f+1
valid shares into a notarization/confirmation proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import digest as sha_digest
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdError,
    ThresholdScheme,
    ThresholdSignature,
    message_element,
)
from repro.messages.leopard import (
    BFTblock,
    Proof,
    Vote,
)

#: Instance states (a BFTblock has two proof states in the paper, §IV).
PROPOSED = "proposed"
NOTARIZED = "notarized"
CONFIRMED = "confirmed"


def commit_payload(notarization: ThresholdSignature) -> bytes:
    """H(σ̂¹): the byte string second-round votes sign."""
    return sha_digest(b"notarized" + notarization.value.to_bytes(48, "big"))


@dataclass
class AgreementInstance:
    """One BFTblock's progress through the two voting rounds."""

    block: BFTblock
    state: str = PROPOSED
    notarization: ThresholdSignature | None = None
    confirmation: ThresholdSignature | None = None
    proposed_at: float = 0.0
    confirmed_at: float | None = None

    @property
    def sn(self) -> int:
        """Serial number of the underlying BFTblock."""
        return self.block.sn

    def apply_notarization(self, signature: ThresholdSignature) -> bool:
        """Move to NOTARIZED; returns True if the state advanced."""
        if self.state != PROPOSED:
            return False
        self.state = NOTARIZED
        self.notarization = signature
        return True

    def apply_confirmation(self, signature: ThresholdSignature,
                           notarization: ThresholdSignature | None,
                           now: float) -> bool:
        """Move to CONFIRMED; returns True if the state advanced.

        A replica may learn of confirmation without having seen the
        notarization proof (it was retrieving, say); the confirmation
        message carries the notarization along (Proof.prior_signature).
        """
        if self.state == CONFIRMED:
            return False
        if self.notarization is None:
            self.notarization = notarization
        self.state = CONFIRMED
        self.confirmation = signature
        self.confirmed_at = now
        return True


class InstanceStore:
    """Per-replica agreement bookkeeping with the watermark window.

    Args:
        window: k — the max number of parallel instances (valid serial
            numbers are ``lw < sn <= lw + k``, Algorithm 2 line 37).
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.low_watermark = 0
        self.instances: dict[int, AgreementInstance] = {}
        self._by_digest: dict[bytes, int] = {}
        self._voted: dict[tuple[int, int], bytes] = {}
        self._buffered_proofs: dict[bytes, list[Proof]] = {}

    def in_window(self, sn: int) -> bool:
        """Watermark check: ``lw < sn <= lw + k``."""
        return self.low_watermark < sn <= self.low_watermark + self.window

    def record_vote_lock(self, view: int, sn: int, block_digest: bytes
                         ) -> bool:
        """Enforce one vote per (view, sn); True if voting is allowed."""
        key = (view, sn)
        locked = self._voted.get(key)
        if locked is None:
            self._voted[key] = block_digest
            return True
        return locked == block_digest

    def admit(self, block: BFTblock, now: float) -> AgreementInstance | None:
        """Register a proposed BFTblock; None if sn conflicts or is stale.

        A re-proposal of the *same* block (view-change redo) returns the
        existing instance.
        """
        existing = self.instances.get(block.sn)
        if existing is not None:
            if existing.block.digest() == block.digest():
                return existing
            if existing.state != PROPOSED:
                return None
            # A higher view may legitimately replace an unfinished block
            # at the same serial number after a view-change.
            if block.view <= existing.block.view:
                return None
            del self._by_digest[existing.block.digest()]
        if not self.in_window(block.sn):
            return None
        instance = AgreementInstance(block, proposed_at=now)
        self.instances[block.sn] = instance
        self._by_digest[block.digest()] = block.sn
        return instance

    def force_admit(self, block: BFTblock, now: float
                    ) -> AgreementInstance | None:
        """Admit a view-change redo block, replacing unfinished conflicts.

        A locally CONFIRMED instance with a *different* digest is kept (it
        is already decided; by Lemma 2 the redo schedule carries the same
        block whenever safety is at stake) and None is returned so the
        caller does not vote on the replacement.
        """
        existing = self.instances.get(block.sn)
        if existing is not None:
            if existing.block.digest() == block.digest():
                return existing
            if existing.state == CONFIRMED:
                return None
            del self._by_digest[existing.block.digest()]
            del self.instances[block.sn]
        if block.sn <= self.low_watermark:
            return None
        instance = AgreementInstance(block, proposed_at=now)
        self.instances[block.sn] = instance
        self._by_digest[block.digest()] = block.sn
        return instance

    def by_digest(self, block_digest: bytes) -> AgreementInstance | None:
        """Find the live instance for a block digest."""
        sn = self._by_digest.get(block_digest)
        return self.instances.get(sn) if sn is not None else None

    def buffer_proof(self, proof: Proof) -> None:
        """Hold a proof that arrived before its block."""
        self._buffered_proofs.setdefault(
            proof.block_digest, []).append(proof)

    def drain_buffered(self, block_digest: bytes) -> list[Proof]:
        """Release proofs buffered for a block that just arrived."""
        return self._buffered_proofs.pop(block_digest, [])

    def advance_watermark(self, new_low: int) -> list[int]:
        """Raise the watermark (checkpointing); returns GC'd serials."""
        if new_low <= self.low_watermark:
            return []
        self.low_watermark = new_low
        stale = [sn for sn in self.instances if sn <= new_low]
        for sn in stale:
            instance = self.instances.pop(sn)
            self._by_digest.pop(instance.block.digest(), None)
        self._voted = {key: value for key, value in self._voted.items()
                       if key[1] > new_low}
        return stale

    def unconfirmed(self) -> list[AgreementInstance]:
        """Instances not yet confirmed (view-change collection input)."""
        return [instance for instance in self.instances.values()
                if instance.state != CONFIRMED]

    def notarized_or_better(self) -> list[AgreementInstance]:
        """Instances with at least a notarization proof (Appendix A)."""
        return [instance for instance in self.instances.values()
                if instance.notarization is not None]


class VoteAggregator:
    """Leader-side share collection for both voting rounds.

    One aggregation bucket per (round, block digest).  Shares are verified
    on arrival (TVrf) and combined (TSR) exactly once when the 2f+1-th
    valid share lands — the "specific node" role of §IV-A2.

    Share-verification batching: the per-payload message element is
    derived once per bucket and reused for every arriving share, and
    ``combine`` runs with ``preverified=True`` — so collecting a quorum
    costs one hash total instead of one per share plus a redundant
    one-by-one re-verification of all 2f+1 shares at combine time.
    """

    def __init__(self, scheme: ThresholdScheme) -> None:
        self.scheme = scheme
        self._shares: dict[tuple[int, bytes], dict[int, SignatureShare]] = {}
        self._payloads: dict[tuple[int, bytes], bytes] = {}
        self._elements: dict[tuple[int, bytes], int] = {}
        self._combined: set[tuple[int, bytes]] = set()
        #: Serial number of every bucket above, for :meth:`forget_through`.
        self._sns: dict[tuple[int, bytes], int] = {}

    def add_vote(self, sender: int, vote: Vote, sn: int = 0
                 ) -> ThresholdSignature | None:
        """Record one vote for the block at serial number ``sn``; returns
        the combined proof on quorum.

        Invalid shares (wrong signer, bad value, forged payload) are
        dropped silently, as an honest leader would drop them.
        """
        key = (vote.round, vote.block_digest)
        if key in self._combined:
            return None
        if sender != vote.share.signer:
            return None
        expected = self._payloads.get(key)
        if expected is not None and vote.signed_payload != expected:
            return None
        element = self._elements.get(key)
        if element is None:
            element = message_element(vote.signed_payload)
        if not self.scheme.verify_share(
                vote.share, vote.signed_payload, element=element):
            return None
        # Pin bucket state only after the share verified: an unverifiable
        # vote must leave no trace, or junk payloads could poison the
        # bucket and block honest quorum formation.
        self._payloads.setdefault(key, vote.signed_payload)
        self._elements.setdefault(key, element)
        self._sns.setdefault(key, sn)
        bucket = self._shares.setdefault(key, {})
        bucket[sender] = vote.share
        if len(bucket) < self.scheme.threshold:
            return None
        try:
            combined = self.scheme.combine(
                list(bucket.values()), vote.signed_payload,
                preverified=True)
        except ThresholdError:
            return None
        self._combined.add(key)
        self._shares.pop(key, None)
        self._elements.pop(key, None)
        # _combined already suppresses late votes for this key; the
        # pinned payload is no longer needed.
        self._payloads.pop(key, None)
        return combined

    def forget_through(self, sn: int) -> None:
        """Drop every bucket for serial numbers ``<= sn`` (a stable
        checkpoint's; the replica no longer routes votes for them here)."""
        stale = [key for key, key_sn in self._sns.items() if key_sn <= sn]
        for key in stale:
            del self._sns[key]
            self._combined.discard(key)
            self._shares.pop(key, None)
            self._payloads.pop(key, None)
            self._elements.pop(key, None)

    def pending_votes(self, round_: int, block_digest: bytes) -> int:
        """How many valid shares collected so far (diagnostics)."""
        return len(self._shares.get((round_, block_digest), {}))

"""(t, n)-threshold signatures with the paper's TS = (TSig, TVrf, TSR) API.

The paper (§III-B) assumes a ``(2f+1, n)``-threshold signature scheme,
instantiated with threshold BLS (κ = 48-byte signatures) in the authors'
prototype.  No pairing library is available in this offline environment, so
we substitute a scheme with **real threshold combinatorics** built on Shamir
secret sharing over a 256-bit prime field (see DESIGN.md §2):

* Key generation Shamir-shares a master secret ``s``; replica ``i`` holds
  ``s_i = p(i)``.
* A signature share on message ``m`` is ``σ_i = e(m) · s_i  (mod PRIME)``
  where ``e(m)`` derives a nonzero field element from ``H(m)``.
* Combining any ``t`` valid shares by Lagrange interpolation at zero yields
  ``σ = e(m) · s``, the unique "master signature"; fewer than ``t`` shares
  cannot (information-theoretically) produce it.
* Verification recomputes against registered verification values.

This preserves everything the *protocol* relies on — unforgeability is
modelled (the simulator's adversary does not forge), while liveness/safety
accounting, message sizes (κ = 48 bytes on the wire) and the any-2f+1-subset
combination property are exercised for real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import shamir
from repro.crypto.hashing import digest

#: κ in the paper's cost model: wire size of one share or combined signature.
SIGNATURE_SIZE = 48


class ThresholdError(ValueError):
    """Raised on malformed shares or insufficient share sets."""


def message_element(message: bytes) -> int:
    """Map a message to a nonzero field element via SHA-256.

    Exposed so aggregators verifying many shares on the *same* message can
    derive the element once and pass it to :meth:`ThresholdScheme.
    verify_share` / :meth:`ThresholdScheme.verify_shares` instead of
    re-hashing per share.
    """
    value = int.from_bytes(digest(message), "big") % shamir.PRIME
    return value or 1


#: Backwards-compatible private alias.
_message_element = message_element


@dataclass(frozen=True)
class SignatureShare:
    """``TSig`` output: one replica's share on a message.

    Attributes:
        signer: replica index (0-based).
        value: field element ``e(m) · s_i``.
    """

    signer: int
    value: int

    def size_bytes(self) -> int:
        """Wire size (κ); matches 48-byte BLS shares in the paper."""
        return SIGNATURE_SIZE


@dataclass(frozen=True)
class ThresholdSignature:
    """``TSR`` output: the combined signature, verifiable against ``mpk``."""

    value: int

    def size_bytes(self) -> int:
        """Wire size (κ); aggregation keeps proofs O(1) as in the paper."""
        return SIGNATURE_SIZE


@dataclass(frozen=True)
class PublicKey:
    """Master public key plus per-replica verification values."""

    threshold: int
    total: int
    master_secret: int
    share_secrets: tuple[int, ...]


class ThresholdScheme:
    """A dealt (threshold, total) signature scheme for one replica group.

    Use :func:`generate` to deal keys, then hand each replica a
    :class:`Signer` and every node the shared :class:`PublicKey`.
    """

    def __init__(self, public_key: PublicKey) -> None:
        self.public_key = public_key

    @property
    def threshold(self) -> int:
        """Shares required to combine (2f+1 in Leopard)."""
        return self.public_key.threshold

    @property
    def total(self) -> int:
        """Total shares dealt (n)."""
        return self.public_key.total

    def sign_share(self, signer: int, secret: int, message: bytes
                   ) -> SignatureShare:
        """``TSig(tsk_i, m)``: produce replica ``signer``'s share on ``m``."""
        return SignatureShare(
            signer, (_message_element(message) * secret) % shamir.PRIME)

    def verify_share(self, share: SignatureShare, message: bytes,
                     element: int | None = None) -> bool:
        """``TVrf(tpk_i, σ̂_i, m)``: validate one share against its signer.

        Args:
            share: the share to check.
            message: the signed message.
            element: optional precomputed :func:`message_element` of
                ``message`` — callers checking many shares on one message
                pass it to skip the per-share hash.
        """
        if not 0 <= share.signer < self.total:
            return False
        if element is None:
            element = message_element(message)
        expected = (element * self.public_key.share_secrets[share.signer]
                    ) % shamir.PRIME
        return share.value == expected

    def verify_shares(self, shares: list[SignatureShare], message: bytes
                      ) -> list[SignatureShare]:
        """Batch ``TVrf``: validate a whole share set in one pass.

        Derives the message element once and checks every share against
        it, so verifying the 2f+1 shares of a quorum costs one SHA-256
        (plus one modular multiply per share) instead of 2f+1 hashes.
        Returns the valid shares deduplicated by signer (first wins),
        preserving input order.
        """
        element = message_element(message)
        secrets = self.public_key.share_secrets
        total = self.total
        valid: list[SignatureShare] = []
        seen: set[int] = set()
        for share in shares:
            signer = share.signer
            if signer in seen or not 0 <= signer < total:
                continue
            if share.value == (element * secrets[signer]) % shamir.PRIME:
                seen.add(signer)
                valid.append(share)
        return valid

    def combine(self, shares: list[SignatureShare], message: bytes,
                preverified: bool = False) -> ThresholdSignature:
        """``TSR(S)``: combine ≥ threshold valid shares into one signature.

        Args:
            shares: candidate shares.
            message: the signed message.
            preverified: skip per-share verification — for aggregators
                that already validated each share on arrival (the
                redundant one-by-one re-check was the quorum-path hot
                spot this flag removes).

        Raises:
            ThresholdError: if fewer than ``threshold`` distinct valid
                shares are supplied.
        """
        if preverified:
            valid: dict[int, SignatureShare] = {}
            for share in shares:
                valid.setdefault(share.signer, share)
        else:
            valid = {share.signer: share
                     for share in self.verify_shares(shares, message)}
        if len(valid) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} valid shares, got {len(valid)}")
        selected = sorted(valid.values(), key=lambda s: s.signer)[
            : self.threshold]
        points = [s.signer + 1 for s in selected]
        try:
            coefficients = shamir.subset_coefficients_at_zero(
                points, self.total)
        except shamir.ShamirError as exc:
            raise ThresholdError(str(exc)) from exc
        combined = sum(c * s.value for c, s in zip(coefficients, selected)
                       ) % shamir.PRIME
        return ThresholdSignature(combined)

    def verify(self, signature: ThresholdSignature, message: bytes) -> bool:
        """``TVrf(tpk, σ̂, m)``: validate a combined signature."""
        expected = (_message_element(message)
                    * self.public_key.master_secret) % shamir.PRIME
        return signature.value == expected


@dataclass
class Signer:
    """One replica's signing handle (its ``tsk_i`` plus the group scheme)."""

    replica_id: int
    secret: int
    scheme: ThresholdScheme

    def sign(self, message: bytes) -> SignatureShare:
        """Produce this replica's signature share on ``message``."""
        return self.scheme.sign_share(self.replica_id, self.secret, message)


def generate(threshold: int, total: int, seed: int | None = None
             ) -> tuple[ThresholdScheme, list[Signer]]:
    """Deal a (threshold, total) scheme; returns the scheme and all signers.

    Args:
        threshold: shares required to combine (2f+1 for Leopard).
        total: number of replicas (n).
        seed: optional determinism seed for reproducible experiments.
    """
    rng = random.Random(seed)
    master_secret = rng.randrange(1, shamir.PRIME)
    shares = shamir.split(master_secret, threshold, total, rng)
    public = PublicKey(
        threshold=threshold,
        total=total,
        master_secret=master_secret,
        share_secrets=tuple(s.y for s in shares),
    )
    scheme = ThresholdScheme(public)
    signers = [Signer(i, shares[i].y, scheme) for i in range(total)]
    return scheme, signers

"""Shamir secret sharing over a 256-bit prime field.

This is the combinatorial engine behind the threshold signature scheme in
:mod:`repro.crypto.threshold`.  A dealer samples a degree ``t-1`` polynomial
``p`` with ``p(0) = secret`` and hands replica ``i`` the share ``p(i)``; any
``t`` shares reconstruct ``p(0)`` by Lagrange interpolation, and ``t-1``
shares reveal nothing (information-theoretically).

The field is the integers modulo the secp256k1 group order, a convenient
well-known 256-bit prime.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

#: A 256-bit prime (the secp256k1 group order).
PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


class ShamirError(ValueError):
    """Raised on invalid sharing parameters or share sets."""


@dataclass(frozen=True)
class Share:
    """One point ``(x, y)`` on the dealer's polynomial; ``x`` is 1-based."""

    x: int
    y: int


def _eval_poly(coefficients: list[int], x: int) -> int:
    """Horner evaluation of the polynomial at ``x`` modulo :data:`PRIME`."""
    acc = 0
    for coeff in reversed(coefficients):
        acc = (acc * x + coeff) % PRIME
    return acc


def split(secret: int, threshold: int, shares: int,
          rng: random.Random | None = None) -> list[Share]:
    """Split ``secret`` into ``shares`` shares with reconstruction threshold.

    Args:
        secret: the value to share, in ``[0, PRIME)``.
        threshold: minimum number of shares needed to reconstruct (t).
        shares: total number of shares to produce (n).
        rng: randomness source; defaults to a fresh ``random.Random()``.

    Raises:
        ShamirError: if parameters are out of range.
    """
    if not 0 <= secret < PRIME:
        raise ShamirError("secret out of field range")
    if threshold < 1:
        raise ShamirError("threshold must be >= 1")
    if shares < threshold:
        raise ShamirError("cannot issue fewer shares than the threshold")
    rng = rng or random.Random()
    coefficients = [secret] + [rng.randrange(PRIME)
                               for _ in range(threshold - 1)]
    return [Share(x, _eval_poly(coefficients, x))
            for x in range(1, shares + 1)]


def lagrange_coefficients_at_zero(xs: list[int]) -> list[int]:
    """Lagrange basis coefficients ``l_i(0)`` for interpolation points ``xs``.

    The direct formula: O(t²) products and one modular inversion per
    point.  Threshold combines use :func:`subset_coefficients_at_zero`;
    the tests hold the two equal.

    Raises:
        ShamirError: if points are not distinct or include zero.
    """
    if len(set(xs)) != len(xs):
        raise ShamirError("interpolation points must be distinct")
    if any(x == 0 for x in xs):
        raise ShamirError("x = 0 is reserved for the secret")
    coefficients = []
    for i, x_i in enumerate(xs):
        numerator, denominator = 1, 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            numerator = (numerator * (-x_j)) % PRIME
            denominator = (denominator * (x_i - x_j)) % PRIME
        coefficients.append(
            (numerator * pow(denominator, -1, PRIME)) % PRIME)
    return coefficients


@functools.lru_cache(maxsize=8)
def _universe_weights(n: int) -> tuple[int, ...]:
    """``c[x] = w_x / (-x)`` for every point ``x`` of ``{1..n}``, where
    ``w_x = 1 / Π_{y≠x} (x - y)`` is its barycentric weight over the whole
    universe (index 0 unused).  ``Π_{y≠x}(x - y)`` is
    ``(x-1)! · (-1)^(n-x) · (n-x)!``."""
    factorial = [1] * (n + 1)
    for k in range(1, n + 1):
        factorial[k] = factorial[k - 1] * k % PRIME
    weights = [0] * (n + 1)
    for x in range(1, n + 1):
        product = factorial[x - 1] * factorial[n - x] * (-1) ** (n - x) * -x
        weights[x] = pow(product % PRIME, -1, PRIME)
    return tuple(weights)


def subset_coefficients_at_zero(xs: list[int], n: int) -> list[int]:
    """:func:`lagrange_coefficients_at_zero` for distinct points drawn
    from ``{1..n}``, with no modular inversion per call.

    With ``S = xs`` and ``U = {1..n}``, the coefficient of ``x`` is
    ``Π_{y∈S}(-y) · c[x] · Π_{y∈U∖S}(x - y)``: the universe weights are
    computed once per ``n``, and each coefficient costs ``n - t`` small
    integer products and three field multiplications.

    Raises:
        ShamirError: if points repeat or fall outside ``{1..n}``.
    """
    chosen = set(xs)
    if len(chosen) != len(xs):
        raise ShamirError("interpolation points must be distinct")
    if not all(0 < x <= n for x in xs):
        raise ShamirError(f"interpolation points must lie in 1..{n}")
    weights = _universe_weights(n)
    others = [y for y in range(1, n + 1) if y not in chosen]
    numerator = math.prod([-x for x in xs]) % PRIME
    return [numerator * weights[x] % PRIME
            * math.prod([x - y for y in others]) % PRIME for x in xs]


def reconstruct(shares: list[Share], threshold: int) -> int:
    """Reconstruct the secret from at least ``threshold`` distinct shares.

    Raises:
        ShamirError: on fewer than ``threshold`` distinct shares.
    """
    unique: dict[int, Share] = {}
    for share in shares:
        unique.setdefault(share.x, share)
    if len(unique) < threshold:
        raise ShamirError(
            f"need {threshold} distinct shares, got {len(unique)}")
    selected = sorted(unique.values(), key=lambda s: s.x)[:threshold]
    coefficients = lagrange_coefficients_at_zero([s.x for s in selected])
    return sum(c * s.y for c, s in zip(coefficients, selected)) % PRIME

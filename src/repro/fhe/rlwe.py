"""A full RLWE (ring-LWE) homomorphic pipeline over the accelerator field.

The paper positions the multiplier as a substrate for "solutions based
on Lattice problems and Learning with Errors" besides integer FHE
(Section III, citing Brakerski–Vaikuntanathan [2], [3]).  This module
realizes that claim end to end: a symmetric BV-style scheme over
``R_q = Z_q[x]/(x^n + 1)`` in which every polynomial product is a
negacyclic convolution on exactly the NTT machinery the accelerator
implements.

Two modulus representations share one API:

- **single-modulus** (``rns_primes=None``): ``q = p = 2^64 − 2^32 + 1``,
  ciphertext components are flat ``(n,)`` residue vectors and ring
  products run directly in ``GF(p)``;
- **RNS/CRT** (``rns_primes=(q_1, ..., q_k)``): ``q = Π q_i`` and a
  ciphertext component is a ``(k, n)`` matrix of residue channels —
  each channel is *just another batched negacyclic ring over the same
  engine* (residues stack on the existing batch axis).  Channel
  products are computed exactly: the mod-``p`` convolution of
  ``[0, q_i)`` residues is lifted to its centered integer (the
  parameter validation guarantees ``n·(q_i − 1)² ≤ (p − 1)/2``) and
  reduced back mod ``q_i``.

Plaintexts use the BV **LSB encoding**: ``c0 + c1·s = m + t·e (mod q)``
with ``m ∈ Z_t[x]/(x^n + 1)``.  Decryption lifts the phase to its
centered representative and reduces mod ``t``; homomorphic operations
are then *pure ring arithmetic* — no rational rounding — which is what
lets ciphertext-by-ciphertext multiplication run on the integer NTT
datapath.

Supported operations: ``keygen``/``encrypt``/``decrypt`` (and batched
``*_many`` forms), homomorphic addition, plaintext products,
ciphertext-by-ciphertext products via :meth:`RLWE.tensor` +
:meth:`RLWE.relinearize` (base-decomposition key switching in
single-modulus mode, per-channel RNS decomposition otherwise), BGV
modulus switching (:meth:`RLWE.mod_switch`) for noise management, and
a ``noise_budget`` query.  Every :class:`RLWE` instance is bound to an
:class:`repro.engine.Engine` (its own software engine on the shared
plan cache when none is given) and routes every ring product through
that engine's :meth:`~repro.engine.Ring.convolve` and compute backend
on the fused decimated plan pair, so the same pipeline runs sharded on
``software-mp`` and cycle-counted on ``hw-model`` — bit-identically.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.field.solinas import P
from repro.field.vector import (
    to_field_array,
    to_field_matrix,
    vadd,
    vmul,
    vmul_scalar,
    vsub,
)

_HALF = np.uint64(P >> 1)
_EPSILON = np.uint64(0xFFFFFFFF)  # 2**64 - P


def _centered_lift(rows: np.ndarray) -> np.ndarray:
    """Centered signed representatives of canonical mod-``p`` values.

    ``v ≤ (p−1)/2`` maps to ``v``; larger residues map to ``v − p``.
    Both branches fit ``int64`` (``p/2 < 2^63``), and the negative
    branch exploits unsigned wrap-around: ``v + (2^64 − p)`` overflows
    to the two's-complement pattern of ``v − p``.
    """
    return np.where(rows > _HALF, rows + _EPSILON, rows).view(np.int64)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_rns_primes(n: int, t: int, count: int = 3) -> Tuple[int, ...]:
    """The ``count`` largest residue-channel primes for ``(n, t)``.

    Each prime satisfies the three structural requirements of the RNS
    representation: ``q_i ≡ 1 (mod t)`` (so BGV modulus switching
    preserves the plaintext), ``q_i > t``, and
    ``n·(q_i − 1)² ≤ (p − 1)/2`` (so per-channel negacyclic products
    lift exactly from one mod-``p`` convolution).
    """
    if count < 1:
        raise ValueError("count must be positive")
    ceiling = math.isqrt((P - 1) // (2 * n)) + 1
    # Largest candidate ≡ 1 (mod t) at or below the exactness ceiling.
    q = ceiling - (ceiling - 1) % t
    primes: List[int] = []
    while len(primes) < count and q > t:
        if n * (q - 1) * (q - 1) <= (P - 1) // 2 and _is_prime(q):
            primes.append(q)
        q -= t
    if len(primes) < count:
        raise ValueError(
            f"could not find {count} channel primes for n={n}, t={t}"
        )
    return tuple(primes)


@dataclass(frozen=True)
class RLWEParams:
    """Ring dimension, plaintext modulus, noise width and modulus chain.

    ``rns_primes=None`` selects the single-modulus scheme over
    ``q = p``; a tuple of primes selects the RNS/CRT representation
    with ``q = Π q_i`` (the *modulus chain* — ``mod_switch`` drops
    primes from the end).  ``relin_base`` is the log2 digit width of
    the base-decomposition relinearization keys in single-modulus
    mode (RNS mode decomposes per channel instead).

    Frozen, hashable and pickle-stable like
    :class:`repro.engine.config.ExecutionConfig`, so ``software-mp``
    workers and ``repro.serve`` coalesce keys can carry it.
    """

    n: int = 1024
    t: int = 256
    noise_bound: int = 8
    rns_primes: Optional[Tuple[int, ...]] = None
    relin_base: int = 16

    def __post_init__(self) -> None:
        if self.rns_primes is not None and not isinstance(
            self.rns_primes, tuple
        ):
            object.__setattr__(
                self, "rns_primes", tuple(int(q) for q in self.rns_primes)
            )

    def validate(self) -> None:
        if self.n & (self.n - 1):
            raise ValueError("ring dimension must be a power of two")
        if not 2 <= self.t < 1 << 32:
            raise ValueError("plaintext modulus out of range")
        if self.noise_bound < 1:
            raise ValueError("noise bound must be positive")
        if not 1 <= self.relin_base <= 32:
            raise ValueError("relin_base must be in [1, 32] bits")
        if self.rns_primes is None:
            return
        primes = self.rns_primes
        if len(primes) < 1:
            raise ValueError("rns_primes must name at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("rns_primes must be distinct")
        for q in primes:
            if q <= self.t:
                raise ValueError(
                    f"channel prime {q} must exceed the plaintext "
                    f"modulus {self.t}"
                )
            if q % self.t != 1:
                raise ValueError(
                    f"channel prime {q} must be ≡ 1 (mod t={self.t}) "
                    "for modulus switching to preserve the plaintext"
                )
            if self.n * (q - 1) * (q - 1) > (P - 1) // 2:
                raise ValueError(
                    f"channel prime {q} too large: n·(q−1)² must not "
                    "exceed (p−1)/2 for exact channel products"
                )
            if not _is_prime(q):
                raise ValueError(f"rns_primes entry {q} is not prime")

    @property
    def delta(self) -> int:
        """Legacy MSB scaling factor ``Δ = floor(p / t)`` (kept for
        API compatibility; the LSB encoding does not use it)."""
        return P // self.t

    @property
    def is_rns(self) -> bool:
        return self.rns_primes is not None

    @property
    def level_count(self) -> int:
        """Length of the modulus chain (1 in single-modulus mode)."""
        return len(self.rns_primes) if self.rns_primes else 1

    def modulus(self, level: Optional[int] = None) -> int:
        """The ciphertext modulus ``q`` at ``level`` active primes."""
        if self.rns_primes is None:
            return P
        if level is None:
            level = len(self.rns_primes)
        if not 1 <= level <= len(self.rns_primes):
            raise ValueError(f"level must be in [1, {len(self.rns_primes)}]")
        q = 1
        for prime in self.rns_primes[:level]:
            q *= prime
        return q


@dataclass
class RLWECiphertext:
    """``(c0, c1[, c2])`` with ``c0 + c1·s + c2·s² = m + t·e (mod q)``.

    Components are ``(n,)`` vectors in single-modulus mode and
    ``(level, n)`` residue-channel matrices in RNS mode.  ``c2`` is
    only present on the degree-2 output of :meth:`RLWE.tensor`, before
    relinearization folds it back into ``(c0, c1)``.
    """

    c0: np.ndarray
    c1: np.ndarray
    params: RLWEParams
    c2: Optional[np.ndarray] = None
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level is None:
            self.level = self.params.level_count

    @property
    def degree(self) -> int:
        """Polynomial degree in ``s`` plus one (2, or 3 pre-relin)."""
        return 2 if self.c2 is None else 3


class RelinKeys:
    """Relinearization (key-switching) key material, secret-free.

    ``levels`` maps a modulus-chain level to its digit keys: a tuple of
    ``(k0, k1)`` pairs, one per decomposition digit, each component an
    RNS element at that level (or a flat mod-``p`` vector in
    single-modulus mode, under level 1).  Safe to ship to an untrusted
    evaluator — :meth:`RLWE.multiply` needs only this, never the
    secret.
    """

    def __init__(
        self,
        params: RLWEParams,
        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]],
    ):
        self.params = params
        self.levels = levels
        self._digest: Optional[str] = None

    def for_level(self, level: int):
        try:
            return self.levels[level]
        except KeyError:
            raise ValueError(
                f"no relinearization key for level {level} — in RNS mode "
                "multiply before the final modulus switch (level 1 has "
                "no headroom for key-switching noise)"
            ) from None

    def digest(self) -> str:
        """A stable content hash (used in service coalesce keys)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr(self.params).encode())
            for level in sorted(self.levels):
                h.update(level.to_bytes(4, "little"))
                for k0, k1 in self.levels[level]:
                    h.update(np.ascontiguousarray(k0).tobytes())
                    h.update(np.ascontiguousarray(k1).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # -- wire format -------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-encodable form (see :class:`repro.serve` ``rlwe-multiply``)."""

        def encode(component: np.ndarray):
            if component.ndim == 1:
                return [int(v) for v in component]
            return [[int(v) for v in row] for row in component]

        return {
            "levels": {
                str(level): [
                    [encode(k0), encode(k1)] for k0, k1 in keys
                ]
                for level, keys in self.levels.items()
            }
        }

    @classmethod
    def from_payload(cls, params: RLWEParams, raw: dict) -> "RelinKeys":
        raw_levels = raw.get("levels")
        if not isinstance(raw_levels, dict) or not raw_levels:
            raise ValueError("relin payload must carry a levels object")

        def decode(component, level: int) -> np.ndarray:
            if params.is_rns:
                matrix = to_field_matrix(component)
                if matrix.shape != (level, params.n):
                    raise ValueError(
                        f"relin component must be ({level}, {params.n})"
                    )
                return matrix
            vector = to_field_array(component)
            if vector.shape != (params.n,):
                raise ValueError(
                    f"relin component must have {params.n} coefficients"
                )
            return vector

        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]] = {}
        for key, raw_keys in raw_levels.items():
            level = int(key)
            levels[level] = tuple(
                (decode(k0, level), decode(k1, level))
                for k0, k1 in raw_keys
            )
        return cls(params=params, levels=levels)


@dataclass(eq=False)
class RLWEKeyPair:
    """Secret key plus the evaluator-facing relinearization keys."""

    secret: np.ndarray  # signed ternary (n,) int64
    params: RLWEParams
    relin: RelinKeys

    @property
    def secret_field(self) -> np.ndarray:
        """The secret as a canonical mod-``p`` field vector (the shape
        legacy single-modulus call sites pass around)."""
        return to_field_matrix(self.secret.reshape(1, -1))[0]


class RLWE:
    """Symmetric RLWE encryption with NTT-backed ring products.

    The preferred constructor is :meth:`repro.engine.Engine.fhe`, which
    binds the scheme to that engine's fused, permutation-free negacyclic
    plan *and* to its compute backend — ring products then shard on
    ``software-mp`` and are cycle-counted on ``hw-model``.  An instance
    built without an engine binds a software engine on the
    process-global plan cache; every ring product runs the same route.
    """

    def __init__(
        self,
        params: RLWEParams = RLWEParams(),
        rng: Optional[random.Random] = None,
        engine: Optional[Any] = None,
    ):
        """``engine`` (optional) runs every ring product and transform;
        ``None`` binds ``Engine(config=ExecutionConfig(cache="shared"))``."""
        from repro.engine import Engine, ExecutionConfig
        from repro.engine.config import CACHE_SHARED
        from repro.ntt.plan import ORDER_DECIMATED, TWIST_NEGACYCLIC

        params.validate()
        if engine is None:
            engine = Engine(config=ExecutionConfig(cache=CACHE_SHARED))
        self.params = params
        self.rng = rng or random.Random()
        self.engine = engine
        #: The fused decimated pair every ring product executes.
        self.plan = engine.plan(
            params.n, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
        )
        if params.is_rns:
            self._primes = np.array(params.rns_primes, dtype=np.int64)
        else:
            self._primes = None

    # -- transform plumbing ------------------------------------------------

    def _transform_rows(
        self, rows: np.ndarray, inverse: bool = False
    ) -> np.ndarray:
        """One batched (inverse) negacyclic transform on the engine's
        backend (sharded on ``software-mp``, cycle-counted on
        ``hw-model``)."""
        return self.engine._transform(self.plan, rows, inverse=inverse)

    def _conv_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic products mod ``p``: row-wise for equal ``(R, n)``
        batches, broadcast when one side is a single polynomial."""
        return self.engine.ring(self.params.n).convolve(
            a, b, negacyclic=True
        )

    # -- RNS channel arithmetic --------------------------------------------

    def _prime_column(self, level: int, repeat: int = 1) -> np.ndarray:
        """``(repeat·level, 1)`` column of channel primes, cycled."""
        return np.tile(self._primes[:level], repeat).reshape(-1, 1)

    def _channel_reduce(
        self, product_rows: np.ndarray, prime_column: np.ndarray
    ) -> np.ndarray:
        """Exact lift-and-reduce of mod-``p`` channel products.

        ``product_rows`` holds negacyclic products of residues in
        ``[0, q_i)``; the validated bound ``n·(q_i − 1)² ≤ (p − 1)/2``
        makes the centered lift the true integer convolution, which
        then reduces mod the row's channel prime.
        """
        return (
            _centered_lift(product_rows) % prime_column
        ).astype(np.uint64)

    def _channel_conv(
        self, a: np.ndarray, b: np.ndarray, prime_column: np.ndarray
    ) -> np.ndarray:
        """Row-wise exact residue-channel negacyclic products."""
        return self._channel_reduce(self._conv_rows(a, b), prime_column)

    def _secret_rows(self, secret: np.ndarray, level: int) -> np.ndarray:
        """``(level, n)`` channel residues of a signed secret."""
        return (
            secret.astype(np.int64) % self._primes[:level, np.newaxis]
        ).astype(np.uint64)

    @staticmethod
    def _as_signed_secret(key) -> np.ndarray:
        """Accept an :class:`RLWEKeyPair` or a legacy secret vector."""
        if isinstance(key, RLWEKeyPair):
            return key.secret
        rows = np.ascontiguousarray(key, dtype=np.uint64).reshape(1, -1)
        return _centered_lift(rows)[0]

    def _secret_for(self, key) -> np.ndarray:
        """The secret in this scheme's native component shape."""
        if self.params.is_rns:
            return self._secret_rows(
                self._as_signed_secret(key), self.params.level_count
            )
        if isinstance(key, RLWEKeyPair):
            return key.secret_field
        return np.ascontiguousarray(key, dtype=np.uint64)

    # -- key and noise sampling -----------------------------------------

    def generate_secret(self) -> np.ndarray:
        """Ternary secret polynomial with coefficients in {-1, 0, 1},
        as a canonical mod-``p`` field vector (legacy single-modulus
        shape; prefer :meth:`keygen`, which also builds the
        relinearization keys)."""
        return to_field_array(
            [self.rng.choice((-1, 0, 1)) for _ in range(self.params.n)]
        )

    def _ternary(self) -> np.ndarray:
        return np.array(
            [self.rng.choice((-1, 0, 1)) for _ in range(self.params.n)],
            dtype=np.int64,
        )

    def _noise_signed(self, count: int = 1) -> np.ndarray:
        bound = self.params.noise_bound
        return np.array(
            [
                [
                    self.rng.randint(-bound, bound)
                    for _ in range(self.params.n)
                ]
                for _ in range(count)
            ],
            dtype=np.int64,
        )

    def _uniform_field(self, count: int = 1) -> np.ndarray:
        return to_field_matrix(
            [
                [self.rng.randrange(P) for _ in range(self.params.n)]
                for _ in range(count)
            ]
        )

    def _uniform_channels(self, level: int, count: int = 1) -> np.ndarray:
        """``(count·level, n)`` uniform residue rows (a uniform element
        of ``Z_q`` *is* independent uniform residues per channel)."""
        rows = []
        for _ in range(count):
            for prime in self.params.rns_primes[:level]:
                rows.append(
                    [self.rng.randrange(prime) for _ in range(self.params.n)]
                )
        return np.array(rows, dtype=np.uint64)

    def keygen(self) -> RLWEKeyPair:
        """Draw a ternary secret and all relinearization keys.

        Single-modulus mode builds the base-``2^relin_base`` digit
        keys ``rlk_j = (−(a_j·s) + t·e_j + T^j·s², a_j)``.  RNS mode
        builds one key pair per residue channel and per modulus-chain
        level ≥ 2: ``rlk_i = (−(a_i·s) + t·e_i + q̂_i·s², a_i)`` with
        ``q̂_i = q/q_i`` (keys are per level because ``q`` shrinks at
        every :meth:`mod_switch`).
        """
        params = self.params
        secret = self._ternary()
        if not params.is_rns:
            s_field = to_field_matrix(secret.reshape(1, -1))[0]
            s_sq = self._conv_rows(
                s_field.reshape(1, -1), s_field.reshape(1, -1)
            )[0]
            digits = -(-64 // params.relin_base)  # ceil(64 / base)
            a_rows = self._uniform_field(digits)
            noises = self._noise_signed(digits)
            a_s = self._conv_rows(a_rows, s_field)
            keys = []
            for j in range(digits):
                body = vadd(
                    to_field_array(
                        [params.t * int(e) for e in noises[j]]
                    ),
                    vmul_scalar(s_sq, 1 << (j * params.relin_base)),
                )
                keys.append((vsub(body, a_s[j]), a_rows[j]))
            relin = RelinKeys(params, {1: tuple(keys)})
            return RLWEKeyPair(secret=secret, params=params, relin=relin)

        # RNS: s² as the exact (small) signed integer polynomial, then
        # per-level key material.
        s_rows_full = self._secret_rows(secret, params.level_count)
        s_field = to_field_matrix(secret.reshape(1, -1))
        s_sq_int = _centered_lift(self._conv_rows(s_field, s_field))[0]
        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]] = {}
        for level in range(2, params.level_count + 1):
            primes = params.rns_primes[:level]
            q = self.params.modulus(level)
            s_rows = s_rows_full[:level]
            prime_col = self._prime_column(level, repeat=level)
            a_rows = self._uniform_channels(level, count=level)
            a_s = self._channel_conv(
                a_rows, np.tile(s_rows, (level, 1)), prime_col
            )
            keys = []
            for i in range(level):
                qhat = q // primes[i]
                noise = self._noise_signed(1)[0]
                k0 = np.empty((level, params.n), dtype=np.uint64)
                for j, prime in enumerate(primes):
                    body = (
                        params.t * noise
                        + (qhat % prime) * s_sq_int
                        - a_s[i * level + j].astype(np.int64)
                    )
                    k0[j] = (body % prime).astype(np.uint64)
                keys.append((k0, a_rows[i * level : (i + 1) * level]))
            levels[level] = tuple(keys)
        relin = RelinKeys(params, levels)
        return RLWEKeyPair(secret=secret, params=params, relin=relin)

    # -- encryption --------------------------------------------------------

    def _check_messages(
        self, messages: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        params = self.params
        checked = [list(message) for message in messages]
        for message in checked:
            if len(message) != params.n:
                raise ValueError(
                    f"message must have {params.n} coefficients"
                )
            if any(not 0 <= m < params.t for m in message):
                raise ValueError("message coefficients must lie in [0, t)")
        return checked

    def encrypt(self, key, message: Sequence[int]) -> RLWECiphertext:
        """Encrypt a length-n message polynomial over ``Z_t``.

        ``c0 = -(a·s) + m + t·e``, ``c1 = a`` (LSB encoding).  ``key``
        is an :class:`RLWEKeyPair` or a legacy mod-``p`` secret vector.
        """
        return self.encrypt_many(key, [message])[0]

    def decrypt(self, key, ct: RLWECiphertext) -> List[int]:
        """Recover the message: centered phase lift, reduced mod ``t``."""
        return self.decrypt_many(key, [ct])[0]

    def encrypt_many(
        self, key, messages: Sequence[Sequence[int]]
    ) -> List[RLWECiphertext]:
        """Encrypt a batch of message polynomials in one NTT pass.

        Semantically a loop of :meth:`encrypt` (fresh randomness per
        ciphertext), but all ``a·s`` ring products run through a single
        batched negacyclic convolution pass (RNS channels ride the
        same batch axis).
        """
        params = self.params
        messages = self._check_messages(messages)
        if not messages:
            return []
        batch = len(messages)
        noise = self._noise_signed(batch)
        payload = np.array(messages, dtype=np.int64) + params.t * noise

        if not params.is_rns:
            secret = self._secret_for(key)
            a = self._uniform_field(batch)
            a_s = self._conv_rows(a, secret)
            c0 = vsub(to_field_matrix(payload), a_s)
            return [
                RLWECiphertext(c0=c0[i], c1=a[i], params=params)
                for i in range(batch)
            ]

        level = params.level_count
        s_rows = self._secret_for(key)
        a = self._uniform_channels(level, count=batch)
        prime_col = self._prime_column(level, repeat=batch)
        a_s = self._channel_conv(a, np.tile(s_rows, (batch, 1)), prime_col)
        payload_rows = np.repeat(payload, level, axis=0)
        c0 = (
            (payload_rows - a_s.astype(np.int64)) % prime_col
        ).astype(np.uint64)
        return [
            RLWECiphertext(
                c0=c0[i * level : (i + 1) * level],
                c1=a[i * level : (i + 1) * level],
                params=params,
            )
            for i in range(batch)
        ]

    def _check_ciphertexts(
        self, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        cts = list(cts)
        for ct in cts:
            if ct.params != self.params:
                raise ValueError("parameter mismatch")
            if ct.level != cts[0].level:
                raise ValueError("ciphertexts at different levels")
        return cts

    def _phase_rows(self, key, cts: Sequence[RLWECiphertext]) -> np.ndarray:
        """Stacked phases ``c0 + c1·s (+ c2·s²)`` for a batch."""
        params = self.params
        batch = len(cts)
        level = cts[0].level
        degree2 = any(ct.c2 is not None for ct in cts)
        if not params.is_rns:
            secret = self._secret_for(key)
            c1 = np.vstack([ct.c1 for ct in cts])
            phase = vadd(
                np.vstack([ct.c0 for ct in cts]),
                self._conv_rows(c1, secret),
            )
            if degree2:
                s_sq = self._conv_rows(
                    secret.reshape(1, -1), secret.reshape(1, -1)
                )[0]
                c2 = np.vstack(
                    [
                        ct.c2
                        if ct.c2 is not None
                        else np.zeros(params.n, dtype=np.uint64)
                        for ct in cts
                    ]
                )
                phase = vadd(phase, self._conv_rows(c2, s_sq))
            return phase

        signed = self._as_signed_secret(key)
        s_rows = self._secret_rows(signed, level)
        prime_col = self._prime_column(level, repeat=batch)
        c1 = np.vstack([ct.c1 for ct in cts])
        phase = (
            np.vstack([ct.c0 for ct in cts])
            + self._channel_conv(c1, np.tile(s_rows, (batch, 1)), prime_col)
        ) % prime_col.astype(np.uint64)
        if degree2:
            s_field = to_field_matrix(signed.reshape(1, -1))
            s_sq_int = _centered_lift(self._conv_rows(s_field, s_field))[0]
            s_sq_rows = (
                s_sq_int % self._primes[:level, np.newaxis]
            ).astype(np.uint64)
            c2 = np.vstack(
                [
                    ct.c2
                    if ct.c2 is not None
                    else np.zeros((level, params.n), dtype=np.uint64)
                    for ct in cts
                ]
            )
            term = self._channel_conv(
                c2, np.tile(s_sq_rows, (batch, 1)), prime_col
            )
            phase = (phase + term) % prime_col.astype(np.uint64)
        return phase

    def _crt_lift(self, rows: np.ndarray, level: int) -> List[List[int]]:
        """CRT-recombine ``(batch·level, n)`` channels to integers mod
        ``q`` (one Python-int row per ciphertext)."""
        params = self.params
        primes = params.rns_primes[:level]
        q = params.modulus(level)
        coefs = []
        for i, prime in enumerate(primes):
            qhat = q // prime
            coefs.append(qhat * pow(qhat % prime, -1, prime) % q)
        batch = rows.shape[0] // level
        out = []
        for b in range(batch):
            chunk = rows[b * level : (b + 1) * level]
            row = []
            for j in range(params.n):
                x = 0
                for i in range(level):
                    x += int(chunk[i, j]) * coefs[i]
                row.append(x % q)
            out.append(row)
        return out

    def decrypt_many(
        self, key, cts: Sequence[RLWECiphertext]
    ) -> List[List[int]]:
        """Decrypt a batch of ciphertexts in one NTT pass.

        Degree-2 ciphertexts (fresh :meth:`tensor` outputs) decrypt
        directly via the ``c2·s²`` term — relinearization is a
        performance transform, not a decryption requirement.
        """
        params = self.params
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        phase = self._phase_rows(key, cts)
        if not params.is_rns:
            return [
                [
                    (
                        int(v) - P if int(v) > P >> 1 else int(v)
                    ) % params.t
                    for v in row
                ]
                for row in phase
            ]
        level = cts[0].level
        q = params.modulus(level)
        lifted = self._crt_lift(phase, level)
        return [
            [(x - q if x > q >> 1 else x) % params.t for x in row]
            for row in lifted
        ]

    # -- homomorphic operations ---------------------------------------------

    def add(self, x: RLWECiphertext, y: RLWECiphertext) -> RLWECiphertext:
        """Homomorphic addition of message polynomials (mod t)."""
        if x.params != y.params:
            raise ValueError("parameter mismatch")
        if x.level != y.level or x.degree != y.degree:
            raise ValueError("ciphertexts at different levels or degrees")
        if not self.params.is_rns:
            return RLWECiphertext(
                c0=vadd(x.c0, y.c0),
                c1=vadd(x.c1, y.c1),
                params=x.params,
                c2=(
                    vadd(x.c2, y.c2) if x.c2 is not None else None
                ),
                level=x.level,
            )
        primes = self._primes[: x.level, np.newaxis].astype(np.uint64)
        return RLWECiphertext(
            c0=(x.c0 + y.c0) % primes,
            c1=(x.c1 + y.c1) % primes,
            params=x.params,
            c2=((x.c2 + y.c2) % primes if x.c2 is not None else None),
            level=x.level,
        )

    def multiply_plain(
        self, ct: RLWECiphertext, plain: Sequence[int]
    ) -> RLWECiphertext:
        """Multiply by an *unscaled* plaintext polynomial over ``Z_t``.

        Noise grows by a factor ~``t·n``; suitable for small constants
        and masks (the typical evaluation in encrypted statistics).
        """
        return self.multiply_plain_many([ct], [plain])[0]

    def multiply_plain_many(
        self,
        cts: Sequence[RLWECiphertext],
        plains: Sequence[Sequence[int]],
    ) -> List[RLWECiphertext]:
        """Batched plaintext-by-ciphertext products, one per pair.

        Every ``c0``, ``c1`` and plaintext polynomial is forward-
        transformed exactly once (each plaintext spectrum reused
        against both ciphertext halves — and across every residue
        channel in RNS mode, since ``Z_t`` coefficients are the same
        residues in every channel); bit-identical to looping
        :meth:`multiply_plain`.
        """
        cts = list(cts)
        plains = [list(plain) for plain in plains]
        if len(cts) != len(plains):
            raise ValueError("one plaintext polynomial per ciphertext")
        for ct, plain in zip(cts, plains):
            if len(plain) != ct.params.n:
                raise ValueError("plaintext length mismatch")
        if not cts:
            return []
        self._check_ciphertexts(cts)
        params = self.params
        batch = len(cts)
        level = cts[0].level if params.is_rns else 1
        rows = batch * level
        spectra = self._transform_rows(
            np.vstack(
                [ct.c0.reshape(level, -1) for ct in cts]
                + [ct.c1.reshape(level, -1) for ct in cts]
                + [to_field_matrix(plains)]
            )
        )
        plain_spectra = np.repeat(spectra[2 * rows :], level, axis=0)
        products = self._transform_rows(
            vmul(
                spectra[: 2 * rows], np.vstack([plain_spectra, plain_spectra])
            ),
            inverse=True,
        )
        if params.is_rns:
            products = self._channel_reduce(
                products, self._prime_column(level, repeat=2 * batch)
            )
        shape = cts[0].c0.shape
        return [
            RLWECiphertext(
                c0=products[lo : lo + level].reshape(shape),
                c1=products[rows + lo : rows + lo + level].reshape(shape),
                params=ct.params,
                level=ct.level,
            )
            for ct, lo in zip(cts, range(0, rows, level))
        ]

    # -- ciphertext-by-ciphertext multiplication -----------------------------

    def tensor(
        self, x: RLWECiphertext, y: RLWECiphertext
    ) -> RLWECiphertext:
        """The degree-2 ciphertext product ``(c0·d0, c0·d1 + c1·d0,
        c1·d1)`` (relinearize to return to two components)."""
        return self.tensor_many([(x, y)])[0]

    def tensor_many(
        self, pairs: Sequence[Tuple[RLWECiphertext, RLWECiphertext]]
    ) -> List[RLWECiphertext]:
        """Batched tensor products: one 4-way spectrum-reuse pass.

        All ``c0/c1/d0/d1`` rows of every pair (times every residue
        channel) are forward-transformed in one batch; the four cross
        products per pair are pointwise spectrum products and one
        batched inverse.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        xs = self._check_ciphertexts([x for x, _ in pairs])
        ys = self._check_ciphertexts([y for _, y in pairs])
        if xs[0].level != ys[0].level:
            raise ValueError("ciphertexts at different levels")
        for ct in (*xs, *ys):
            if ct.c2 is not None:
                raise ValueError(
                    "tensor operands must be degree-1 ciphertexts — "
                    "relinearize first"
                )
        params = self.params
        level = xs[0].level if params.is_rns else 1
        batch = len(pairs)
        rows = batch * level
        stacked = np.vstack(
            [
                np.vstack([x.c0.reshape(level, -1) for x in xs]),
                np.vstack([x.c1.reshape(level, -1) for x in xs]),
                np.vstack([y.c0.reshape(level, -1) for y in ys]),
                np.vstack([y.c1.reshape(level, -1) for y in ys]),
            ]
        )
        spectra = self._transform_rows(stacked)
        c0s, c1s = spectra[:rows], spectra[rows : 2 * rows]
        d0s, d1s = spectra[2 * rows : 3 * rows], spectra[3 * rows :]
        products = self._transform_rows(
            np.vstack(
                [
                    vmul(c0s, d0s),
                    vmul(c0s, d1s),
                    vmul(c1s, d0s),
                    vmul(c1s, d1s),
                ]
            ),
            inverse=True,
        )
        p00 = products[:rows]
        p01 = products[rows : 2 * rows]
        p10 = products[2 * rows : 3 * rows]
        p11 = products[3 * rows :]
        if not params.is_rns:
            e1 = vadd(p01, p10)
            return [
                RLWECiphertext(
                    c0=p00[i], c1=e1[i], params=params, c2=p11[i]
                )
                for i in range(batch)
            ]
        prime_col = self._prime_column(level, repeat=batch)
        primes_u = prime_col.astype(np.uint64)
        e0 = self._channel_reduce(p00, prime_col)
        e1 = (
            self._channel_reduce(p01, prime_col)
            + self._channel_reduce(p10, prime_col)
        ) % primes_u
        e2 = self._channel_reduce(p11, prime_col)
        return [
            RLWECiphertext(
                c0=e0[i * level : (i + 1) * level],
                c1=e1[i * level : (i + 1) * level],
                params=params,
                c2=e2[i * level : (i + 1) * level],
                level=level,
            )
            for i in range(batch)
        ]

    @staticmethod
    def _as_relin(key) -> RelinKeys:
        if isinstance(key, RLWEKeyPair):
            return key.relin
        if isinstance(key, RelinKeys):
            return key
        raise TypeError(
            "expected an RLWEKeyPair or RelinKeys; legacy secret "
            "vectors carry no relinearization keys — use keygen()"
        )

    def relinearize(self, key, ct: RLWECiphertext) -> RLWECiphertext:
        """Fold a degree-2 ciphertext back to ``(c0, c1)`` via key
        switching (base-decomposition digits in single-modulus mode,
        per-channel RNS decomposition otherwise)."""
        return self.relinearize_many(key, [ct])[0]

    def relinearize_many(
        self, key, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        """Batched key switching: all digit products in one pass."""
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        for ct in cts:
            if ct.c2 is None:
                raise ValueError(
                    "ciphertext has no degree-2 component to relinearize"
                )
        relin = self._as_relin(key)
        if relin.params != self.params:
            raise ValueError("relinearization keys for different params")
        params = self.params
        batch = len(cts)

        if not params.is_rns:
            keys = relin.for_level(1)
            digits = len(keys)
            base = params.relin_base
            mask = np.uint64((1 << base) - 1)
            c2 = np.vstack([ct.c2 for ct in cts])
            digit_rows = np.vstack(
                [
                    (c2 >> np.uint64(j * base)) & mask
                    for j in range(digits)
                ]
            )
            key_rows = np.vstack(
                [
                    np.vstack(
                        [np.broadcast_to(k0, (batch, params.n)) for k0, _ in keys]
                    ),
                    np.vstack(
                        [np.broadcast_to(k1, (batch, params.n)) for _, k1 in keys]
                    ),
                ]
            )
            products = self._conv_rows(
                np.vstack([digit_rows, digit_rows]), key_rows
            )
            half = digits * batch
            sum0 = products[:half].reshape(digits, batch, params.n)
            sum1 = products[half:].reshape(digits, batch, params.n)
            acc0 = sum0[0].copy()
            acc1 = sum1[0].copy()
            for j in range(1, digits):
                acc0 = vadd(acc0, sum0[j])
                acc1 = vadd(acc1, sum1[j])
            return [
                RLWECiphertext(
                    c0=vadd(cts[i].c0, acc0[i]),
                    c1=vadd(cts[i].c1, acc1[i]),
                    params=params,
                )
                for i in range(batch)
            ]

        level = cts[0].level
        keys = relin.for_level(level)
        primes = params.rns_primes[:level]
        q = params.modulus(level)
        # Per-channel digits d_i = [c2_i · (q/q_i)^{-1}]_{q_i}: small
        # single-channel polynomials whose weighted sum recombines c2.
        inv_qhat = np.array(
            [
                pow((q // prime) % prime, -1, prime)
                for prime in primes
            ],
            dtype=np.uint64,
        )
        digit_rows = []  # (batch·level², n): pair b, digit i, channel j
        key0_rows = []
        key1_rows = []
        prime_rows = []
        for b, ct in enumerate(cts):
            digits = []
            for i, prime in enumerate(primes):
                d = (
                    ct.c2[i].astype(np.int64)
                    * np.int64(inv_qhat[i])
                    % np.int64(prime)
                ).astype(np.uint64)
                digits.append(d)
            for i in range(level):
                k0, k1 = keys[i]
                for j, prime in enumerate(primes):
                    digit_rows.append(digits[i] % np.uint64(prime))
                    key0_rows.append(k0[j])
                    key1_rows.append(k1[j])
                    prime_rows.append(prime)
        half = len(digit_rows)
        prime_col = np.array(prime_rows * 2, dtype=np.int64).reshape(-1, 1)
        products = self._channel_conv(
            np.vstack([digit_rows, digit_rows]),
            np.vstack([key0_rows, key1_rows]),
            prime_col,
        )
        primes_u = self._prime_column(level, repeat=batch).astype(
            np.uint64
        )
        shaped0 = products[:half].reshape(batch, level, level, params.n)
        shaped1 = products[half:].reshape(batch, level, level, params.n)
        out = []
        for b, ct in enumerate(cts):
            acc0 = ct.c0.copy()
            acc1 = ct.c1.copy()
            chunk = primes_u[b * level : (b + 1) * level]
            for i in range(level):
                acc0 = (acc0 + shaped0[b, i]) % chunk
                acc1 = (acc1 + shaped1[b, i]) % chunk
            out.append(
                RLWECiphertext(
                    c0=acc0, c1=acc1, params=params, level=level
                )
            )
        return out

    def multiply(self, key, x: RLWECiphertext, y: RLWECiphertext) -> RLWECiphertext:
        """Ciphertext-by-ciphertext product: tensor + relinearize.

        ``key`` is an :class:`RLWEKeyPair` or bare :class:`RelinKeys`
        (the evaluator never needs the secret).
        """
        return self.multiply_many(key, [(x, y)])[0]

    def multiply_many(
        self,
        key,
        pairs: Sequence[Tuple[RLWECiphertext, RLWECiphertext]],
    ) -> List[RLWECiphertext]:
        """Batched ciphertext products: one tensor pass + one
        relinearization pass over the whole batch (every ring product
        rides the engine's batch axis)."""
        pairs = list(pairs)
        if not pairs:
            return []
        return self.relinearize_many(key, self.tensor_many(pairs))

    # -- modulus switching ---------------------------------------------------

    def mod_switch(self, ct: RLWECiphertext) -> RLWECiphertext:
        """Drop the last active RNS prime (BGV modulus switching).

        Produces a ciphertext at level ``k − 1`` whose noise is scaled
        down by ``~q_k``: each component becomes ``(c − δ)/q_k`` with
        ``δ ≡ c (mod q_k)``, ``δ ≡ 0 (mod t)`` and ``|δ| ≤ t·q_k/2``
        — exact division, plaintext preserved because every chain
        prime is ≡ 1 (mod t).
        """
        return self.mod_switch_many([ct])[0]

    def mod_switch_many(
        self, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        """Batched :meth:`mod_switch` (vectorized, no ring products)."""
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        params = self.params
        if not params.is_rns:
            raise ValueError(
                "modulus switching requires RNS parameters (rns_primes)"
            )
        level = cts[0].level
        if level < 2:
            raise ValueError("already at the last level of the chain")
        q_last = params.rns_primes[level - 1]
        t_inv = pow(params.t % q_last, -1, q_last)
        new_level = level - 1
        primes = self._primes[:new_level].reshape(-1, 1)
        q_last_inv = np.array(
            [pow(q_last % int(p), -1, int(p)) for p in primes[:, 0]],
            dtype=np.int64,
        ).reshape(-1, 1)

        def switch(component: np.ndarray) -> np.ndarray:
            last = component[level - 1].astype(np.int64)
            eps = last * np.int64(t_inv) % np.int64(q_last)
            eps = np.where(eps > q_last // 2, eps - q_last, eps)
            delta = np.int64(params.t) * eps  # |δ| ≤ t·q_last/2
            head = component[:new_level].astype(np.int64)
            return (
                (head - delta[np.newaxis, :]) % primes * q_last_inv % primes
            ).astype(np.uint64)

        return [
            RLWECiphertext(
                c0=switch(ct.c0),
                c1=switch(ct.c1),
                params=params,
                c2=(switch(ct.c2) if ct.c2 is not None else None),
                level=new_level,
            )
            for ct in cts
        ]

    # -- diagnostics ---------------------------------------------------------

    def noise_budget(self, key, ct: RLWECiphertext) -> float:
        """Remaining noise headroom in bits: ``log2((q/2) / |v|_∞)``
        where ``v`` is the centered phase ``m + t·e``.  Decryption is
        reliable while the budget is positive; it shrinks with every
        homomorphic operation and is (partially) restored relative to
        the shrunken modulus by :meth:`mod_switch`."""
        params = self.params
        phase = self._phase_rows(key, [ct])
        if not params.is_rns:
            q = P
            magnitude = max(
                1, int(np.max(np.abs(_centered_lift(phase))))
            )
        else:
            q = params.modulus(ct.level)
            lifted = self._crt_lift(phase, ct.level)[0]
            magnitude = max(
                1, max(abs(x - q if x > q >> 1 else x) for x in lifted)
            )
        return math.log2(q / 2) - math.log2(magnitude)


__all__ = [
    "RLWE",
    "RLWEParams",
    "RLWECiphertext",
    "RLWEKeyPair",
    "RelinKeys",
    "default_rns_primes",
]

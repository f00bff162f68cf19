"""The common FHE surface: the :class:`HEScheme` protocol and the
DGHV gate implementations behind it.

Every scheme the engine can hand out (`engine.fhe(...)` returns DGHV
for integer parameters and RLWE for ring parameters) implements one
method vocabulary — :class:`HEScheme` — so circuits, the jobs layer
and the serving tier can be written once:

    ``keygen() → encrypt/decrypt → add/multiply → noise_budget``

plus batched ``*_many`` forms of each.

DGHV noise bookkeeping: addition sums noises (≈ +1 bit), multiplication
sums noise bit-lengths; reduction modulo ``x_0`` adds a constant.  A
:class:`NoiseBudgetError` is raised when an operation would exceed the
decryptable budget, so circuits fail loudly instead of silently
corrupting results.

Every homomorphic AND reduces its 2·gamma-bit product modulo ``x_0``
by Barrett reduction (:func:`_reduce_mod_x0`) rather than long
division: with ``k = x_0.bit_length()`` and the constant
``mu = floor(2^(2k) / x_0)``, the quotient estimate costs two k × k-bit
products (Python's built-in ``*``) and at most three subtractions of
``x_0``.  ``mu`` is computed once per ``x_0`` by one exact division and
kept in a small bounded cache keyed by the ``x_0`` value, so every key
pair, and every raw ``x_0`` a served ``dghv-mult`` request carries, pays
that division once.  Additions and encryption keep ``%``: their
quotient is a few bits wide, so the division is already linear.
"""

from __future__ import annotations

import functools
from typing import (
    Any,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.fhe.dghv import DGHV, Ciphertext, KeyPair


@runtime_checkable
class HEScheme(Protocol):
    """The unified homomorphic-scheme vocabulary.

    Both `engine.fhe` bindings — :class:`repro.fhe.DGHV` (integers,
    bit plaintexts) and :class:`repro.fhe.RLWE` (rings, polynomial
    plaintexts) — satisfy this protocol, so generic circuits can take
    "any scheme".  ``key`` arguments are whatever the scheme's
    ``keygen`` returned (the evaluation subset suffices where the
    scheme supports it, e.g. RLWE relinearization keys).
    """

    def keygen(self) -> Any:
        """Draw a fresh key object (secret + evaluation material)."""
        ...

    def encrypt(self, key: Any, message: Any) -> Any:
        ...

    def decrypt(self, key: Any, ciphertext: Any) -> Any:
        ...

    def encrypt_many(self, key: Any, messages: Sequence[Any]) -> List[Any]:
        ...

    def decrypt_many(
        self, key: Any, ciphertexts: Sequence[Any]
    ) -> List[Any]:
        ...

    def add(self, x: Any, y: Any) -> Any:
        """Homomorphic plaintext addition (no key material needed)."""
        ...

    def multiply(self, key: Any, x: Any, y: Any) -> Any:
        """Homomorphic plaintext product (key carries whatever the
        scheme needs: ``x_0`` for DGHV, relinearization keys for
        RLWE)."""
        ...

    def multiply_many(
        self, key: Any, pairs: Sequence[Tuple[Any, Any]]
    ) -> List[Any]:
        """Batched :meth:`multiply` — the accelerator-shaped form."""
        ...

    def noise_budget(self, key: Any, ciphertext: Any) -> float:
        """Remaining decryption headroom in bits (≤ 0: unreliable)."""
        ...


class NoiseBudgetError(RuntimeError):
    """The homomorphic noise outgrew the decryption budget."""


def _check_budget(result: Ciphertext, operation: str) -> Ciphertext:
    if not result.decryptable:
        raise NoiseBudgetError(
            f"{operation} pushes noise to ~2^{result.noise_bits:.0f}, "
            f"beyond the 2^{result.params.eta - 2} budget"
        )
    return result


@functools.lru_cache(maxsize=16)
def _barrett_mu_lo(x0: int) -> int:
    """``mu - 2^k`` for ``mu = floor(2^(2k) / x0)``, ``k = x0.bit_length()``.

    For odd ``x0 ≥ 3``, ``2^k ≤ mu < 2^(k+1)``, so the low part is below
    ``2^k`` and the quotient estimate needs a k × k-bit product only.
    """
    k = x0.bit_length()
    return (1 << (2 * k)) // x0 - (1 << k)


def _barrett_quotient(value: int, x0: int) -> int:
    """Barrett's estimate of ``value // x0`` for ``0 ≤ value < 2^(2k)``.

    Never above the true quotient and at most three below it.
    """
    k = x0.bit_length()
    q1 = value >> k
    return ((q1 << k) + q1 * _barrett_mu_lo(x0)) >> k


def _reduce_mod_x0(value: int, x0: int) -> int:
    """``value % x0`` by Barrett reduction (see the module docstring).

    Values of more than ``2k`` bits, negative values and non-positive
    moduli (unreduced or malformed inputs) take exact ``%``.
    """
    k = x0.bit_length()
    if x0 <= 0 or value < 0 or value.bit_length() > 2 * k:
        return value % x0
    residue = value - _barrett_quotient(value, x0) * x0
    for _ in range(3):
        if residue < x0:
            break
        residue -= x0
    assert 0 <= residue < x0, "Barrett quotient more than 3 below exact"
    return residue


def _he_add(
    a: Ciphertext, b: Ciphertext, x0: Optional[int] = None
) -> Ciphertext:
    """Homomorphic XOR: ``c = c_a + c_b`` (optionally mod ``x_0``)."""
    if a.params is not b.params and a.params != b.params:
        raise ValueError("ciphertexts from different parameter sets")
    value = a.value + b.value
    if x0 is not None:
        value %= x0  # noise-free: x_0 is an exact multiple of p
    noise = max(a.noise_bits, b.noise_bits) + 1
    return _check_budget(
        Ciphertext(value=value, noise_bits=noise, params=a.params), "he_add"
    )


def _he_mult(
    scheme: DGHV,
    a: Ciphertext,
    b: Ciphertext,
    x0: Optional[int] = None,
) -> Ciphertext:
    """Homomorphic AND: ``c = c_a · c_b`` through the multiplier strategy.

    This is the accelerator workload: a full gamma × gamma-bit product
    (786,432 bits at the paper's parameters) for every gate.  With
    ``x0`` given, the product is Barrett-reduced mod ``x_0`` by
    :func:`_reduce_mod_x0` (two built-in k × k-bit products against the
    cached per-``x_0`` constant); the strategy sees only the one
    ciphertext product.
    """
    if a.params != b.params:
        raise ValueError("ciphertexts from different parameter sets")
    value = scheme.multiplier(a.value, b.value)
    noise = a.noise_bits + b.noise_bits + 1
    if x0 is not None:
        # Reduce the 2·gamma-bit product back to gamma bits.  Because
        # x_0 = q_0·p exactly, the reduction leaves c mod p untouched.
        value = _reduce_mod_x0(value, x0)
    return _check_budget(
        Ciphertext(value=value, noise_bits=noise, params=a.params), "he_mult"
    )


def _defining_class(cls: type, name: str):
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    return None


def _product_batch(
    multiplier, operand_pairs: Sequence[Tuple[int, int]]
) -> List[int]:
    """Batched big-int products through a multiplier strategy.

    Uses the strategy's ``multiply_many`` when one is reachable: on
    the callable itself (the ``SSAMultiplier`` /
    :class:`repro.engine.EngineMultiplier` case), or on the object a
    bound ``multiply`` method belongs to — but only when
    ``multiply`` and ``multiply_many`` are defined by the same class,
    so a subclass that overrides one without the other (instrumented
    or clamped ``multiply``, say) is never silently bypassed.
    Otherwise falls back to a per-pair loop.
    """
    many = getattr(multiplier, "multiply_many", None)
    if many is None:
        owner = getattr(multiplier, "__self__", None)
        if (
            owner is not None
            and getattr(multiplier, "__func__", None)
            is getattr(type(owner), "multiply", None)
        ):
            cls = _defining_class(type(owner), "multiply")
            if cls is not None and cls is _defining_class(
                type(owner), "multiply_many"
            ):
                many = owner.multiply_many
    if many is not None:
        return [int(v) for v in many(operand_pairs)]
    return [multiplier(a, b) for a, b in operand_pairs]


def _he_mult_many(
    scheme: DGHV,
    pairs: Sequence[Tuple[Ciphertext, Ciphertext]],
    x0: Optional[int] = None,
) -> List[Ciphertext]:
    """Batched homomorphic AND: one result per ciphertext pair.

    Same semantics and noise bookkeeping as looping :func:`_he_mult`,
    but the gamma × gamma-bit ciphertext products are computed in one
    batched SSA pass whenever the scheme's multiplier strategy supports
    it — the realistic FHE-server shape of the accelerator workload
    (thousands of independent gate products per batch).  Each product is
    then Barrett-reduced mod ``x_0`` by :func:`_reduce_mod_x0`, whose
    constant is computed once per ``x_0`` and cached, so the batch pays
    no long division.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if a.params != b.params:
            raise ValueError("ciphertexts from different parameter sets")
    values = _product_batch(
        scheme.multiplier, [(a.value, b.value) for a, b in pairs]
    )
    out: List[Ciphertext] = []
    for (a, b), value in zip(pairs, values):
        if x0 is not None:
            value = _reduce_mod_x0(value, x0)
        noise = a.noise_bits + b.noise_bits + 1
        out.append(
            _check_budget(
                Ciphertext(value=value, noise_bits=noise, params=a.params),
                "he_mult",
            )
        )
    return out


def _he_xor_and_eval(
    scheme: DGHV,
    keys: KeyPair,
    bits_a: Iterable[int],
    bits_b: Iterable[int],
) -> List[int]:
    """Demo circuit: encrypted ``(a_i XOR b_i, a_i AND b_i)`` pairs.

    Encrypts both bit vectors, evaluates one XOR and one AND per
    position homomorphically, decrypts, and returns the interleaved
    plaintext results — a one-call end-to-end exercise used by tests
    and the quickstart example.  The AND gates (the accelerator
    workload) are evaluated as one :func:`_he_mult_many` batch.
    """
    encrypted = []
    xors: List[Ciphertext] = []
    for bit_a, bit_b in zip(bits_a, bits_b):
        ca = scheme.encrypt(keys, bit_a)
        cb = scheme.encrypt(keys, bit_b)
        encrypted.append((ca, cb))
        xors.append(_he_add(ca, cb, x0=keys.x0))
    ands = _he_mult_many(scheme, encrypted, x0=keys.x0)
    out: List[int] = []
    for c_xor, c_and in zip(xors, ands):
        out.append(scheme.decrypt(keys, c_xor))
        out.append(scheme.decrypt(keys, c_and))
    return out

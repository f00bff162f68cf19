"""The op vocabulary: one class per operation of the stack.

Every unit of work the jobs queue runs and the :mod:`repro.serve` front
end accepts is one :class:`Op` subclass.  An op knows:

- how to **build** itself from in-process objects (its constructor
  validates, raising a typed :class:`ProtocolError`) and how to
  **decode** itself from a JSON wire ``payload`` (``from_payload``,
  reached through :func:`decode_op`);
- its :attr:`~Op.count` of items and whether it is
  :attr:`~Op.coalescible`;
- its **coalesce key** — two queued requests whose keys match run the
  same engine code path on the same plan shape, so the service may
  merge them into one batched ``*_many`` pass;
- how to **merge** a list of same-key ops into one batched op of the
  same class, and how to **split** the batched result back into
  per-op results (order-preserving, bit-identical to running each op
  alone);
- how to **encode** a result for the JSON wire;
- how to **run** on an :class:`~repro.engine.Engine`.

The merge→split round trip is the service's key performance move: under
load, B compatible single-item requests become one ``B``-row engine
pass (one forward NTT over the stacked batch instead of B small ones)
while every client still receives exactly the answer an individual
submission would have produced.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.field.vector import to_field_array, to_field_matrix


class ProtocolError(ValueError):
    """A malformed frame or request (bad length, JSON, or fields)."""


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise ProtocolError(f"payload is missing {key!r}") from None


def _int_rows(rows, what: str) -> List[List[int]]:
    """Validate a JSON list-of-rows-of-ints (one flat row accepted)."""
    if not isinstance(rows, list) or not rows:
        raise ProtocolError(f"{what} must be a non-empty list")
    if not isinstance(rows[0], list):
        rows = [rows]
    out = []
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(v, int) for v in row
        ):
            raise ProtocolError(f"{what} rows must be lists of integers")
        out.append(row)
    return out


def _field_rows(values) -> Tuple[np.ndarray, bool]:
    """``values`` as canonical ``(batch, n)`` field rows, and whether it
    was one flat row (a flat request is answered flat on the wire).

    ``uint64`` arrays are taken as already canonical; anything else goes
    through :func:`~repro.field.vector.to_field_matrix`.
    """
    flat = np.ndim(values) == 1
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        rows = values
    else:
        rows = to_field_matrix([values] if flat else values)
    return (rows.reshape(1, -1) if rows.ndim == 1 else rows), flat


def _encode_rows(result, flat: bool) -> Any:
    rows = [[int(v) for v in row] for row in result]
    return rows[0] if flat else rows


class Op:
    """Base class of the op vocabulary (see the module docstring).

    Subclasses set :attr:`name` and :attr:`count` and define
    ``coalesce_key()``, ``from_payload(payload)``, ``merge(ops)``,
    ``encode_result(result)`` and ``run(engine)``.
    """

    #: Wire name; the key of :data:`OPS`.
    name: str = ""
    #: Whether this op may be merged with other same-key ops.
    coalescible: bool = True
    #: Items this op carries (batch rows, operand pairs, ...) — the unit
    #: admission control and fair queueing charge for.
    count: int = 0

    @classmethod
    def batch(cls, items: list, **params) -> "Op":
        """The op over one chunk of :meth:`JobScheduler.map
        <repro.engine.jobs.JobScheduler.map>` items; ``params`` are the
        map's keyword arguments."""
        return cls(items, **params)

    @staticmethod
    def split(ops: Sequence["Op"], result) -> List[Any]:
        """Slice a merged op's result back into per-op chunks, in order."""
        out = []
        start = 0
        for op in ops:
            stop = start + op.count
            out.append(result[start:stop])
            start = stop
        if start != len(result):
            raise RuntimeError(
                f"batched result has {len(result)} items for {start} "
                "requested"
            )
        return out


# -- multiply --------------------------------------------------------------


class MultiplyJob(Op):
    """Exact SSA products ``[a·b for (a, b) in pairs]`` of non-negative
    big integers.

    Payload: ``{"pairs": [[a, b], ...]}`` (arbitrary-precision JSON
    ints).  Result: the list of products.  The coalesce key buckets the
    operand width to the next power of two, so merged requests size the
    same SSA multiplier (same transform plan shape).
    """

    name = "multiply"

    def __init__(self, pairs: Sequence[Tuple[int, int]]):
        self.pairs = tuple((int(a), int(b)) for a, b in pairs)
        if not self.pairs:
            raise ProtocolError("multiply needs at least one pair")
        if any(a < 0 or b < 0 for a, b in self.pairs):
            raise ProtocolError("multiply operands must be non-negative")
        self.count = len(self.pairs)
        bits = max(
            max(a.bit_length(), b.bit_length(), 1) for a, b in self.pairs
        )
        self._bucket = 1 << (bits - 1).bit_length()

    @classmethod
    def of(cls, a: int, b: int) -> "MultiplyJob":
        """A single-product op (``result()`` is a one-element list)."""
        return cls(((a, b),))

    def coalesce_key(self) -> Tuple:
        return ("multiply", self._bucket)

    @classmethod
    def from_payload(cls, payload: dict) -> "MultiplyJob":
        pairs = _require(payload, "pairs")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(isinstance(v, int) for v in p)
            for p in pairs
        ):
            raise ProtocolError("pairs must be a list of [a, b] integers")
        return cls(pairs)

    @classmethod
    def merge(cls, ops: Sequence["MultiplyJob"]) -> "MultiplyJob":
        return cls([pair for op in ops for pair in op.pairs])

    def encode_result(self, result) -> Any:
        return [int(v) for v in result]

    def run(self, engine) -> List[int]:
        left = [a for a, _ in self.pairs]
        right = [b for _, b in self.pairs]
        return engine.multiply(left, right)


# -- ring transforms -------------------------------------------------------


class RingTransformJob(Op):
    """A ``(batch, n)`` forward/inverse NTT, optionally negacyclic.

    ``values`` is a ``(batch, n)`` matrix or one flat row; the result is
    always ``(batch, n)``.  Payload: ``{"n": ..., "values": [[...],
    ...], "inverse": false, "negacyclic": false, "radices": null}``; a
    flat ``values`` row is answered flat.
    """

    name = "ring-transform"

    def __init__(
        self,
        n: int,
        values,
        *,
        inverse: bool = False,
        negacyclic: bool = False,
        radices: Optional[Sequence[int]] = None,
    ):
        self.values, self.flat = _field_rows(values)
        if self.values.ndim != 2 or self.values.shape[1] != n:
            raise ProtocolError(
                f"values must be (batch, {n}), got {self.values.shape}"
            )
        self.n = int(n)
        self.inverse = bool(inverse)
        self.negacyclic = bool(negacyclic)
        self.radices = tuple(radices) if radices is not None else None
        self.count = int(self.values.shape[0])

    @classmethod
    def batch(cls, items: list, **params) -> "RingTransformJob":
        return cls(values=items, **params)

    def coalesce_key(self) -> Tuple:
        return (
            "ring-transform",
            self.n,
            self.inverse,
            self.negacyclic,
            self.radices,
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "RingTransformJob":
        n = _require(payload, "n")
        if not isinstance(n, int) or n < 2:
            raise ProtocolError("n must be an integer >= 2")
        values = _require(payload, "values")
        if any(len(row) != n for row in _int_rows(values, "values")):
            raise ProtocolError(f"every values row must have {n} entries")
        radices = payload.get("radices")
        if radices is not None and (
            not isinstance(radices, list)
            or not all(isinstance(r, int) for r in radices)
        ):
            raise ProtocolError("radices must be a list of integers")
        return cls(
            n,
            values,
            inverse=bool(payload.get("inverse", False)),
            negacyclic=bool(payload.get("negacyclic", False)),
            radices=radices,
        )

    @classmethod
    def merge(cls, ops: Sequence["RingTransformJob"]) -> "RingTransformJob":
        first = ops[0]
        return cls(
            first.n,
            np.vstack([op.values for op in ops]),
            inverse=first.inverse,
            negacyclic=first.negacyclic,
            radices=first.radices,
        )

    def encode_result(self, result) -> Any:
        return _encode_rows(result, self.flat)

    def run(self, engine) -> np.ndarray:
        ring = engine.ring(self.n, self.radices)
        if self.negacyclic:
            method = (
                ring.negacyclic_inverse
                if self.inverse
                else ring.negacyclic_forward
            )
        else:
            method = ring.inverse if self.inverse else ring.forward
        return method(self.values)


# -- convolutions ----------------------------------------------------------


class ConvolveJob(Op):
    """Cyclic or negacyclic convolution of ``(batch, n)`` operands.

    ``b`` holds one row per ``a`` row, or one row broadcast against
    every ``a`` row.  Payload: ``{"n": ..., "a": [[...], ...], "b":
    [[...], ...], "negacyclic": false}``.  Broadcast ops are accepted
    but never coalesced — the broadcast operand's spectrum reuse is
    already their batching story.  ``map`` items are ``(a_row, b_row)``
    pairs.
    """

    name = "convolve"

    def __init__(
        self,
        n: int,
        a,
        b,
        *,
        negacyclic: bool = False,
        radices: Optional[Sequence[int]] = None,
    ):
        self.a, self.flat = _field_rows(a)
        self.b, _ = _field_rows(b)
        for label, mat in (("a", self.a), ("b", self.b)):
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ProtocolError(
                    f"{label} must be (batch, {n}), got {mat.shape}"
                )
        if self.b.shape[0] not in (self.a.shape[0], 1):
            raise ProtocolError(
                "b must have one row per a row, or exactly one row"
            )
        self.n = int(n)
        self.negacyclic = bool(negacyclic)
        self.radices = tuple(radices) if radices is not None else None
        self.count = int(self.a.shape[0])
        self.coalescible = not (self.b.shape[0] == 1 and self.count > 1)

    @classmethod
    def batch(cls, items: list, **params) -> "ConvolveJob":
        return cls(
            a=[a for a, _ in items], b=[b for _, b in items], **params
        )

    def coalesce_key(self) -> Tuple:
        return ("convolve", self.n, self.negacyclic, self.radices)

    @classmethod
    def from_payload(cls, payload: dict) -> "ConvolveJob":
        n = _require(payload, "n")
        if not isinstance(n, int) or n < 2:
            raise ProtocolError("n must be an integer >= 2")
        a = _require(payload, "a")
        b = _require(payload, "b")
        if any(
            len(row) != n for row in _int_rows(a, "a") + _int_rows(b, "b")
        ):
            raise ProtocolError(f"every operand row must have {n} entries")
        return cls(n, a, b, negacyclic=bool(payload.get("negacyclic", False)))

    @classmethod
    def merge(cls, ops: Sequence["ConvolveJob"]) -> "ConvolveJob":
        first = ops[0]
        return cls(
            first.n,
            np.vstack([op.a for op in ops]),
            np.vstack([op.b for op in ops]),
            negacyclic=first.negacyclic,
            radices=first.radices,
        )

    def encode_result(self, result) -> Any:
        return _encode_rows(result, self.flat)

    def run(self, engine) -> np.ndarray:
        return engine.ring(self.n, self.radices).convolve(
            self.a, self.b, negacyclic=self.negacyclic
        )


# -- DGHV homomorphic AND layers -------------------------------------------


class _MultiplierStrategy:
    """The minimal ``scheme`` shape :func:`repro.fhe.ops._he_mult_many`
    needs: an object exposing the engine's multiplier strategy."""

    def __init__(self, engine):
        from repro.engine.core import EngineMultiplier

        self.multiplier = EngineMultiplier(engine)


class DGHVMultJob(Op):
    """A layer of DGHV homomorphic AND gates (ciphertext products).

    Semantics and noise bookkeeping of
    :meth:`repro.fhe.DGHV.multiply_many`: the γ×γ-bit products run as
    one batched SSA pass through the engine (and therefore through its
    backend — sharded on ``software-mp``, cycle-counted on
    ``hw-model``), each reduced mod ``x0`` when one is given.  Every
    ciphertext value must be a non-negative integer of at most ``gamma``
    bits and ``x0`` an odd integer ``≥ 3`` of at most ``gamma`` bits;
    anything else is a :class:`ProtocolError`.

    Payload: ``{"params": {"name", "lam", "rho", "eta", "gamma",
    "tau"}, "x0": ..., "pairs": [[[value, noise_bits], [value,
    noise_bits]], ...]}``.  Result: ``[[value, noise_bits], ...]``.
    """

    name = "dghv-mult"

    def __init__(self, pairs, x0: Optional[int] = None):
        from repro.fhe.dghv import Ciphertext

        self.pairs = tuple(pairs)
        if not self.pairs:
            raise ProtocolError("dghv-mult needs at least one pair")
        for a, b in self.pairs:
            if not isinstance(a, Ciphertext) or not isinstance(
                b, Ciphertext
            ):
                raise ProtocolError("dghv pairs must hold ciphertexts")
        self.params = self.pairs[0][0].params
        gamma = self.params.gamma
        for pair in self.pairs:
            for ct in pair:
                if (
                    not isinstance(ct.value, int)
                    or ct.value < 0
                    or ct.value.bit_length() > gamma
                ):
                    raise ProtocolError(
                        "dghv ciphertext values must be non-negative "
                        f"integers of at most {gamma} bits"
                    )
        if x0 is not None:
            try:
                x0 = operator.index(x0)
            except TypeError:
                raise ProtocolError("x0 must be an integer") from None
            if x0 < 3 or x0 % 2 == 0 or x0.bit_length() > gamma:
                raise ProtocolError(
                    f"x0 must be an odd integer >= 3 of at most {gamma} bits"
                )
        self.x0 = x0
        self.count = len(self.pairs)

    def coalesce_key(self) -> Tuple:
        p = self.params
        return ("dghv-mult", p.name, p.gamma, p.eta, p.rho, p.tau, self.x0)

    @classmethod
    def from_payload(cls, payload: dict) -> "DGHVMultJob":
        from repro.fhe.dghv import Ciphertext
        from repro.fhe.params import FHEParams

        raw_params = _require(payload, "params")
        if not isinstance(raw_params, dict):
            raise ProtocolError("params must be an object")
        try:
            params = FHEParams(
                name=str(raw_params["name"]),
                lam=int(raw_params["lam"]),
                rho=int(raw_params["rho"]),
                eta=int(raw_params["eta"]),
                gamma=int(raw_params["gamma"]),
                tau=int(raw_params["tau"]),
            )
            params.validate()
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"bad DGHV params: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ProtocolError("pairs must be a list")

        def ciphertext(raw) -> Ciphertext:
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or not isinstance(raw[0], int)
                or isinstance(raw[0], bool)
                or not isinstance(raw[1], (int, float))
                or isinstance(raw[1], bool)
            ):
                raise ProtocolError(
                    "each ciphertext must be [value, noise_bits]"
                )
            return Ciphertext(
                value=raw[0], noise_bits=float(raw[1]), params=params
            )

        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each pair must be [ct, ct]")
            pairs.append((ciphertext(raw[0]), ciphertext(raw[1])))
        return cls(pairs, x0=payload.get("x0"))

    @classmethod
    def merge(cls, ops: Sequence["DGHVMultJob"]) -> "DGHVMultJob":
        return cls([pair for op in ops for pair in op.pairs], x0=ops[0].x0)

    def encode_result(self, result) -> Any:
        return [[ct.value, ct.noise_bits] for ct in result]

    def run(self, engine) -> List[Any]:
        from repro.fhe.ops import _he_mult_many

        return _he_mult_many(
            _MultiplierStrategy(engine), self.pairs, x0=self.x0
        )


# -- RLWE plaintext products -----------------------------------------------


class RLWEMultiplyPlainJob(Op):
    """Batched RLWE plaintext-by-ciphertext products.

    Bit-identical to :meth:`repro.fhe.rlwe.RLWE.multiply_plain_many` on
    a scheme bound to the engine's plan (``3·B`` negacyclic transforms
    total, on the engine's fused, permutation-free negacyclic plan).
    ``map`` items are ``(ciphertext, plain)`` pairs.

    Payload: ``{"n": ..., "t": ..., "noise_bound": ...,
    "ciphertexts": [[c0_row, c1_row], ...], "plains": [[...], ...]}``.
    Result: ``[[c0_row, c1_row], ...]``.
    """

    name = "rlwe-multiply-plain"

    def __init__(self, params, ciphertexts, plains):
        self.params = params
        self.ciphertexts = list(ciphertexts)
        self.plains = [list(map(int, p)) for p in plains]
        if not self.ciphertexts:
            raise ProtocolError("rlwe-multiply-plain needs >= 1 pair")
        if len(self.ciphertexts) != len(self.plains):
            raise ProtocolError("one plaintext per ciphertext")
        self.count = len(self.ciphertexts)

    @classmethod
    def batch(cls, items: list, **params) -> "RLWEMultiplyPlainJob":
        return cls(
            ciphertexts=[ct for ct, _ in items],
            plains=[plain for _, plain in items],
            **params,
        )

    def coalesce_key(self) -> Tuple:
        p = self.params
        return ("rlwe-multiply-plain", p.n, p.t, p.noise_bound)

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyPlainJob":
        from repro.fhe.rlwe import RLWECiphertext, RLWEParams

        try:
            params = RLWEParams(
                n=int(_require(payload, "n")),
                t=int(_require(payload, "t")),
                noise_bound=int(payload.get("noise_bound", 8)),
            )
            params.validate()
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad RLWE params: {error}") from None
        raw_cts = _require(payload, "ciphertexts")
        raw_plains = _require(payload, "plains")
        if not isinstance(raw_cts, list) or not isinstance(
            raw_plains, list
        ):
            raise ProtocolError("ciphertexts and plains must be lists")
        cts = []
        for raw in raw_cts:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each ciphertext must be [c0, c1]")
            c0 = _int_rows(raw[0], "c0")[0]
            c1 = _int_rows(raw[1], "c1")[0]
            if len(c0) != params.n or len(c1) != params.n:
                raise ProtocolError(
                    f"ciphertext rows must have {params.n} coefficients"
                )
            cts.append(
                RLWECiphertext(
                    c0=to_field_array(c0),
                    c1=to_field_array(c1),
                    params=params,
                )
            )
        plains = [_int_rows(p, "plain")[0] for p in raw_plains]
        if any(len(p) != params.n for p in plains):
            raise ProtocolError(
                f"plaintexts must have {params.n} coefficients"
            )
        return cls(params, cts, plains)

    @classmethod
    def merge(
        cls, ops: Sequence["RLWEMultiplyPlainJob"]
    ) -> "RLWEMultiplyPlainJob":
        return cls(
            ops[0].params,
            [ct for op in ops for ct in op.ciphertexts],
            [plain for op in ops for plain in op.plains],
        )

    def encode_result(self, result) -> Any:
        return [
            [[int(v) for v in ct.c0], [int(v) for v in ct.c1]]
            for ct in result
        ]

    def run(self, engine) -> List[Any]:
        scheme = engine.fhe(self.params)
        return scheme.multiply_plain_many(self.ciphertexts, self.plains)


# -- RLWE ciphertext products ------------------------------------------------


def _decode_rlwe_params(payload: dict):
    """RLWE parameter decode, single-modulus and RNS."""
    from repro.fhe.rlwe import RLWEParams

    raw_primes = payload.get("rns_primes")
    if raw_primes is not None:
        if not isinstance(raw_primes, list) or not all(
            isinstance(q, int) for q in raw_primes
        ):
            raise ProtocolError("rns_primes must be a list of integers")
        raw_primes = tuple(raw_primes)
    try:
        params = RLWEParams(
            n=int(_require(payload, "n")),
            t=int(_require(payload, "t")),
            noise_bound=int(payload.get("noise_bound", 8)),
            rns_primes=raw_primes,
            relin_base=int(payload.get("relin_base", 16)),
        )
        params.validate()
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad RLWE params: {error}") from None
    return params


class RLWEMultiplyJob(Op):
    """Batched RLWE ciphertext-by-ciphertext products (tensor +
    relinearization).

    One tensor pass + one relinearization pass over the whole batch,
    bit-identical to :meth:`repro.fhe.rlwe.RLWE.multiply_many` on a
    scheme bound to the engine (every ring product rides the engine's
    batch axis — sharded on ``software-mp``, cycle-counted on
    ``hw-model``).  ``relin`` is the evaluator-side
    :class:`repro.fhe.rlwe.RelinKeys` (a full key pair is accepted and
    reduced to it); the secret never enters the op.

    Payload: the :func:`_decode_rlwe_params` fields (``n``, ``t``,
    ``noise_bound``, optional ``rns_primes``/``relin_base``), a
    ``relin`` object (``RelinKeys.to_payload()``) and ``pairs``:
    ``[[[c0, c1], [d0, d1]], ...]`` where a component is a flat
    coefficient list (single-modulus) or a ``level × n`` list of
    residue-channel rows (RNS).  Result: ``[[c0, c1], ...]`` in the
    same component encoding.  The coalesce key carries the plan shape
    *and* a digest of the relinearization keys, so only requests
    evaluating under the same keyset share a batched
    ``multiply_many`` pass.
    """

    name = "rlwe-multiply"

    def __init__(self, params, relin, pairs):
        from repro.fhe.rlwe import RLWEKeyPair

        if isinstance(relin, RLWEKeyPair):
            relin = relin.relin
        self.params = params
        self.relin = relin
        self.pairs = list(pairs)
        if not self.pairs:
            raise ProtocolError("rlwe-multiply needs >= 1 pair")
        levels = {x.level for pair in self.pairs for x in pair}
        if len(levels) != 1:
            raise ProtocolError(
                "all ciphertexts must sit at the same chain level"
            )
        self.level = levels.pop()
        self.count = len(self.pairs)

    @classmethod
    def batch(cls, items: list, **params) -> "RLWEMultiplyJob":
        return cls(pairs=items, **params)

    def coalesce_key(self) -> Tuple:
        p = self.params
        return (
            "rlwe-multiply",
            p.n,
            p.t,
            p.noise_bound,
            p.rns_primes,
            p.relin_base,
            self.level,
            self.relin.digest(),
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyJob":
        from repro.fhe.rlwe import RelinKeys, RLWECiphertext

        params = _decode_rlwe_params(payload)
        raw_relin = _require(payload, "relin")
        if not isinstance(raw_relin, dict):
            raise ProtocolError("relin must be an object")
        try:
            relin = RelinKeys.from_payload(params, raw_relin)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad relin keys: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ProtocolError("pairs must be a list")

        def component(raw, level: int):
            rows = _int_rows(raw, "ciphertext component")
            if any(len(row) != params.n for row in rows):
                raise ProtocolError(
                    f"component rows must have {params.n} coefficients"
                )
            if params.is_rns:
                if len(rows) != level:
                    raise ProtocolError(
                        f"RNS components must carry {level} channel rows"
                    )
                return to_field_matrix(rows)
            if len(rows) != 1:
                raise ProtocolError(
                    "single-modulus components must be flat rows"
                )
            return to_field_array(rows[0])

        def level_of(raw) -> int:
            if not params.is_rns:
                return 1
            rows = _int_rows(raw, "ciphertext component")
            level = len(rows)
            if not 1 <= level <= params.level_count:
                raise ProtocolError(
                    "RNS component row count must match a chain level"
                )
            return level

        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each pair must be [ct, ct]")
            decoded = []
            for raw_ct in raw:
                if not isinstance(raw_ct, list) or len(raw_ct) != 2:
                    raise ProtocolError(
                        "each ciphertext must be [c0, c1]"
                    )
                level = level_of(raw_ct[0])
                decoded.append(
                    RLWECiphertext(
                        c0=component(raw_ct[0], level),
                        c1=component(raw_ct[1], level),
                        params=params,
                        level=level if params.is_rns else None,
                    )
                )
            pairs.append(tuple(decoded))
        return cls(params, relin, pairs)

    @classmethod
    def merge(cls, ops: Sequence["RLWEMultiplyJob"]) -> "RLWEMultiplyJob":
        return cls(
            ops[0].params,
            ops[0].relin,
            [pair for op in ops for pair in op.pairs],
        )

    def encode_result(self, result) -> Any:
        def encode(component) -> Any:
            if component.ndim == 1:
                return [int(v) for v in component]
            return [[int(v) for v in row] for row in component]

        return [[encode(ct.c0), encode(ct.c1)] for ct in result]

    def run(self, engine) -> List[Any]:
        scheme = engine.fhe(self.params)
        return scheme.multiply_many(self.relin, self.pairs)


#: Registered op name → class.
OPS: Dict[str, Type[Op]] = {
    op.name: op
    for op in (
        MultiplyJob,
        RingTransformJob,
        ConvolveJob,
        DGHVMultJob,
        RLWEMultiplyPlainJob,
        RLWEMultiplyJob,
    )
}


def decode_op(name: str, payload: dict) -> Op:
    """Build the named op from a JSON payload (typed errors)."""
    try:
        op_class = OPS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown op {name!r}; expected one of {sorted(OPS)}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    return op_class.from_payload(payload)


__all__ = [
    "Op",
    "ProtocolError",
    "MultiplyJob",
    "RingTransformJob",
    "ConvolveJob",
    "DGHVMultJob",
    "RLWEMultiplyPlainJob",
    "RLWEMultiplyJob",
    "OPS",
    "decode_op",
]

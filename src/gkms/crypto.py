"""Symmetric-key primitives shared by all protocol engines.

Keys are fixed-size byte strings compared by value.  All derivations are a
single hash with a one-byte domain prefix, so the four derivation functions
can never collide with each other.  Key wrapping uses deterministic
authenticated encryption (AES-SIV without a nonce): wrapping the same payload
under the same key always yields the same ciphertext, which keeps simulation
traces byte-reproducible, and unwrapping with the wrong key fails detectably.

Randomness is always drawn from a caller-supplied seeded generator; nothing
in this module touches ambient entropy.  Operations that the cost model
charges to the server (fresh keys, wraps) require an explicit meter so they
cannot run unmetered inside protocol code.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from importlib import resources
from random import Random
from typing import Iterable, Protocol

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESSIV

KEY_LEN = 32

_DOMAIN_DERIVE = b"\x01"
_DOMAIN_BLIND = b"\x02"
_DOMAIN_MIX = b"\x03"
_DOMAIN_CODE = b"\x04"

# AES-SIV cipher objects kept per key.  A key that wraps a payload is used
# again soon after: the members unwrap under it (once per event, through the
# member derivation table), and the server may wrap more payloads under it in
# the same event.  Building a cipher costs about as much as using it.  A
# fixed bound keeps memory flat: 256 ciphers take about 2 MB, 4096 about
# 16 MB (CPython 3.11, cryptography 48).
CIPHER_CACHE_SIZE = 256


class CryptoError(Exception):
    """Base class for crypto-layer failures."""


class UnwrapError(CryptoError):
    """Unwrapping failed: wrong key or corrupted ciphertext."""


class MeterLike(Protocol):
    """What the primitives meter on (implemented by core.CostMeter)."""

    keygen: int
    encrypt: int
    wrap_log: dict[bytes, bytes] | None


@dataclass(frozen=True, slots=True)
class SymKey:
    """A symmetric key value, compared and hashed by its bytes."""

    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes) or len(self.data) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes")

    @property
    def fingerprint(self) -> str:
        """Short hex tag (first 4 bytes) for logs and witness chains."""
        return self.data[:4].hex()

    def __repr__(self) -> str:  # avoid dumping full key material in logs
        return f"SymKey({self.fingerprint}..)"


@dataclass(frozen=True, slots=True)
class WrappedKey:
    """A key encrypted under another key.

    ``kek_id`` names the tree node (or well-known label) whose key did the
    wrapping, so receivers know which of their keys to try.  It is routing
    metadata, not a secret.
    """

    ciphertext: bytes
    kek_id: int | str

    def __len__(self) -> int:
        return len(self.ciphertext)


def _hash(domain: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(domain + payload).digest()


# The slot descriptors' setters, which fill a frozen record's fields
# directly: the hot constructors below skip the frozen dataclass's
# ``__init__`` and ``__post_init__``.
_set_key_data = SymKey.__dict__["data"].__set__
_set_ciphertext = WrappedKey.__dict__["ciphertext"].__set__
_set_kek_id = WrappedKey.__dict__["kek_id"].__set__


def _own_key(data: bytes) -> SymKey:
    """A SymKey for bytes this module made itself, built without the check
    in ``SymKey.__post_init__``.  The caller knows ``data`` is ``KEY_LEN``
    bytes: a SHA-256 digest, a ``randbytes(KEY_LEN)`` draw, or an unwrap
    output whose length it has checked."""
    key = object.__new__(SymKey)
    _set_key_data(key, data)
    return key


def derive(key: SymKey) -> SymKey:
    """One-way refresh: the holder of ``key`` can step it forward, never back."""
    return _own_key(_hash(_DOMAIN_DERIVE, key.data))


def blind(key: SymKey) -> SymKey:
    """One-way image of a key that is safe to show to non-holders."""
    return _own_key(_hash(_DOMAIN_BLIND, key.data))


def mix(left: SymKey, right: SymKey) -> SymKey:
    """Combine two (blinded) child keys into a parent key; order matters."""
    return _own_key(_hash(_DOMAIN_MIX, left.data + right.data))


def encode_code(code: str) -> bytes:
    """Digit string as ASCII bytes, right-aligned in a zero-padded key block."""
    if not code or not code.isascii() or not code.isdigit():
        raise ValueError(f"node code must be a non-empty digit string, got {code!r}")
    if len(code) > KEY_LEN:
        raise ValueError(f"node code longer than {KEY_LEN} digits: {code!r}")
    raw = code.encode("ascii")
    return b"\x00" * (KEY_LEN - len(raw)) + raw


def derive_with_code(group_key: SymKey, code: str) -> SymKey:
    """Key of a coded tree node: hash of the group key XOR its node code."""
    pad = int.from_bytes(encode_code(code), "big")
    mixed = (int.from_bytes(group_key.data, "big") ^ pad).to_bytes(KEY_LEN, "big")
    return _own_key(_hash(_DOMAIN_CODE, mixed))


def decode_code(block: bytes) -> str:
    """Inverse of :func:`encode_code`: strip the zero padding."""
    code = block.lstrip(b"\x00").decode("ascii")
    if not code or not code.isdigit():
        raise ValueError("block does not carry a digit-string code")
    return code


def random_key(rng: Random, meter: MeterLike) -> SymKey:
    """Fresh key from the seeded generator; metered as one key generation."""
    meter.keygen += 1
    return _own_key(rng.randbytes(KEY_LEN))


def random_keys(rng: Random, meter: MeterLike, count: int) -> list[SymKey]:
    """``count`` fresh keys from one draw; metered as ``count`` key generations.

    The keys, and the generator's state afterwards, are those of ``count``
    calls of :func:`random_key`: CPython's ``randbytes`` hands out the
    generator's 32-bit words in order, however many bytes one call asks for
    (tests/test_construction.py checks this).
    """
    meter.keygen += count
    data = rng.randbytes(KEY_LEN * count)
    return [_own_key(data[i:i + KEY_LEN]) for i in range(0, len(data), KEY_LEN)]


@functools.lru_cache(maxsize=CIPHER_CACHE_SIZE)
def _cipher(key: bytes) -> AESSIV:
    """The AES-SIV cipher for ``key``; a cipher holds only its key, so one
    object serves every wrap and unwrap under that key."""
    return AESSIV(key)


def wrap(kek: SymKey, payload: SymKey, meter: MeterLike, kek_id: int | str) -> WrappedKey:
    """Encrypt ``payload`` under ``kek``; metered as one encryption.  A meter
    with a ``wrap_log`` also logs which key did the wrapping."""
    meter.encrypt += 1
    ciphertext = _cipher(kek.data).encrypt(payload.data, None)
    if meter.wrap_log is not None:
        meter.wrap_log[ciphertext] = kek.data
    wrapped = object.__new__(WrappedKey)
    _set_ciphertext(wrapped, ciphertext)
    _set_kek_id(wrapped, kek_id)
    return wrapped


def unwrap(kek: SymKey, wrapped: WrappedKey) -> SymKey:
    """Decrypt a wrapped key; raises UnwrapError if ``kek`` is not the wrapper."""
    try:
        data = _cipher(kek.data).decrypt(wrapped.ciphertext, None)
    except InvalidTag as exc:
        raise UnwrapError(f"cannot unwrap payload labelled {wrapped.kek_id!r}") from exc
    # AES-SIV authenticates a plaintext of any length, so check it here
    if len(data) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes")
    return _own_key(data)


@dataclass(frozen=True)
class VectorResult:
    line_no: int
    function: str
    ok: bool
    expected: str
    actual: str


def _compute_vector(function: str, inputs: list[bytes]) -> bytes:
    if function == "derive":
        (key,) = inputs
        return derive(SymKey(key)).data
    if function == "blind":
        (key,) = inputs
        return blind(SymKey(key)).data
    if function == "mix":
        left, right = inputs
        return mix(SymKey(left), SymKey(right)).data
    if function == "derive_with_code":
        key, code_ascii = inputs
        return derive_with_code(SymKey(key), code_ascii.decode("ascii")).data
    if function == "wrap":
        from gkms.core import CostMeter  # core imports this module

        kek, payload = inputs
        return wrap(SymKey(kek), SymKey(payload), CostMeter(), kek_id="vector").ciphertext
    raise ValueError(f"unknown vector function {function!r}")


def iter_golden_vectors(text: str) -> Iterable[tuple[int, str, list[bytes], bytes]]:
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [part.strip() for part in line.split(",")]
        if len(fields) != 3:
            raise ValueError(
                f"vector line {line_no}: expected 3 comma-separated fields, got {len(fields)}"
            )
        name, raw_inputs, raw_output = fields
        try:
            inputs = [bytes.fromhex(tok) for tok in raw_inputs.split()]
            output = bytes.fromhex(raw_output)
        except ValueError:
            raise ValueError(f"vector line {line_no}: inputs and output must be hex") from None
        yield line_no, name, inputs, output


def default_vector_text() -> str:
    return resources.files("gkms").joinpath("data/golden_vectors.txt").read_text()


def verify_golden_vectors(text: str | None = None) -> list[VectorResult]:
    """Recompute every golden vector; returns one result per record."""
    if text is None:
        text = default_vector_text()
    results = []
    for line_no, name, inputs, expected in iter_golden_vectors(text):
        try:
            actual = _compute_vector(name, inputs)
        except ValueError as exc:
            raise ValueError(f"vector line {line_no}: {exc}") from None
        results.append(
            VectorResult(
                line_no=line_no,
                function=name,
                ok=actual == expected,
                expected=expected.hex(),
                actual=actual.hex(),
            )
        )
    if not results:
        raise ValueError("golden vector text contained no records")
    return results

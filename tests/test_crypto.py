"""Crypto layer: golden vectors pinned by an independent SHA-256, wrap/unwrap
behaviour, domain separation, code encoding, and operation metering."""

from dataclasses import FrozenInstanceError
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_sha256 as ref
from gkms.core import CostMeter
from gkms.crypto import (
    CIPHER_CACHE_SIZE,
    KEY_LEN,
    SymKey,
    UnwrapError,
    WrappedKey,
    _cipher,
    blind,
    decode_code,
    default_vector_text,
    derive,
    derive_with_code,
    encode_code,
    iter_golden_vectors,
    mix,
    random_key,
    random_keys,
    unwrap,
    verify_golden_vectors,
    wrap,
)

KEY_BYTES = st.binary(min_size=KEY_LEN, max_size=KEY_LEN)
CODES = st.text(alphabet="0123456789", min_size=1, max_size=KEY_LEN)

K0 = bytes(KEY_LEN)
K1 = bytes(range(KEY_LEN))


# -- key values ----------------------------------------------------------------


def test_symkey_rejects_wrong_length():
    with pytest.raises(ValueError):
        SymKey(b"short")
    with pytest.raises(ValueError):
        SymKey(bytes(KEY_LEN + 1))
    with pytest.raises(ValueError):
        SymKey("0" * KEY_LEN)  # str, not bytes


def test_symkey_fingerprint_and_repr_hide_key_material():
    key = SymKey(K1)
    assert key.fingerprint == "00010203"
    assert K1.hex() not in repr(key)
    assert key.fingerprint in repr(key)


# -- derivations against the independent implementation --------------------------


@given(KEY_BYTES)
def test_derive_matches_reference(data):
    assert derive(SymKey(data)).data == ref.derive_reference(data)


@given(KEY_BYTES)
def test_blind_matches_reference(data):
    assert blind(SymKey(data)).data == ref.blind_reference(data)


@given(KEY_BYTES, KEY_BYTES)
def test_mix_matches_reference_and_is_order_sensitive(a, b):
    assert mix(SymKey(a), SymKey(b)).data == ref.mix_reference(a, b)
    if a != b:
        assert mix(SymKey(a), SymKey(b)) != mix(SymKey(b), SymKey(a))


@given(KEY_BYTES, CODES)
def test_derive_with_code_matches_reference(data, code):
    assert derive_with_code(SymKey(data), code).data == ref.derive_with_code_reference(data, code)


def test_derive_preserves_role_and_changes_value():
    key = SymKey(K1)
    assert derive(key).data != key.data


@given(KEY_BYTES)
def test_domain_separation(data):
    key = SymKey(data)
    images = {
        derive(key).data,
        blind(key).data,
        mix(key, key).data,
        derive_with_code(key, "0").data,
    }
    assert len(images) == 4  # the four derivations can never collide
    assert data not in images


@given(KEY_BYTES, st.integers(min_value=0, max_value=2**64))
def test_digest_keys_equal_checked_keys(data, seed):
    # derivations, unwraps, fresh keys and wraps are built through the slot
    # setters, without the dataclass __init__; the records must still be
    # indistinguishable from checked ones, slotted and frozen
    key = SymKey(data)
    rng = Random(seed)
    wrapped = wrap(SymKey(K1), key, CostMeter(), kek_id=1)
    made_keys = [
        derive(key),
        blind(key),
        mix(key, key),
        derive_with_code(key, "7"),
        unwrap(SymKey(K1), wrapped),
        random_key(rng, CostMeter()),
        *random_keys(rng, CostMeter(), 3),
    ]
    for made in made_keys:
        checked = SymKey(made.data)
        assert type(made) is SymKey and len(made.data) == KEY_LEN
        assert made == checked and hash(made) == hash(checked)
        assert not hasattr(made, "__dict__")
        with pytest.raises(FrozenInstanceError):
            made.data = data
    built = WrappedKey(ciphertext=wrapped.ciphertext, kek_id=wrapped.kek_id)
    assert type(wrapped) is WrappedKey and wrapped.kek_id == 1
    assert wrapped == built and hash(wrapped) == hash(built)
    assert not hasattr(wrapped, "__dict__")
    with pytest.raises(FrozenInstanceError):
        wrapped.kek_id = 2


def test_unwrap_still_checks_the_payload_length():
    kek = SymKey(K0)
    short = WrappedKey(ciphertext=_cipher(K0).encrypt(b"short", None), kek_id=1)
    with pytest.raises(ValueError, match=f"key must be {KEY_LEN} bytes"):
        unwrap(kek, short)


# -- code encoding ---------------------------------------------------------------


@given(CODES)
def test_encode_decode_roundtrip(code):
    block = encode_code(code)
    assert len(block) == KEY_LEN
    assert decode_code(block) == code


def test_encode_code_rejects_bad_input():
    for bad in ("", "12a", "1 2", "½", "9" * (KEY_LEN + 1)):
        with pytest.raises(ValueError):
            encode_code(bad)


def test_decode_code_rejects_non_code_blocks():
    with pytest.raises(ValueError):
        decode_code(bytes(KEY_LEN))  # all-zero: no digits at all
    with pytest.raises(ValueError):
        decode_code(b"\x00" * 28 + b"12a4")


# -- wrapping ---------------------------------------------------------------------


def test_wrap_unwrap_roundtrip_and_authentication():
    meter = CostMeter()
    kek, payload, other = SymKey(K0), SymKey(K1), SymKey(bytes([7]) * KEY_LEN)
    wrapped = wrap(kek, payload, meter, kek_id=42)
    assert wrapped.kek_id == 42
    assert unwrap(kek, wrapped) == payload
    with pytest.raises(UnwrapError):
        unwrap(other, wrapped)
    tampered = WrappedKey(ciphertext=bytes(len(wrapped.ciphertext)), kek_id=42)
    with pytest.raises(UnwrapError):
        unwrap(kek, tampered)


def test_cached_cipher_still_rejects_a_wrong_key():
    meter = CostMeter()
    kek, payload, other = SymKey(K0), SymKey(K1), SymKey(bytes([9]) * KEY_LEN)
    wrapped = wrap(kek, payload, meter, kek_id=1)
    assert unwrap(kek, wrapped) == payload  # the right key's cipher is cached now
    assert unwrap(kek, wrapped) == payload
    with pytest.raises(UnwrapError):
        unwrap(other, wrapped)
    with pytest.raises(UnwrapError):
        unwrap(other, wrapped)  # and again once the wrong key's cipher is cached
    assert unwrap(kek, wrapped) == payload


def test_cipher_cache_stays_within_its_bound():
    meter = CostMeter()
    payload = SymKey(K1)
    for i in range(CIPHER_CACHE_SIZE + 50):
        kek = SymKey(i.to_bytes(KEY_LEN, "big"))
        assert unwrap(kek, wrap(kek, payload, meter, kek_id=i)) == payload
    info = _cipher.cache_info()
    assert info.maxsize == CIPHER_CACHE_SIZE
    assert info.currsize <= CIPHER_CACHE_SIZE


def test_wrap_is_deterministic():
    meter = CostMeter()
    kek, payload = SymKey(K0), SymKey(K1)
    first = wrap(kek, payload, meter, kek_id="a")
    second = wrap(kek, payload, meter, kek_id="b")
    assert first.ciphertext == second.ciphertext
    assert len(first) == len(first.ciphertext)


def test_wrap_meters_encrypt_and_random_key_meters_keygen():
    meter = CostMeter()
    rng = Random(5)
    key = random_key(rng, meter)
    wrap(SymKey(K0), key, meter, kek_id=0)
    assert meter == CostMeter(keygen=1, encrypt=1)


def test_wrap_logs_its_wrapping_key_on_the_meter():
    meter = CostMeter(wrap_log={})
    kek, payload = SymKey(K0), SymKey(K1)
    wrapped = wrap(kek, payload, meter, kek_id=9)
    assert meter.encrypt == 1
    assert meter.wrap_log == {wrapped.ciphertext: kek.data}
    quiet = CostMeter()  # a meter without a log logs nothing
    wrap(kek, payload, quiet, kek_id=9)
    assert quiet.encrypt == 1 and quiet.wrap_log is None


def test_random_key_is_deterministic_per_seed():
    meter = CostMeter()
    assert random_key(Random(1), meter).data == random_key(Random(1), meter).data
    assert random_key(Random(1), meter).data != random_key(Random(2), meter).data


# -- golden vector machinery -------------------------------------------------------


def _reference_value(function: str, inputs: list[bytes]) -> bytes | None:
    if function == "derive":
        return ref.derive_reference(inputs[0])
    if function == "blind":
        return ref.blind_reference(inputs[0])
    if function == "mix":
        return ref.mix_reference(inputs[0], inputs[1])
    if function == "derive_with_code":
        return ref.derive_with_code_reference(inputs[0], inputs[1].decode("ascii"))
    return None  # wrap: pinned construction, no independent implementation


def test_vector_file_agrees_with_independent_reference():
    checked = 0
    for _line_no, name, inputs, expected in iter_golden_vectors(default_vector_text()):
        want = _reference_value(name, inputs)
        if want is None:
            continue
        assert expected == want, f"vector {name} disagrees with the reference digest"
        checked += 1
    assert checked >= 12


def test_wrap_vectors_decrypt_back_to_their_payloads():
    checked = 0
    for _line_no, name, inputs, expected in iter_golden_vectors(default_vector_text()):
        if name != "wrap":
            continue
        kek, payload = inputs
        got = unwrap(SymKey(kek), WrappedKey(ciphertext=expected, kek_id="vector"))
        assert got.data == payload
        checked += 1
    assert checked == 3


def test_verify_golden_vectors_all_ok():
    results = verify_golden_vectors()
    assert len(results) == 15
    assert all(r.ok for r in results)


def test_verify_golden_vectors_flags_corruption():
    text = default_vector_text()
    corrupted = text.replace("1a7dfdea", "deadbeef", 1)
    results = verify_golden_vectors(corrupted)
    bad = [r for r in results if not r.ok]
    assert len(bad) == 1
    assert bad[0].function == "derive"
    assert bad[0].expected.startswith("deadbeef")


def test_verify_golden_vectors_rejects_empty_text():
    with pytest.raises(ValueError):
        verify_golden_vectors("# nothing but comments\n")


def test_unknown_vector_function_rejected():
    with pytest.raises(ValueError):
        verify_golden_vectors(f"squash, {K0.hex()}, {K0.hex()}\n")

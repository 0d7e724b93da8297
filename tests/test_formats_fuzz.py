"""Every binary reader answers truncated or corrupt input with FormatError.

Small valid `.eegs`, `.eegd` and `.eglm` files are cut at every byte
offset, get one byte appended and have random bytes flipped. A reader may
return a value or raise FormatError, and nothing else: no MemoryError,
OverflowError, UnicodeDecodeError, IndexError, struct.error or plain
ValueError.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drowse import dataio, network
from drowse.binio import FormatError
from drowse.numerics import Rng

SMALL_NET = (2, 4)  # kernels and kernel length of a small model

READERS = {
    "eegs": dataio.read_session,
    "eegd": dataio.read_sampleset,
    "eglm": lambda path: network.load_params(path, *SMALL_NET),
}


def _write_valid(kind: str, path) -> None:
    rng = Rng(17)
    if kind == "eegs":
        events = np.array([[0.05, 0.1, 0.12], [0.2, 0.25, 0.3]])
        dataio.write_session(dataio.SessionRecord(500, rng.normal((200,)), events), path)
    elif kind == "eegd":
        data = rng.normal((3, dataio.SAMPLE_POINTS)).astype(np.float32)
        dataio.write_sampleset(dataio.SampleSet(data, [0, 1, 0], [1, 2, 3]), path)
    else:
        network.save_params(network.init_params(rng, *SMALL_NET), path)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (bytes of a valid file, scratch path for corrupted copies)."""
    directory = tmp_path_factory.mktemp("formats")
    out = {}
    for kind in READERS:
        path = directory / f"valid.{kind}"
        _write_valid(kind, path)
        out[kind] = (path.read_bytes(), directory / f"corrupt.{kind}")
    return out


def read_or_format_error(kind: str, raw: bytes, path) -> None:
    path.write_bytes(raw)
    try:
        READERS[kind](path)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_truncation_is_a_format_error(kind, valid):
    raw, path = valid[kind]
    path.write_bytes(raw)
    READERS[kind](path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            READERS[kind](path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_trailing_byte_is_a_format_error(kind, valid):
    raw, path = valid[kind]
    path.write_bytes(raw + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        READERS[kind](path)


flips = st.lists(st.tuples(st.integers(0, 2**31), st.integers(1, 255)), min_size=1, max_size=8)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(flips=flips)
def test_flipped_bytes_return_or_raise_format_error(kind, valid, flips):
    raw, path = valid[kind]
    corrupt = bytearray(raw)
    for pos, mask in flips:
        corrupt[pos % len(corrupt)] ^= mask
    read_or_format_error(kind, bytes(corrupt), path)


def test_eegd_huge_sample_count_is_truncation(tmp_path):
    path = tmp_path / "x.eegd"
    path.write_bytes(b"EEGD" + struct.pack("<IIII", 1, 0xFFFFFFFF, 384, 128))
    with pytest.raises(FormatError, match="truncated"):
        dataio.read_sampleset(path)


@pytest.mark.parametrize("n_points", [2**62, 2**42])
def test_eegs_huge_point_count_is_truncation(tmp_path, n_points):
    path = tmp_path / "x.eegs"
    path.write_bytes(b"EEGS" + struct.pack("<IIQ", 1, 500, n_points))
    with pytest.raises(FormatError, match="truncated"):
        dataio.read_session(path)


def test_eglm_undecodable_name_is_unknown(valid):
    raw, path = valid["eglm"]
    corrupt = bytearray(raw)
    corrupt[14] = 0xC3  # first byte of the first tensor name
    path.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="unknown tensor name"):
        READERS["eglm"](path)


def test_eegd_label_two_names_the_sample(valid):
    raw, path = valid["eegd"]
    corrupt = bytearray(raw)
    corrupt[20 + 1540 + 2] = 2  # label byte of sample 1
    path.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="sample 1 has invalid label 2"):
        dataio.read_sampleset(path)


def test_eegd_nan_value_is_format_error(valid):
    raw, path = valid["eegd"]
    corrupt = bytearray(raw)
    struct.pack_into("<f", corrupt, 20 + 4, float("nan"))
    path.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="non-finite"):
        dataio.read_sampleset(path)


@pytest.mark.parametrize("kind, offset", [
    ("eegs", 20),  # the first signal value
    ("eglm", 33),  # the first value of conv.w
])
def test_signalling_nan_is_format_error_and_nothing_else(valid, kind, offset):
    # Widening a signalling NaN to float64 raises numpy's "invalid" flag;
    # under an error filter that warning must not escape in place of FormatError.
    raw, path = valid[kind]
    corrupt = bytearray(raw)
    struct.pack_into("<I", corrupt, offset, 0x7F800001)
    path.write_bytes(bytes(corrupt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="non-finite"):
            READERS[kind](path)


def test_eegs_unsorted_events_are_format_error(valid):
    raw, path = valid["eegs"]
    corrupt = bytearray(raw)
    first_event = len(raw) - 2 * 24
    struct.pack_into("<d", corrupt, first_event, 0.21)  # after the second onset
    path.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="not sorted"):
        dataio.read_session(path)


@pytest.mark.parametrize("attr, name, value", [
    ("conv_w", "conv.w", float("nan")),
    ("lstm_w", "lstm.W_i", float("inf")),
    ("bn_run_var", "bn.run_var", float("nan")),
])
def test_eglm_non_finite_value_names_the_tensor(tmp_path, attr, name, value):
    params = network.init_params(Rng(17), *SMALL_NET)
    getattr(params, attr).flat[0] = value
    path = tmp_path / "x.eglm"
    network.save_params(params, path)
    with pytest.raises(FormatError, match=f"tensor '{name}' has non-finite values"):
        READERS["eglm"](path)

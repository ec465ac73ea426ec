"""Binary corpus codec: round trips, size arithmetic, format errors."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protocurate.errors import DegenerateVectorError, FormatError, UsageError
from protocurate.io import (
    HEADER_SIZE,
    MAGIC,
    Corpus,
    decode_corpus,
    encode_corpus,
    read_corpus,
    record_size,
    validate_corpus,
    write_corpus,
)
from protocurate.prototypes import PROTO_MAGIC, PrototypeBank, decode_bank, encode_bank
from protocurate.trainer import HEAD_MAGIC, decode_head, encode_head, init_head


def make_corpus(n, d_img, d_txt, n_labels=0, seed=0):
    rng = np.random.default_rng(seed)
    labels = None
    if n_labels:
        labels = rng.integers(0, 2, size=(n, n_labels)).astype(bool)
    return Corpus(
        ids=np.arange(n, dtype=np.uint64) * 7 + 3,
        img=rng.standard_normal((n, d_img)).astype(np.float32).astype(np.float64),
        txt=rng.standard_normal((n, d_txt)).astype(np.float32).astype(np.float64),
        labels=labels,
    )


class TestRoundTrip:
    def test_empty_corpus_is_header_only(self):
        corpus = Corpus(
            ids=np.zeros(0, dtype=np.uint64),
            img=np.zeros((0, 4)),
            txt=np.zeros((0, 4)),
        )
        data = encode_corpus(corpus)
        assert len(data) == HEADER_SIZE == 28
        back = decode_corpus(data)
        assert back.n == 0
        assert back.d_img == 4 and back.d_txt == 4

    def test_single_record_size(self):
        corpus = make_corpus(1, 2, 2)
        data = encode_corpus(corpus)
        assert len(data) == 28 + 8 + 16 == 52

    def test_record_size_with_labels(self):
        assert record_size(3, 5, 0) == 8 + 32
        assert record_size(3, 5, 1) == 8 + 32 + 1
        assert record_size(3, 5, 8) == 8 + 32 + 1
        assert record_size(3, 5, 9) == 8 + 32 + 2

    def test_bitwise_round_trip(self):
        corpus = make_corpus(37, 5, 3, n_labels=11, seed=2)
        back = decode_corpus(encode_corpus(corpus))
        assert np.array_equal(back.ids, corpus.ids)
        assert np.array_equal(back.img, corpus.img)
        assert np.array_equal(back.txt, corpus.txt)
        assert np.array_equal(back.labels, corpus.labels)

    def test_double_encode_stable(self):
        corpus = make_corpus(10, 4, 6, n_labels=3)
        once = encode_corpus(corpus)
        twice = encode_corpus(decode_corpus(once))
        assert once == twice

    def test_file_round_trip(self, tmp_path):
        corpus = make_corpus(12, 3, 4, n_labels=2)
        path = tmp_path / "c.emb"
        write_corpus(path, corpus)
        back = read_corpus(path)
        assert np.array_equal(back.img, corpus.img)
        assert np.array_equal(back.labels, corpus.labels)

    def test_decoded_corpus_does_not_alias_input(self):
        data = encode_corpus(make_corpus(3, 2, 2, n_labels=3))
        back = decode_corpus(data)
        buf = np.frombuffer(data, dtype=np.uint8)
        for arr in (back.ids, back.img, back.txt, back.labels):
            assert not np.shares_memory(arr, buf)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 16),
        d_img=st.integers(1, 9),
        d_txt=st.integers(1, 9),
        n_labels=st.integers(0, 17),
        seed=st.integers(0, 1000),
    )
    def test_round_trip_property(self, n, d_img, d_txt, n_labels, seed):
        corpus = make_corpus(n, d_img, d_txt, n_labels=n_labels, seed=seed)
        data = encode_corpus(corpus)
        assert len(data) == 28 + n * record_size(d_img, d_txt, n_labels)
        back = decode_corpus(data)
        assert np.array_equal(back.ids, corpus.ids)
        assert np.array_equal(back.img, corpus.img)
        assert np.array_equal(back.txt, corpus.txt)
        if n_labels:
            assert np.array_equal(back.labels, corpus.labels)
        else:
            assert back.labels is None


class TestFormatErrors:
    def test_bad_magic_names_field(self):
        data = bytearray(encode_corpus(make_corpus(2, 2, 2)))
        data[0] ^= 0xFF
        with pytest.raises(FormatError, match="magic"):
            decode_corpus(bytes(data))

    def test_bad_version_names_field_and_offset(self):
        data = bytearray(encode_corpus(make_corpus(2, 2, 2)))
        data[8] = 9
        with pytest.raises(FormatError, match="version") as err:
            decode_corpus(bytes(data))
        assert "offset 8" in str(err.value)

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="too short"):
            decode_corpus(b"XFIC")

    def test_truncated_body(self):
        data = encode_corpus(make_corpus(3, 2, 2))
        with pytest.raises(FormatError, match="bytes"):
            decode_corpus(data[:-1])

    def test_inflated_count(self):
        data = bytearray(encode_corpus(make_corpus(3, 2, 2)))
        data[12] = 200  # record count field
        with pytest.raises(FormatError):
            decode_corpus(bytes(data))


class TestValidation:
    def test_accepts_clean_corpus(self):
        validate_corpus(make_corpus(8, 3, 3, n_labels=2))

    def test_duplicate_ids(self):
        corpus = make_corpus(4, 2, 2)
        corpus.ids[2] = corpus.ids[0]
        with pytest.raises(UsageError, match="duplicate"):
            validate_corpus(corpus)

    def test_zero_vector_rejected_by_id(self):
        corpus = make_corpus(4, 2, 2)
        corpus.img[1] = 0.0
        with pytest.raises(DegenerateVectorError, match=str(int(corpus.ids[1]))):
            validate_corpus(corpus)

    def test_nonfinite_rejected(self):
        corpus = make_corpus(4, 2, 2)
        corpus.txt[3, 0] = np.nan
        with pytest.raises(DegenerateVectorError, match="txt"):
            validate_corpus(corpus)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(UsageError):
            Corpus(
                ids=np.arange(3, dtype=np.uint64),
                img=np.zeros((3, 2)),
                txt=np.zeros((2, 2)),
            )


# decoder -> (magic, number of u32 header fields, a valid encoding)
DECODERS = {
    "corpus": (decode_corpus, MAGIC, 5, encode_corpus(make_corpus(2, 2, 3, n_labels=9))),
    "bank": (decode_bank, PROTO_MAGIC, 2, encode_bank(PrototypeBank(protos=np.eye(3)[:2]))),
    "head": (decode_head, HEAD_MAGIC, 3, encode_head(init_head(2, 3, 2))),
}


def _mutate(valid: bytes, cut: int, at: int, xor: int) -> bytes:
    """A prefix of ``valid`` with one byte flipped."""
    blob = bytearray(valid[:cut])
    if blob:
        blob[at % len(blob)] ^= xor
    return bytes(blob)


def _fuzz_blobs(name: str):
    _, magic, n_fields, valid = DECODERS[name]
    small = st.integers(0, 3) | st.just(2**31) | st.just(2**32 - 1)
    framed = st.builds(
        lambda fields, body: magic + struct.pack(f"<{n_fields}I", *fields) + body,
        st.lists(small, min_size=n_fields, max_size=n_fields),
        st.binary(max_size=160),
    )
    mutated = st.builds(
        _mutate,
        st.just(valid),
        st.integers(0, len(valid)),
        st.integers(0, len(valid)),
        st.integers(0, 255),
    )
    return st.tuples(st.just(name), st.binary(max_size=40) | framed | mutated)


class TestDecoderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(case=st.sampled_from(sorted(DECODERS)).flatmap(_fuzz_blobs))
    @example(case=("corpus", MAGIC + struct.pack("<5I", 1, 0, 2**32 - 1, 0, 0)))
    @example(case=("bank", PROTO_MAGIC + struct.pack("<2I", 2**32 - 1, 0) + bytes(16)))
    @example(case=("bank", PROTO_MAGIC + struct.pack("<2IddQ", 1, 1, np.nan, 0.1, 0)))
    @example(case=("head", HEAD_MAGIC + struct.pack("<3I", 2**32 - 1, 0, 0) + bytes(8)))
    def test_decoders_return_or_raise_format_error(self, case):
        name, blob = case
        try:
            DECODERS[name][0](blob)
        except FormatError:
            pass

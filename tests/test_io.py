"""Binary corpus codec: round trips, size arithmetic, format errors; output commits."""

import os
import pathlib
import re
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import encode_records_direct, record_size
from protocurate.config import EngineConfig, load_config
from protocurate.errors import DegenerateVectorError, FormatError, ProtocurateError, UsageError
import protocurate
from protocurate import io, prototypes, trainer
from protocurate.io import (
    MAGIC,
    Corpus,
    commit_outputs,
    decode_corpus,
    encode_corpus,
    read_corpus,
    rows_for_ids,
    table_csv,
    validate_corpus,
)
from protocurate.curation import RECORD, CuratedSelection
from protocurate.prototypes import PROTO_MAGIC, PrototypeBank, decode_bank, encode_bank
from protocurate.synth import generate_corpus, prompts_json, read_prompts
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
        assert len(data) == 28
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
        commit_outputs([(path, encode_corpus(corpus))])
        back = read_corpus(path)
        assert np.array_equal(back.img, corpus.img)
        assert np.array_equal(back.labels, corpus.labels)

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_decoded_vectors_are_read_only_float32_views(self, kind):
        corpus = make_corpus(3, 2, 2, n_labels=3)
        data = kind(encode_corpus(corpus))
        back = decode_corpus(data)
        buf = np.frombuffer(data, dtype=np.uint8)
        for arr, encoded in ((back.img, corpus.img), (back.txt, corpus.txt)):
            assert arr.dtype == np.float32
            assert np.shares_memory(arr, buf)
            assert np.array_equal(arr, encoded)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        for arr in (back.ids, back.labels):
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


ENCODINGS = {
    "corpus-9-labels": lambda: encode_corpus(make_corpus(5, 3, 4, n_labels=9)),
    "corpus-no-labels": lambda: encode_corpus(make_corpus(4, 2, 6)),
    "corpus-empty": lambda: encode_corpus(make_corpus(0, 3, 2, n_labels=2)),
    "corpus-float32": lambda: encode_corpus(generate_corpus(EngineConfig(n_samples=300))[0]),
    "bank": lambda: encode_bank(PrototypeBank(np.arange(12.0).reshape(3, 4), 0.3, 17)),
    "head": lambda: encode_head(init_head(7, 5, 3, tau_init=0.01, seed=0)),
}


@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_encoders_match_the_direct_encoder(name, monkeypatch):
    """Every encoder's one-buffer file equals the joined-copies oracle's, byte for byte."""
    encoded = ENCODINGS[name]()
    for module in (io, prototypes, trainer):
        monkeypatch.setattr(module, "encode_records", encode_records_direct)
    direct = ENCODINGS[name]()
    assert isinstance(direct, bytes)
    assert isinstance(encoded, bytearray)
    assert encoded == direct


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

    def test_duplicate_message_names_the_smallest(self):
        # Unsorted ids with 90, 55 and 7 each held twice: the message names 7.
        corpus = make_corpus(9, 2, 2)
        corpus.ids[:] = [90, 55, 2**64 - 1, 7, 90, 12, 55, 7, 3]
        with pytest.raises(UsageError, match="^duplicate sample id 7 in corpus$"):
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

    def test_float32_extremes_accepted(self):
        # In float32 the first row's norm underflows to 0 and the second's
        # overflows; widened to float64 both are finite and nonzero.
        img = np.ones((3, 4), dtype=np.float32)
        img[0] = 1e-30
        img[1] = 3e38
        corpus = Corpus(ids=np.arange(3, dtype=np.uint64), img=img, txt=img[::-1])
        back = decode_corpus(encode_corpus(corpus))
        assert back.img.dtype == np.float32
        assert np.linalg.norm(back.img[0]) == 0.0
        validate_corpus(back)

    @pytest.mark.parametrize("half", ["img", "txt"])
    @pytest.mark.parametrize(
        "value, what", [(np.nan, "non-finite"), (np.inf, "non-finite"), (0.0, "all-zero")]
    )
    def test_defect_after_first_block_named_by_id(self, half, value, what):
        block = io._VALIDATE_ROWS
        corpus = make_corpus(2 * block + 7, 2, 2)
        row = block + 5
        getattr(corpus, half)[row] = value
        back = decode_corpus(encode_corpus(corpus))
        with pytest.raises(
            DegenerateVectorError,
            match=f"^sample id {int(corpus.ids[row])} has {what} {half} vector$",
        ):
            validate_corpus(back)

    def test_non_finite_row_named_before_earlier_zero_row(self):
        block = io._VALIDATE_ROWS
        corpus = make_corpus(2 * block + 7, 2, 2)
        corpus.img[3] = 0.0
        corpus.img[2 * block + 1, 1] = -np.inf
        with pytest.raises(
            DegenerateVectorError,
            match=f"sample id {int(corpus.ids[2 * block + 1])} has non-finite img",
        ):
            validate_corpus(decode_corpus(encode_corpus(corpus)))

    def test_first_of_two_zero_rows_named(self):
        block = io._VALIDATE_ROWS
        corpus = make_corpus(2 * block + 7, 2, 2)
        corpus.txt[block + 5] = 0.0
        corpus.txt[2 * block + 1] = 0.0
        with pytest.raises(
            DegenerateVectorError,
            match=f"sample id {int(corpus.ids[block + 5])} has all-zero txt",
        ):
            validate_corpus(decode_corpus(encode_corpus(corpus)))

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda c: c.img.__setitem__((3, 1), np.nan), DegenerateVectorError,
             "sample id 24 has non-finite img vector"),
            (lambda c: c.txt.__setitem__(1, 0.0), DegenerateVectorError,
             "sample id 10 has all-zero txt vector"),
            (lambda c: c.ids.__setitem__(4, 17), UsageError, "duplicate sample id 17 in corpus"),
        ],
        ids=["nan-img", "zero-txt", "duplicate-id"],
    )
    def test_read_corpus_refuses_what_decode_corpus_returns(
        self, tmp_path, edit, error, message
    ):
        corpus = make_corpus(6, 2, 3, n_labels=2)  # ids 3, 10, 17, 24, ...
        edit(corpus)
        data = encode_corpus(corpus)
        path = tmp_path / "c.emb"
        commit_outputs([(path, data)])
        with pytest.raises(error, match=f"^corpus file {re.escape(str(path))}: {message}$"):
            read_corpus(path)
        back = decode_corpus(bytes(data))
        assert np.array_equal(back.ids, corpus.ids)
        assert np.array_equal(back.img, corpus.img, equal_nan=True)
        assert np.array_equal(back.txt, corpus.txt)

    def test_read_corpus_names_the_file_of_a_format_error(self, tmp_path):
        data = encode_corpus(make_corpus(4, 2, 2))
        path = tmp_path / "c.emb"
        path.write_bytes(bytes(data[:-1]))
        with pytest.raises(
            FormatError, match=f"^corpus file {re.escape(str(path))}: header .* file has"
        ) as info:
            read_corpus(path)
        assert info.value.offset == len(data) - 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(UsageError):
            Corpus(
                ids=np.arange(3, dtype=np.uint64),
                img=np.zeros((3, 2)),
                txt=np.zeros((2, 2)),
            )


class TestRowsForIds:
    def test_ids_come_back_in_order(self):
        haystack = np.array([40, 10, 30, 20, 50], dtype=np.uint64)
        np.testing.assert_array_equal(rows_for_ids(haystack, [20, 40, 50, 10]), [3, 0, 4, 1])

    def test_missing_id_named(self):
        haystack = np.array([40, 10, 30], dtype=np.uint64)
        with pytest.raises(UsageError, match="^sample id 999999 not present in corpus$"):
            rows_for_ids(haystack, [30, 999999])


def test_read_and_validate_hold_one_copy_of_the_file(tmp_path):
    corpus, _ = generate_corpus(EngineConfig())  # 20k rows of 32+32 dims
    path = tmp_path / "corpus.emb"
    commit_outputs([(path, encode_corpus(corpus))])
    size = path.stat().st_size
    del corpus
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_corpus(path)
        validate_corpus(back)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.n == 20_000
    assert peak - base < 2.5 * size
    assert held - base < 1.5 * size


# decoder -> (magic, number of u32 header fields, a valid encoding)
DECODERS = {
    "corpus": (decode_corpus, MAGIC, 5, encode_corpus(make_corpus(2, 2, 3, n_labels=9))),
    "bank": (decode_bank, PROTO_MAGIC, 2, encode_bank(PrototypeBank(np.eye(3)[:2], ema_alpha=0.1))),
    "head": (decode_head, HEAD_MAGIC, 3, encode_head(init_head(2, 3, 2, tau_init=0.01, seed=0))),
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


_SELECTED = make_corpus(3, 2, 3, n_labels=2)  # ids 3, 10, 17
# What each reader's errors call its file -> (the reader, a valid file).
READERS = {
    "corpus": (read_corpus, encode_corpus(_SELECTED)),
    "head": (trainer.load_head, encode_head(init_head(2, 3, 2, tau_init=0.01, seed=0))),
    "selection": (
        lambda path: CuratedSelection.read_csv(path, _SELECTED),
        CuratedSelection(np.array([(0, 10, 1, "fps", 0, 0.5)], dtype=RECORD)).to_csv().encode(),
    ),
    "prompts": (read_prompts, prompts_json(np.eye(2), -np.eye(2)).encode()),
    "config": (load_config, b"# engine\nK = 4\nclusters = 2\ncluster_weights = 0.6, 0.4\n"),
}


def _reader_files(name: str):
    valid = READERS[name][1]
    mutated = st.builds(
        _mutate,
        st.just(valid),
        st.integers(0, len(valid)),
        st.integers(0, len(valid)),
        st.integers(0, 255),
    )
    return st.tuples(st.just(name), st.binary(max_size=60) | mutated)


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


class TestReaderFuzz:
    """Each reader returns, or raises an engine error that names its file."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(READERS)).flatmap(_reader_files))
    @example(case=("config", b"\xff\xfe\x00"))
    @example(case=("selection", b"\xff\xfe\x00"))
    @example(case=("prompts", b"\xff\xfe\x00"))
    @example(case=("prompts", b"[" * 200_000))
    @example(case=("config", b"# engine\nK = 4\nx = 1\n"))
    def test_reader_returns_or_names_the_file(self, reader_dir, case):
        name, blob = case
        path = reader_dir / name
        path.write_bytes(blob)
        try:
            READERS[name][0](path)
        except ProtocurateError as exc:
            assert str(exc).startswith(f"{name} file {path}: ")

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_valid_file_reads(self, reader_dir, name):
        path = reader_dir / name
        path.write_bytes(READERS[name][1])
        READERS[name][0](path)


class TestInputFile:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"\xffabc")
        return path

    def test_yields_the_bytes(self, path):
        with io.input_file(path, "thing") as data:
            assert data == b"\xffabc"

    def test_format_error_keeps_its_offset(self, path):
        with pytest.raises(FormatError) as info:
            with io.input_file(path, "thing"):
                raise FormatError("bad byte", offset=7)
        assert str(info.value) == f"thing file {path}: bad byte (at byte offset 7)"
        assert info.value.offset == 7

    def test_degenerate_vector_error_keeps_row_and_kind(self, path):
        with pytest.raises(DegenerateVectorError) as info:
            with io.input_file(path, "thing"):
                raise DegenerateVectorError("row 2 is all-zero", row=2, kind="all-zero")
        assert str(info.value) == f"thing file {path}: row 2 is all-zero"
        assert (info.value.row, info.value.kind) == (2, "all-zero")

    def test_text_not_utf8_is_a_format_error(self, path):
        with pytest.raises(FormatError) as info:
            with io.input_file(path, "thing") as data:
                data.decode("utf-8")
        assert str(info.value) == f"thing file {path}: not UTF-8 text"
        assert info.value.offset is None

    def test_other_error_passes_unprefixed(self, path):
        with pytest.raises(KeyError) as info:
            with io.input_file(path, "thing"):
                raise KeyError("k")
        assert info.value.args == ("k",)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        path = tmp_path / "absent"
        with pytest.raises(FileNotFoundError) as info:
            with io.input_file(path, "thing"):
                pytest.fail("the block ran without a file")
        assert str(info.value.filename) == str(path)


class TestCommitOutputs:
    @staticmethod
    def listing(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    def test_text_and_bytes(self, tmp_path):
        text = "line 1\nline \u00e9\n"
        commit_outputs([(tmp_path / "a.txt", text), (tmp_path / "b.bin", b"\x00\xff")])
        assert (tmp_path / "a.txt").read_bytes() == text.encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert self.listing(tmp_path) == ["a.txt", "b.bin"]

    def test_replaces_existing_target(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old contents, longer than the new")
        commit_outputs([(tmp_path / "a", b"new")])
        assert (tmp_path / "a").read_bytes() == b"new"
        assert self.listing(tmp_path) == ["a"]

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("failure", ["missing-dir", "bad-data"])
    def test_failure_on_kth_file_changes_nothing(self, tmp_path, k, failure):
        names = ["a", "b", "c"]
        for name in names[::2]:
            (tmp_path / name).write_bytes(f"old {name}".encode())
        pairs = [(tmp_path / name, f"new {name}") for name in names]
        if failure == "missing-dir":
            pairs[k] = (tmp_path / "nodir" / "x", "new x")
            with pytest.raises(FileNotFoundError) as info:
                commit_outputs(pairs)
            assert info.value.filename == str(tmp_path / "nodir" / "x")
            assert ".tmp" not in str(info.value)
        else:
            pairs[k] = (pairs[k][0], 3.5)
            with pytest.raises(TypeError):
                commit_outputs(pairs)
        assert self.listing(tmp_path) == ["a", "c"]
        assert (tmp_path / "a").read_bytes() == b"old a"
        assert (tmp_path / "c").read_bytes() == b"old c"

    def test_interrupt_before_replace_changes_nothing(self, tmp_path, monkeypatch):
        (tmp_path / "a").write_bytes(b"old a")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            commit_outputs([(tmp_path / "a", b"new a"), (tmp_path / "b", b"new b")])
        monkeypatch.undo()
        assert self.listing(tmp_path) == ["a"]
        assert (tmp_path / "a").read_bytes() == b"old a"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            commit_outputs([(tmp_path / "committed", "x")])
            with open(tmp_path / "opened", "w") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "committed").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "opened").stat().st_mode) == 0o666 & ~umask

    def test_replaced_target_keeps_its_mode(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old a")
        os.chmod(tmp_path / "a", 0o600)
        commit_outputs([(tmp_path / "a", b"new a")])
        assert stat.S_IMODE((tmp_path / "a").stat().st_mode) == 0o600
        assert (tmp_path / "a").read_bytes() == b"new a"

    def test_symlinked_target_written_through(self, tmp_path):
        (tmp_path / "real").write_bytes(b"old")
        (tmp_path / "link").symlink_to(tmp_path / "real")
        commit_outputs([(tmp_path / "link", b"new")])
        assert (tmp_path / "link").is_symlink()
        assert (tmp_path / "real").read_bytes() == b"new"
        assert self.listing(tmp_path) == ["link", "real"]

    @pytest.mark.parametrize("alias", ["same", "dot", "symlink"])
    def test_two_paths_one_file(self, tmp_path, alias):
        (tmp_path / "d").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "d")
        first = tmp_path / "d" / "x"
        second = {
            "same": first,
            "dot": tmp_path / "d" / "." / "x",
            "symlink": tmp_path / "link" / "x",
        }[alias]
        with pytest.raises(UsageError, match="name the same file"):
            commit_outputs([(first, "one"), (tmp_path / "y", "two"), (second, "three")])
        assert self.listing(tmp_path) == ["d", "link"]

    def test_directory_target(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            commit_outputs([(tmp_path / "a", "one"), (tmp_path / "d", "two")])
        assert info.value.filename == str(tmp_path / "d")
        assert self.listing(tmp_path) == ["d"]

    def test_none_paths_skipped(self, tmp_path):
        commit_outputs([(tmp_path / "a", "one"), (None, None)])
        assert self.listing(tmp_path) == ["a"]

    def test_stale_temp_of_same_pid_does_not_block(self, tmp_path):
        stale = tmp_path / f"a.{os.getpid()}.tmp"
        stale.write_bytes(b"left by a killed run")
        commit_outputs([(tmp_path / "a", b"new a")])
        assert (tmp_path / "a").read_bytes() == b"new a"
        assert stale.read_bytes() == b"left by a killed run"
        assert self.listing(tmp_path) == ["a", stale.name]

    @staticmethod
    def read_fifo(path):
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
        reader.start()
        return reader, received

    def test_fifo_target_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader, received = self.read_fifo(fifo)
        commit_outputs([(fifo, "one "), (tmp_path / "a", b"new a"), (fifo, b"two")])
        reader.join(timeout=10)
        assert received == [b"one two"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert (tmp_path / "a").read_bytes() == b"new a"
        assert self.listing(tmp_path) == ["a", "fifo"]

    def test_fifo_gets_nothing_when_a_file_fails(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader, received = self.read_fifo(fifo)
        with pytest.raises(FileNotFoundError):
            commit_outputs([(fifo, "one"), (tmp_path / "nodir" / "x", "x")])
        reader.join(timeout=10)
        assert received == [b""]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert self.listing(tmp_path) == ["fifo"]


class TestTableCsv:
    def test_largest_uint64_id(self):
        ids = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert table_csv({"id": ids}, {"id": "%d"}) == "id\n0\n18446744073709551615\n"

    def test_repr_is_pythons(self):
        values = np.array([5e-324, 0.1, 1e16])
        text = table_csv({"x": values}, {"x": "%r"})
        assert text == "x\n5e-324\n0.1\n1e+16\n"
        assert text.splitlines()[1:] == [repr(v) for v in values.tolist()]

    def test_nine_significant_digits(self):
        text = table_csv({"x": np.array([1e-05, 1 / 3, 2.0])}, {"x": "%.9g"})
        assert text == "x\n1e-05\n0.333333333\n2\n"

    def test_zero_rows_is_the_header_only(self):
        empty = np.zeros(0, dtype=RECORD)
        assert table_csv(empty, {"id": "%d", "distance": "%r"}) == "id,distance\n"

    def test_text_cell_holding_percent(self):
        table = {"name": ["100%", "%d%s%%"], "n": np.array([1, 2])}
        assert table_csv(table, {"name": "%s", "n": "%d"}) == "name,n\n100%,1\n%d%s%%,2\n"

    def test_nan_is_an_empty_cell(self):
        table = {"a": np.array([0.5, np.nan]), "b": np.array([np.nan, 0.25])}
        assert table_csv(table, {"a": "%.9g", "b": "%.9g"}) == "a,b\n0.5,\n,0.25\n"

    def test_literal_text_in_a_format(self):
        assert table_csv({"c": np.arange(2)}, {"c": "class_%d"}) == "c\nclass_0\nclass_1\n"

    def test_structured_columns_in_format_order(self):
        records = np.zeros(2, dtype=RECORD)
        records["id"], records["proto"] = [7, 8], [1, 0]
        assert table_csv(records, {"proto": "%d", "id": "%d"}) == "proto,id\n1,7\n0,8\n"

    def test_selection_edge_values_read_back_bit_for_bit(self, tmp_path):
        ids = np.array([2**64 - 1, 1, 2, 3], dtype=np.uint64)
        corpus = Corpus(ids=ids, img=np.eye(4), txt=np.eye(4))
        records = np.zeros(4, dtype=RECORD)
        records["row"] = [3, 0, 2, 1]
        records["id"] = ids[records["row"]]
        records["iteration"] = 1
        records["reason"] = "fps"
        records["distance"] = [5e-324, 0.1, 1e16, 1e-05]
        path = tmp_path / "sel.csv"
        commit_outputs([(path, CuratedSelection(records).to_csv())])
        back = CuratedSelection.read_csv(path, corpus).records
        assert back.tobytes() == records.tobytes()


def test_only_io_opens_files_for_writing():
    """``io.commit_outputs`` is the library's single output path."""
    package = pathlib.Path(protocurate.__file__).parent
    # open( with a write/append/create mode, one level of nested calls allowed
    writer = re.compile(r"""\bopen\((?:[^()]|\([^()]*\))*?["'][wax]b?\+?["']|\bos\.open\(""")
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "io.py":
            continue
        text = path.read_text()
        offenders += [f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
                      for m in writer.finditer(text)]
    assert offenders == []

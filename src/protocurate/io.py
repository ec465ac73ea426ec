"""Binary corpus format: streaming-friendly fixed-record layout.

Layout (all little-endian):

    header  "XFICEMB1" | version u32 | count u32 | d_img u32 | d_txt u32 | n_labels u32
    record  id u64 | d_img float32 | d_txt float32 | ceil(n_labels/8) label bytes

Label bits are packed LSB-first within each byte.  Vectors are stored in
32-bit precision.  Decode keeps them as read-only float32 views of the
file's records, one copy the size of the file, and each consumer widens the
rows it uses to float64, which is exact; encode casts through float32, so
decode(encode(x)) is bitwise-stable for any x.

The prototype and head checkpoints use the same codec: a magic tag, u32
header fields, then fixed records described by one numpy structured dtype.

Every CSV the engine writes is a table: named columns and one printf format
per column, formatted by ``table_csv``.  Every file the engine reads goes
through ``input_file``, whose errors name the file, as every file it writes
goes through ``commit_outputs``, which writes a command's outputs all or nothing.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .embedding import check_directions
from .errors import DegenerateVectorError, FormatError, ProtocurateError, UsageError

MAGIC = b"XFICEMB1"
VERSION = 1
HEADER_FIELDS = ("version", "count", "d_img", "d_txt", "n_labels")
# numpy keeps a structured dtype's itemsize and subarray dims in a C int.
_MAX_DTYPE_SIZE = 2**31 - 1
# validate_corpus widens this many rows at a time to float64.
_VALIDATE_ROWS = 8192


@dataclass
class Corpus:
    """In-memory paired-embedding corpus.

    ids are uint64 and unique; img/txt are float32 or float64 row matrices
    (a decoded corpus holds read-only float32 views of the file's records;
    any other dtype is widened to float64); labels is a boolean
    (n, n_labels) matrix or None when the corpus carries no labels.
    """

    ids: np.ndarray
    img: np.ndarray
    txt: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.uint64)
        self.img = _vectors(self.img)
        self.txt = _vectors(self.txt)
        if self.img.ndim != 2 or self.txt.ndim != 2:
            raise UsageError("corpus vectors must be 2-D (n, d) arrays")
        if not (len(self.ids) == len(self.img) == len(self.txt)):
            raise UsageError("ids, img, and txt must have matching lengths")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=bool)
            if self.labels.ndim != 2 or len(self.labels) != len(self.ids):
                raise UsageError("labels must be a (n, n_labels) boolean matrix")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def d_img(self) -> int:
        return self.img.shape[1]

    @property
    def d_txt(self) -> int:
        return self.txt.shape[1]

    @property
    def n_labels(self) -> int:
        return 0 if self.labels is None else self.labels.shape[1]


def _vectors(mat) -> np.ndarray:
    """``mat`` as is when float32 or float64, else widened to float64."""
    mat = np.asarray(mat)
    return mat if mat.dtype in (np.float32, np.float64) else mat.astype(np.float64)


def _layout_size(layout) -> int:
    """Bytes of one record of ``layout``: (name, base dtype, shape) fields, packed."""
    return sum(np.dtype(base).itemsize * math.prod(shape) for _, base, shape in layout)


def encode_records(magic: bytes, header: tuple[int, ...], layout_of, values: dict) -> bytearray:
    """``magic``, the u32 ``header`` fields, then the records ``layout_of`` gives,
    built in one zeroed buffer, which is returned: a bytes-like object.

    ``layout_of`` maps the header values to (record count, record layout).
    ``values`` maps field names to arrays broadcast into the records and
    cast to the field dtype; fields it leaves out are zero.
    """
    count, layout = layout_of(*header)
    dtype = np.dtype(layout)
    head = magic + struct.pack(f"<{len(header)}I", *header)
    out = bytearray(len(head) + count * dtype.itemsize)
    out[: len(head)] = head
    records = np.frombuffer(out, dtype=dtype, count=count, offset=len(head))
    for name, value in values.items():
        records[name] = value
    return out


def decode_records(
    data: bytes, magic: bytes, fields: tuple[str, ...], layout_of, version: int | None = None
) -> tuple[tuple[int, ...], np.ndarray]:
    """Check a binary artifact's header and size; return its header and records.

    The header is ``magic`` then one u32 per name in ``fields``; when
    ``version`` is given the first of them must equal it.  ``layout_of``
    maps the header values to (record count, record layout).  Sizes are
    checked in Python ints before any dtype is built, so no header value
    can overflow them.  The records are a read-only view of ``data``, so
    they keep it alive.
    """
    header_size = len(magic) + 4 * len(fields)
    if len(data) < header_size:
        raise FormatError(
            f"file too short for header: {len(data)} bytes < {header_size}", offset=0
        )
    if data[: len(magic)] != magic:
        raise FormatError(f"bad magic {bytes(data[: len(magic)])!r}, expected {magic!r}", offset=0)
    header = struct.unpack_from(f"<{len(fields)}I", data, len(magic))
    if version is not None and header[0] != version:
        raise FormatError(
            f"unsupported version {header[0]}, expected {version}", offset=len(magic)
        )
    count, layout = layout_of(*header)
    record = _layout_size(layout)
    expected = header_size + count * record
    described = ", ".join(f"{name}={value}" for name, value in zip(fields, header))
    if len(data) != expected:
        raise FormatError(
            f"header ({described}) implies {expected} bytes, file has {len(data)}",
            offset=min(len(data), expected),
        )
    if max([record, *(dim for _, _, shape in layout for dim in shape)]) > _MAX_DTYPE_SIZE:
        raise FormatError(f"header ({described}) exceeds the {_MAX_DTYPE_SIZE}-byte record limit")
    records = np.frombuffer(data, dtype=np.dtype(layout), count=count, offset=header_size)
    records.flags.writeable = False
    return header, records


def _corpus_layout(version: int, n: int, d_img: int, d_txt: int, n_labels: int):
    labels = ("labels", "u1", ((n_labels + 7) // 8,))
    return n, [("id", "<u8", ()), ("img", "<f4", (d_img,)), ("txt", "<f4", (d_txt,)), labels]


def encode_corpus(corpus: Corpus) -> bytearray:
    """Serialize a corpus to the binary format, as a bytes-like buffer."""
    values = {"id": corpus.ids, "img": corpus.img, "txt": corpus.txt}
    if corpus.labels is not None:
        values["labels"] = np.packbits(corpus.labels, axis=1, bitorder="little")
    header = (VERSION, corpus.n, corpus.d_img, corpus.d_txt, corpus.n_labels)
    return encode_records(MAGIC, header, _corpus_layout, values)


def decode_corpus(data: bytes) -> Corpus:
    """Parse the binary format into a Corpus whose img/txt are read-only
    float32 views of ``data``'s records; ids and labels are copied out.
    Only the format is checked; ``read_corpus`` also checks the rows."""
    header, rec = decode_records(data, MAGIC, HEADER_FIELDS, _corpus_layout, version=VERSION)
    n_labels = header[-1]
    labels = None
    if n_labels:
        labels = np.unpackbits(rec["labels"], axis=1, count=n_labels, bitorder="little")
    return Corpus(ids=rec["id"].copy(), img=rec["img"], txt=rec["txt"], labels=labels)


@contextlib.contextmanager
def input_file(path, what: str):
    """Yield the bytes of the file at ``path``, read once.  An engine error
    raised in the block keeps its class and attributes and gains the prefix
    ``<what> file <path>: ``; text in it that is not UTF-8 is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        yield data
    except UnicodeDecodeError:
        raise FormatError(f"{what} file {path}: not UTF-8 text") from None
    except ProtocurateError as exc:
        exc.args = (f"{what} file {path}: {exc}",)
        raise


def text_lines(text: str) -> list[str]:
    """The lines of a text file, split at "\n" alone and each without a final
    "\r": a CRLF file reads as LF, and no other character ends a line."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def read_corpus(path) -> Corpus:
    """The corpus file at ``path``, decoded and checked by ``validate_corpus``."""
    with input_file(path, "corpus") as data:
        corpus = decode_corpus(data)
        validate_corpus(corpus)
    return corpus


def validate_corpus(corpus: Corpus) -> None:
    """Ingest-time checks beyond format validity: duplicate ids, the smallest
    named, and embedding halves without a direction, named by sample id as
    ``check_directions`` picks them (the codec round-trips such records, but no
    stage accepts them).

    Squared norms are taken on rows widened to float64 a block at a time, so
    a float32 row whose float32 norm underflows still counts as nonzero.
    """
    ids = np.sort(corpus.ids)
    same = ids[1:] == ids[:-1]
    if same.any():
        raise UsageError(f"duplicate sample id {int(ids[np.argmax(same)])} in corpus")
    for name, mat in (("img", corpus.img), ("txt", corpus.txt)):
        sq = np.empty(corpus.n)
        for start in range(0, corpus.n, _VALIDATE_ROWS):
            block = np.asarray(mat[start : start + _VALIDATE_ROWS], dtype=np.float64)
            np.einsum("ij,ij->i", block, block, out=sq[start : start + _VALIDATE_ROWS])
        try:
            check_directions(mat, sq)
        except DegenerateVectorError as exc:
            bad = int(corpus.ids[exc.row])
            raise DegenerateVectorError(f"sample id {bad} has {exc.kind} {name} vector") from None


def rows_for_ids(haystack_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each of ``ids`` in the unique ``haystack_ids``, in ``ids`` order."""
    haystack_ids = np.asarray(haystack_ids, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.uint64)
    order = np.argsort(haystack_ids, kind="stable")
    pos = np.searchsorted(haystack_ids[order], ids)
    found = pos < len(order)
    found[found] = haystack_ids[order[pos[found]]] == ids[found]
    if not found.all():
        raise UsageError(f"sample id {int(ids[np.argmin(found)])} not present in corpus")
    return order[pos]


def table_csv(table, formats: dict[str, str]) -> str:
    """CSV text of ``table``: a header naming the columns of ``formats``, then
    one line per row, each cell in its column's printf format.

    ``table`` is a structured array or a dict of equal-length columns, read
    by name.  The cells are Python values (``tolist``), so ``%r`` writes a
    float's shortest exact repr, and all lines come from one ``%``.  A NaN
    cell, an undefined value, is an empty field.
    """
    columns, line = [], []
    for name, fmt in formats.items():
        column = np.asarray(table[name])
        values = column.tolist()
        if column.dtype.kind == "f" and np.isnan(column).any():
            values, fmt = ["" if math.isnan(v) else fmt % v for v in values], "%s"
        columns.append(values)
        line.append(fmt)
    cells = tuple(itertools.chain.from_iterable(zip(*columns, strict=True)))
    return ",".join(formats) + "\n" + ((",".join(line) + "\n") * len(columns[0])) % cells


def _is_stream(path) -> bool:
    """True for an existing device, FIFO or socket, such as ``/dev/null``."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return not stat.S_ISREG(mode)


def check_outputs(paths) -> None:
    """Raise before any file is opened: a UsageError if two of ``paths`` name
    one file (a stream may repeat), an IsADirectoryError for a directory."""
    files: dict[str, str] = {}  # resolved target -> the path as given
    for path in paths:
        if path is None or _is_stream(path):
            continue
        real = os.path.realpath(path)
        if real in files:
            raise UsageError(f"outputs {files[real]} and {path} name the same file")
        files[real] = str(path)


def _open_output(path, flags: int, shown):
    try:
        return open(os.open(path, flags, 0o666), "wb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(shown)) from None


def commit_outputs(pairs: list[tuple[str | None, bytes | str | None]]) -> None:
    """Write each (path, bytes or text) pair whose path is not None: all or none.

    After ``check_outputs``, each file is written to a temp file beside its
    target (the file the path names after symlinks), and the temps replace
    their targets only once every one is written; on any failure the temps
    are removed.  A new file gets the mode ``open(path, "w")`` would give it;
    a replaced one keeps its mode but loses its hard links and owner.  A
    stream cannot be replaced: it is opened with the files and written after
    them, and cannot take them back if that write fails.  Text is UTF-8.
    """
    pairs = [(path, data) for path, data in pairs if path is not None]
    check_outputs(path for path, _ in pairs)
    temps: list[tuple[str, str]] = []  # (temp, target)
    streams = []  # (open stream, data)
    try:
        for path, data in pairs:
            data = data.encode("utf-8") if isinstance(data, str) else data
            if _is_stream(path):
                streams.append((_open_output(path, os.O_WRONLY, path), data))
                continue
            real = os.path.realpath(path)
            temp = f"{real}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            with _open_output(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, path) as fh:
                temps.append((temp, real))
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(real).st_mode))
                fh.write(data)
        for temp, real in temps:
            os.replace(temp, real)
        for fh, data in streams:
            with fh:
                fh.write(data)
    except BaseException:
        for temp, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        raise
    finally:
        for fh, _ in streams:
            fh.close()

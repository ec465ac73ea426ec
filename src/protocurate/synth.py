"""Seeded long-tailed synthetic paired-embedding corpora.

Samples are drawn from a Gaussian mixture on the image side; the text side
is a noisy linear image of the same vector, with alignment strength rho
interpolating between perfectly paired (rho=1) and independent noise
(rho=0).  Class labels are the one-hot mixture component, with weights
skewed so one head class dominates, mimicking the frequency profile of a
long-tailed clinical corpus.
"""

from __future__ import annotations

import json

import numpy as np

from .config import EngineConfig
from .embedding import NO_DIRECTION, check_directions, normalize_rows
from .errors import DegenerateVectorError, FormatError
from .io import Corpus, input_file

# Rows per block of generate_corpus's draws and arithmetic: a block's float64
# scratch stays small, 1 MB at 128 dims.
GEN_ROWS = 1024


def manifest_json(cfg: EngineConfig) -> str:
    """The corpus sidecar: every config value `generate_corpus` reads, as JSON text."""
    manifest = {
        "n_samples": cfg.n_samples,
        "clusters": cfg.clusters,
        "weights": list(cfg.resolved_weights()),
        "d_img": cfg.d_img,
        "d_txt": cfg.d_txt,
        "rho": cfg.rho,
        "noise_scale": cfg.noise_scale,
        "mean_scale": cfg.mean_scale,
        "seed": cfg.seed,
    }
    return json.dumps(manifest, indent=2) + "\n"


def _alignment_map(cfg: EngineConfig, rng: np.random.Generator) -> np.ndarray:
    """Text-side linear map A (d_txt x d_img).

    Identity when the dimensions match, so an untrained identity head sees
    the text side as a noisy copy of the image side; otherwise a random
    orthonormal-row map (partial isometry), preserving distances as far as
    the smaller dimension allows.
    """
    if cfg.d_img == cfg.d_txt:
        return np.eye(cfg.d_img)
    gauss = rng.standard_normal((max(cfg.d_img, cfg.d_txt), max(cfg.d_img, cfg.d_txt)))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))[None, :]
    return q[: cfg.d_txt, : cfg.d_img]


def generate_corpus(cfg: EngineConfig) -> tuple[Corpus, tuple[np.ndarray, np.ndarray]]:
    """Draw the corpus; returns (corpus, (positive, negative) prompt embeddings).

    The vectors are float32, as ``io.decode_corpus`` returns them, so the
    returned corpus equals a round trip through the binary format in value
    and dtype, and in-memory use and file use agree exactly.

    The draws are those of one (n, d_img) image-noise array, then one
    (n, d_txt) text-noise array, made GEN_ROWS rows at a time: a block of
    ``standard_normal`` draws is the next stretch of the one big draw, so the
    values and the generator's end state are the same.  Besides the float32
    halves, only the float64 image side (the text side is computed from it)
    and one block of each kind of scratch are held.  When d_img == d_txt the
    alignment map is the identity and its product is skipped: x 1 plus exact
    zeros is x, up to the sign of a zero, which the added noise term absorbs.

    The prompts come from the same class means and alignment map and draw
    nothing: positive[c] is the normalized text image of class c's mean and
    negative[c] the normalized mean of the other classes' positives (the
    negated positive when there is one class).  Both are (C, d_txt), unit rows.
    """
    rng = np.random.default_rng(cfg.seed)
    means = rng.standard_normal((cfg.clusters, cfg.d_img)) * cfg.mean_scale
    amap = _alignment_map(cfg, rng)

    n = cfg.n_samples
    weights = np.asarray(cfg.resolved_weights())
    assign = rng.choice(cfg.clusters, size=n, p=weights)
    img64 = np.empty((n, cfg.d_img))
    img = np.empty((n, cfg.d_img), dtype=np.float32)
    txt = np.empty((n, cfg.d_txt), dtype=np.float32)
    for start in range(0, n, GEN_ROWS):
        rows = slice(start, min(start + GEN_ROWS, n))
        noise = rng.standard_normal((rows.stop - start, cfg.d_img))
        # means[assign] + noise_scale * noise, the products first
        np.multiply(noise, cfg.noise_scale, out=noise)
        np.add(means[assign[rows]], noise, out=img64[rows])
        img[rows] = img64[rows]
    for start in range(0, n, GEN_ROWS):
        rows = slice(start, min(start + GEN_ROWS, n))
        noise = rng.standard_normal((rows.stop - start, cfg.d_txt))
        # rho * (img @ amap.T) + (1 - rho) * noise, the products first
        aligned = img64[rows] if cfg.d_img == cfg.d_txt else img64[rows] @ amap.T
        aligned = np.multiply(aligned, cfg.rho)
        np.multiply(noise, 1.0 - cfg.rho, out=noise)
        txt[rows] = np.add(aligned, noise, out=aligned)

    labels = np.zeros((n, cfg.clusters), dtype=bool)
    labels[np.arange(n), assign] = True
    corpus = Corpus(ids=np.arange(n, dtype=np.uint64), img=img, txt=txt, labels=labels)

    positive = normalize_rows(means @ amap.T)
    if cfg.clusters == 1:
        negative = -positive
    else:
        negative = normalize_rows((positive.sum(axis=0) - positive) / (cfg.clusters - 1))
    return corpus, (positive, negative)


def prompts_json(positive: np.ndarray, negative: np.ndarray) -> str:
    """Prompts as JSON text: {"classes": [{name, positive, negative}, ...]}, named class_<i>."""
    classes = [
        {"name": f"class_{i}", "positive": pos.tolist(), "negative": neg.tolist()}
        for i, (pos, neg) in enumerate(zip(positive, negative))
    ]
    return json.dumps({"classes": classes}, indent=2) + "\n"


def read_prompts(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Inverse of prompts_json; any malformed document is a FormatError."""
    with input_file(path, "prompts") as data:
        text = data.decode("utf-8")
        try:
            classes = json.loads(text)["classes"]
            names = [entry["name"] for entry in classes]
            positive, negative = (
                np.asarray([entry[key] for entry in classes], dtype=np.float64)
                for key in ("positive", "negative")
            )
        except KeyError as exc:
            raise FormatError(f"missing field {exc}") from None
        except (TypeError, ValueError, RecursionError) as exc:
            raise FormatError(str(exc)) from None
        for index, name in enumerate(names):
            if not isinstance(name, str) or any(ch in name for ch in ",\r\n"):
                raise FormatError(
                    f"class {index} name {name!r} is not a string free of commas and line breaks"
                )
        if positive.ndim != 2 or positive.shape != negative.shape:
            raise FormatError(
                "needs equal-length positive and negative vectors for one or more classes"
            )
        for key, mat in (("positive", positive), ("negative", negative)):
            try:
                check_directions(mat, np.linalg.norm(mat, axis=1))
            except DegenerateVectorError as exc:
                raise FormatError(
                    f"class {exc.row} {key} vector {NO_DIRECTION[exc.kind]}"
                ) from None
    return names, positive, negative

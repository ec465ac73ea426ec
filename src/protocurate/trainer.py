"""Toy contrastive trainer: linear projection heads + learnable temperature.

Trains two linear maps (image side, text side) into a shared space with the
symmetric InfoNCE objective, hand-rolled AdamW, and epoch-granular cosine
annealing.  Gradients are analytic, composed through projection and row
normalization; a finite-difference oracle in the tests pins them down.

The joint mode couples this trainer to the curation loop: curation epoch
first (one optimizer step per curated mini-batch, embeddings recomputed
through the evolving head), then the remaining epochs re-iterate the
curated selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import EngineConfig
from .curation import CuratedSelection, run_curation
from .embedding import unify_batch
from .errors import FormatError, UsageError
from .io import Corpus, decode_records, encode_records
from .prototypes import PrototypeBank

HEAD_MAGIC = b"XFICHEAD"
LOG_TAU_MIN = math.log(1e-3)
LOG_TAU_MAX = math.log(0.5)
PARAM_NAMES = ("W_img", "b_img", "W_txt", "b_txt", "log_tau")


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    out = peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


@dataclass
class ProjectionHead:
    W_img: np.ndarray
    b_img: np.ndarray
    W_txt: np.ndarray
    b_txt: np.ndarray
    log_tau: float

    def __post_init__(self) -> None:
        self.W_img = np.ascontiguousarray(self.W_img, dtype=np.float64)
        self.b_img = np.ascontiguousarray(self.b_img, dtype=np.float64)
        self.W_txt = np.ascontiguousarray(self.W_txt, dtype=np.float64)
        self.b_txt = np.ascontiguousarray(self.b_txt, dtype=np.float64)
        if self.W_img.shape[1] != self.W_txt.shape[1]:
            raise UsageError("image and text projections must share the output dimension")
        if self.b_img.shape != (self.W_img.shape[1],):
            raise UsageError("b_img shape does not match W_img")
        if self.b_txt.shape != (self.W_txt.shape[1],):
            raise UsageError("b_txt shape does not match W_txt")

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @property
    def d_shared(self) -> int:
        return self.W_img.shape[1]

    def project_img(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.W_img + self.b_img

    def project_txt(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.W_txt + self.b_txt

    def unified(self, img: np.ndarray, txt: np.ndarray, space: str = "concat") -> np.ndarray:
        """Curation-space embedding through the head: normalized projected halves."""
        return unify_batch(self.project_img(img), self.project_txt(txt), space)

    def params(self) -> dict[str, np.ndarray]:
        return {
            "W_img": self.W_img,
            "b_img": self.b_img,
            "W_txt": self.W_txt,
            "b_txt": self.b_txt,
            "log_tau": np.array([self.log_tau]),
        }


def init_head(
    d_img: int, d_txt: int, d_shared: int, tau_init: float = 0.01, seed: int = 0
) -> ProjectionHead:
    """Seeded Gaussian init scaled by 1/sqrt(fan_in); biases zero."""
    if not (0.0 < tau_init):
        raise UsageError("tau_init must be > 0")
    rng = np.random.default_rng(seed)
    return ProjectionHead(
        W_img=rng.standard_normal((d_img, d_shared)) / math.sqrt(d_img),
        b_img=np.zeros(d_shared),
        W_txt=rng.standard_normal((d_txt, d_shared)) / math.sqrt(d_txt),
        b_txt=np.zeros(d_shared),
        log_tau=math.log(tau_init),
    )


def identity_head(dim: int, tau: float = 1.0) -> ProjectionHead:
    """Pass-through head (square identity maps); used by eval when none is trained."""
    return ProjectionHead(
        W_img=np.eye(dim),
        b_img=np.zeros(dim),
        W_txt=np.eye(dim),
        b_txt=np.zeros(dim),
        log_tau=math.log(tau),
    )


def info_nce_grad(
    raw_img: np.ndarray, raw_txt: np.ndarray, head: ProjectionHead
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and analytic gradients through projection + normalization.

    Returns (loss, grads) with grads keyed like head.params().
    """
    x_img = np.asarray(raw_img, dtype=np.float64)
    x_txt = np.asarray(raw_txt, dtype=np.float64)
    b = x_img.shape[0]
    if b < 1:
        raise UsageError("batch must be nonempty")

    r_u = x_img @ head.W_img + head.b_img
    r_v = x_txt @ head.W_txt + head.b_txt
    nu = np.linalg.norm(r_u, axis=1)
    nv = np.linalg.norm(r_v, axis=1)
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise UsageError("projected embedding collapsed to zero; cannot normalize")
    u = r_u / nu[:, None]
    v = r_v / nv[:, None]

    tau = head.tau
    s = (u @ v.T) / tau

    lse_row = _logsumexp(s, axis=1)
    lse_col = _logsumexp(s, axis=0)
    diag = np.diag(s)
    loss = float(0.5 * ((lse_row - diag).mean() + (lse_col - diag).mean()))

    # dL/dS: softmax over rows and columns minus twice the matched diagonal.
    p_row = np.exp(s - lse_row[:, None])
    p_col = np.exp(s - lse_col[None, :])
    g = (p_row + p_col - 2.0 * np.eye(b)) / (2.0 * b)

    du = (g @ v) / tau
    dv = (g.T @ u) / tau
    # s depends on tau as 1/exp(log_tau): d s_ij / d log_tau = -s_ij.
    d_log_tau = float(-(g * s).sum())

    # Through u = r/||r||: project out the radial component, scale by 1/||r||.
    dr_u = (du - (du * u).sum(axis=1, keepdims=True) * u) / nu[:, None]
    dr_v = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / nv[:, None]

    grads = {
        "W_img": x_img.T @ dr_u,
        "b_img": dr_u.sum(axis=0),
        "W_txt": x_txt.T @ dr_v,
        "b_txt": dr_v.sum(axis=0),
        "log_tau": np.array([d_log_tau]),
    }
    return loss, grads


def cosine_lr(base: float, t: float, horizon: float) -> float:
    """base/2 (1 + cos(pi t / horizon)); base at t=0, zero at t=horizon."""
    return base * 0.5 * (1.0 + math.cos(math.pi * t / horizon))


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam with bias correction.

    Weight decay applies to every parameter uniformly, scaled by the
    scheduled learning rate.  The temperature is clamped after each step.
    """

    base_lr: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def ensure(self, params: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)


def optimizer_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    t: float,
    horizon: float,
) -> float:
    """One AdamW step at schedule position t of horizon; returns the lr used.

    Mutates params in place.  log_tau is clamped to [ln 1e-3, ln 0.5]
    afterward.
    """
    state.ensure(params)
    state.step_count += 1
    lr = cosine_lr(state.base_lr, t, horizon)
    bc1 = 1.0 - state.beta1**state.step_count
    bc2 = 1.0 - state.beta2**state.step_count
    for name, p in params.items():
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g**2
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)
    params["log_tau"][0] = min(max(params["log_tau"][0], LOG_TAU_MIN), LOG_TAU_MAX)
    return lr


@dataclass
class LossRow:
    step: int
    epoch: int
    lr: float
    loss: float


def loss_csv(rows: list[LossRow]) -> str:
    return "step,epoch,lr,loss\n" + "".join(
        f"{row.step},{row.epoch},{row.lr:.9g},{row.loss:.9g}\n" for row in rows
    )


def _step(
    corpus: Corpus,
    rows: np.ndarray,
    head: ProjectionHead,
    state: OptimizerState,
    cfg: EngineConfig,
    epoch: int,
    loss_rows: list[LossRow],
) -> None:
    """One optimizer step on ``rows``, scheduled at the start of ``epoch``."""
    params = head.params()
    loss, grads = info_nce_grad(corpus.img[rows], corpus.txt[rows], head)
    lr = optimizer_step(state, params, grads, t=epoch - 1, horizon=cfg.epochs)
    head.log_tau = float(params["log_tau"][0])  # W and b were stepped in place
    loss_rows.append(LossRow(step=len(loss_rows) + 1, epoch=epoch, lr=lr, loss=loss))


def _epoch_steps(
    corpus: Corpus,
    rows: np.ndarray,
    head: ProjectionHead,
    state: OptimizerState,
    rng: np.random.Generator,
    cfg: EngineConfig,
    epoch: int,
    loss_rows: list[LossRow],
) -> None:
    perm = rng.permutation(len(rows))
    for start in range(0, len(rows), cfg.batch_size):
        batch = rows[perm[start : start + cfg.batch_size]]
        _step(corpus, batch, head, state, cfg, epoch, loss_rows)


def train_head(
    corpus: Corpus, cfg: EngineConfig, rows: np.ndarray | None = None
) -> tuple[ProjectionHead, list[LossRow]]:
    """Fixed-set training: seeded-shuffled mini-batches for cfg.epochs epochs.

    ``rows`` selects a subset of corpus rows (e.g. a curated selection);
    None trains on the whole corpus.
    """
    if rows is None:
        rows = np.arange(corpus.n)
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise UsageError("cannot train on an empty selection")

    rng = np.random.default_rng(cfg.seed)
    head = init_head(corpus.d_img, corpus.d_txt, cfg.proj_dim, cfg.tau_init, seed=cfg.seed)
    state = OptimizerState(base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    loss_rows: list[LossRow] = []
    for epoch in range(1, cfg.epochs + 1):
        _epoch_steps(corpus, rows, head, state, rng, cfg, epoch, loss_rows)
    return head, loss_rows


def train_joint(
    corpus: Corpus, cfg: EngineConfig
) -> tuple[ProjectionHead, list[LossRow], CuratedSelection, PrototypeBank]:
    """Curation epoch plus reuse epochs, one optimizer state throughout.

    Epoch 1 runs the online curation loop, taking one step per curated
    mini-batch with embeddings recomputed through the evolving head.
    Epochs 2..cfg.epochs iterate the curated selection like train_head.
    """
    head = init_head(corpus.d_img, corpus.d_txt, cfg.proj_dim, cfg.tau_init, seed=cfg.seed)
    state = OptimizerState(base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    loss_rows: list[LossRow] = []
    minibatches: list[np.ndarray] = []  # the selection's rows, in selection order

    def on_minibatch(rows: np.ndarray) -> None:
        minibatches.append(rows)
        _step(corpus, rows, head, state, cfg, 1, loss_rows)

    selection, bank = run_curation(corpus, cfg, head=head, on_minibatch=on_minibatch)
    if len(selection) == 0:
        raise UsageError("joint training curated an empty selection; corpus too small")

    rows = np.concatenate(minibatches)
    for epoch in range(2, cfg.epochs + 1):
        _epoch_steps(corpus, rows, head, state, rng, cfg, epoch, loss_rows)
    return head, loss_rows, selection, bank


def _head_layout(d_img: int, d_txt: int, d_shared: int) -> tuple[int, list]:
    shapes = ((d_img, d_shared), (d_shared,), (d_txt, d_shared), (d_shared,), ())
    return 1, [(name, "<f8", shape) for name, shape in zip(PARAM_NAMES, shapes)]


def encode_head(head: ProjectionHead) -> bytes:
    dims = (head.W_img.shape[0], head.W_txt.shape[0], head.d_shared)
    return encode_records(HEAD_MAGIC, dims, _head_layout, head.params())


def decode_head(data: bytes) -> ProjectionHead:
    _, (rec,) = decode_records(data, HEAD_MAGIC, ("d_img", "d_txt", "d_shared"), _head_layout)
    params = {name: rec[name].copy() for name in PARAM_NAMES}
    for name in PARAM_NAMES[:-1]:
        if not np.all(np.isfinite(params[name])):
            raise FormatError(f"invalid head checkpoint: {name} has non-finite entries")
    log_tau = params["log_tau"] = float(params["log_tau"])
    if not LOG_TAU_MIN <= log_tau <= LOG_TAU_MAX:
        raise FormatError(f"invalid head checkpoint: log_tau {log_tau!r} outside [ln 1e-3, ln 0.5]")
    return ProjectionHead(**params)


def load_head(path) -> ProjectionHead:
    with open(path, "rb") as fh:
        return decode_head(fh.read())

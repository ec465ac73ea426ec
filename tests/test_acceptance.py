"""Whole-system acceptance gate.

Each test certifies one shipped guarantee and prints a single
``[accept] <tag>: PASS|FAIL (<measured numbers>)`` line, so a run of this
module with ``pytest -s`` doubles as the acceptance report.  Oracles here
are written with explicit loops, independently of the library code they
check, and tolerances are stated inline next to each assertion.
"""

import copy
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linprog

from oracles import info_nce, nearest_prototype, paired_t, run_summary
from protocurate.analysis import (
    knn_mean_distance,
    run_analysis,
    welch_t,
)
from protocurate.cli import main
from protocurate.config import EngineConfig
from protocurate.curation import fps_select, run_curation
from protocurate.io import Corpus
from protocurate.metrics import auprc, auroc, evaluate_zero_shot
from protocurate.prototypes import PrototypeBank, sinkhorn_from_cost
from protocurate.synth import generate_corpus
from protocurate.trainer import (
    info_nce_grad,
    init_head,
    train_head,
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[accept] {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def default_runs():
    """Five default-scale seeded corpora with their curation and analysis."""
    runs = []
    for seed in range(5):
        cfg = EngineConfig(seed=seed)
        corpus, prompts = generate_corpus(cfg)
        selection, _ = run_curation(corpus, cfg)
        files = run_analysis(corpus, cfg, selection.records["row"])
        runs.append(
            {
                "corpus": corpus,
                "prompts": prompts,
                "selection": selection,
                "files": files,
            }
        )
    return runs


# --- 1: core routines against exhaustive oracles -------------------------


def fps_oracle(points, ids, budget, anchor):
    """Greedy max-min selection, explicit loops, ties to the smallest id."""
    n = len(points)
    if n <= budget:
        return list(range(n))

    def best(scored):
        top = max(s for _, s in scored)
        tied = [p for p, s in scored if s == top]
        return min(tied, key=lambda p: ids[p])

    remaining = list(range(n))
    first = best([(p, float(np.linalg.norm(points[p] - anchor))) for p in remaining])
    picks = [first]
    remaining.remove(first)
    while len(picks) < budget:
        scored = [
            (p, min(float(np.linalg.norm(points[p] - points[q])) for q in picks))
            for p in remaining
        ]
        nxt = best(scored)
        picks.append(nxt)
        remaining.remove(nxt)
    return picks


def auroc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    num = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                num += 1.0
            elif sp == sn:
                num += 0.5
    return num / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    thresholds = sorted(set(scores), reverse=True)
    p_total = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if y and s >= th)
        fp = sum(1 for s, y in zip(scores, labels) if (not y) and s >= th)
        recall = tp / p_total
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return ap


def knn_oracle(points, k):
    n = len(points)
    k_eff = min(k, n - 1)
    out = []
    for i in range(n):
        dists = sorted(
            float(np.linalg.norm(points[j] - points[i])) for j in range(n) if j != i
        )
        out.append(sum(dists[:k_eff]) / k_eff)
    return np.array(out)


def test_01_oracle_equivalences():
    t0 = time.time()

    # Greedy max-min selection: exact id-sequence match on 200 instances.
    for inst in range(200):
        rng = np.random.default_rng(100 + inst)
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 4))
        if inst % 2 == 0:
            # integer lattice forces distance ties with exact arithmetic
            points = rng.integers(0, 4, size=(n, d)).astype(np.float64)
            anchor = rng.integers(0, 4, size=d).astype(np.float64)
        else:
            points = rng.normal(size=(n, d))
            anchor = rng.normal(size=d)
        ids = rng.choice(1000, size=n, replace=False).astype(np.uint64)
        budget = n + 2 if inst % 10 == 0 else int(rng.integers(1, n + 1))
        got = [int(ids[p]) for p in fps_select(points, ids, budget, anchor)]
        want = [int(ids[p]) for p in fps_oracle(points, ids, budget, anchor)]
        assert got == want, f"instance {inst}: {got} != {want}"

    # Ranking AUROC equals the pair-count oracle exactly on 200 instances.
    for inst in range(200):
        rng = np.random.default_rng(300 + inst)
        n = int(rng.integers(2, 201))
        if inst % 2 == 0:
            scores = rng.integers(0, 10, size=n) / 4.0  # quantized: many ties
        else:
            scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        assert auroc(scores, labels) == auroc_oracle(list(scores), list(labels))

    # Average precision within 1e-12 of the exhaustive threshold sweep.
    worst_ap = 0.0
    for inst in range(100):
        rng = np.random.default_rng(500 + inst)
        n = int(rng.integers(2, 101))
        scores = rng.integers(0, 8, size=n) / 2.0 if inst % 2 == 0 else rng.normal(size=n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if not labels.any():
            labels[0] = True
        dev = abs(auprc(scores, labels) - auprc_oracle(list(scores), list(labels)))
        worst_ap = max(worst_ap, dev)
        assert dev <= 1e-12

    # Nearest-prototype lookup equals an exhaustive scan, index and distance.
    for inst in range(100):
        rng = np.random.default_rng(700 + inst)
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        protos = rng.integers(0, 3, size=(k, d)).astype(np.float64)
        z = rng.integers(0, 3, size=d).astype(np.float64)
        bank = PrototypeBank(protos=protos, ema_alpha=0.1)
        idx, dist = nearest_prototype(z, bank)
        want = min(
            ((float(np.linalg.norm(protos[j] - z)), j) for j in range(k)),
            key=lambda t: (t[0], t[1]),
        )
        assert (idx, dist) == (want[1], want[0]), f"instance {inst}"

    # kNN density profile within 1e-12 of a full per-point sort.
    worst_knn = 0.0
    for inst in range(20):
        rng = np.random.default_rng(900 + inst)
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        points = (
            rng.integers(0, 3, size=(n, d)).astype(np.float64)
            if inst % 2 == 0
            else rng.normal(size=(n, d))
        )
        got, _ = knn_mean_distance(points, k)
        dev = float(np.max(np.abs(got - knn_oracle(points, k))))
        worst_knn = max(worst_knn, dev)
        assert dev <= 1e-12

    report(
        "01 oracle equivalences",
        True,
        f"fps 200/200 exact, auroc 200/200 exact, auprc max dev {worst_ap:.2e}, "
        f"nearest-proto 100/100 exact, knn max dev {worst_knn:.2e}, {time.time()-t0:.1f}s",
    )


# --- 2: transport plans: marginals and LP agreement ----------------------


def lp_equipartition(cost):
    """Exact optimal transport plan via linear programming (uniform marginals)."""
    n, k = cost.shape
    a_eq, b_eq = [], []
    for i in range(n):
        row = np.zeros(n * k)
        row[i * k : (i + 1) * k] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(k - 1):  # last column constraint is redundant
        col = np.zeros(n * k)
        col[j::k] = 1.0
        a_eq.append(col)
        b_eq.append(1.0 / k)
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x.reshape(n, k)


def test_02_transport_marginals_and_lp():
    t0 = time.time()

    # 1000 seeded cost matrices: every plan converges and both marginal
    # residuals stay under 1e-6.  Epsilon scales with the cost magnitude so
    # the sweep exercises three orders of cost scale at equal difficulty.
    worst_dev = 0.0
    for i in range(1000):
        rng = np.random.default_rng(i)
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        cost = rng.random((n, k)) * scale
        plan = sinkhorn_from_cost(cost, epsilon=0.05 * scale, max_iters=50000, tol=1e-6)
        assert plan.converged, f"instance {i} (n={n}, k={k}) did not converge"
        p = plan.plan
        dev = max(
            float(np.max(np.abs(p.sum(axis=1) - 1.0 / n))),
            float(np.max(np.abs(p.sum(axis=0) - 1.0 / k))),
        )
        worst_dev = max(worst_dev, dev)
        assert dev < 1e-6, f"instance {i}: marginal residual {dev:.2e}"

    # Tiny instances at epsilon 1e-3 land within 1e-3 of the exact LP plan.
    worst_lp = 0.0
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        cost = rng.random((n, k))
        plan = sinkhorn_from_cost(cost, epsilon=1e-3, max_iters=500_000, tol=1e-6)
        assert plan.converged, f"trial {trial} did not converge"
        dev = float(np.max(np.abs(plan.plan - lp_equipartition(cost))))
        worst_lp = max(worst_lp, dev)
        assert dev <= 1e-3, f"trial {trial}: plan off LP optimum by {dev:.2e}"

    report(
        "02 transport marginals + LP",
        True,
        f"1000/1000 converged, worst marginal dev {worst_dev:.2e}, "
        f"worst |plan-lp| {worst_lp:.2e}, {time.time()-t0:.1f}s",
    )


# --- 3: analytic gradients against central differences -------------------


def head_loss(head, x_img, x_txt):
    r_u = x_img @ head.W_img + head.b_img
    r_v = x_txt @ head.W_txt + head.b_txt
    u = r_u / np.linalg.norm(r_u, axis=1)[:, None]
    v = r_v / np.linalg.norm(r_v, axis=1)[:, None]
    return info_nce(u, v, head.tau)


def perturbed(head, name, idx, h):
    out = copy.deepcopy(head)
    if name == "log_tau":
        out.log_tau += h
    else:
        getattr(out, name).flat[idx] += h
    return out


def test_03_gradient_finite_difference():
    t0 = time.time()
    shapes = [(2, 4, 4, 3), (4, 6, 3, 5), (8, 4, 6, 4), (3, 5, 5, 2), (6, 8, 8, 8)]
    h = 1e-5
    worst_rel = 0.0
    for seed in range(20):
        b, d_img, d_txt, d_shared = shapes[seed % len(shapes)]
        rng = np.random.default_rng(2000 + seed)
        x_img = rng.normal(size=(b, d_img))
        x_txt = rng.normal(size=(b, d_txt))
        head = init_head(d_img, d_txt, d_shared, tau_init=0.07, seed=seed)
        _, grad = info_nce_grad(x_img, x_txt, head)
        for name in grad.dtype.names:
            flat = grad[name].ravel()
            for idx in range(flat.size):
                lp = head_loss(perturbed(head, name, idx, h), x_img, x_txt)
                lm = head_loss(perturbed(head, name, idx, -h), x_img, x_txt)
                fd = (lp - lm) / (2.0 * h)
                err = abs(float(flat[idx]) - fd)
                assert err <= 1e-6 + 1e-4 * abs(fd), (
                    f"config {seed} {name}[{idx}]: analytic {flat[idx]:.3e} vs fd {fd:.3e}"
                )
                if abs(fd) >= 1e-3:
                    worst_rel = max(worst_rel, err / abs(fd))
    assert worst_rel < 1e-4
    report(
        "03 gradient finite differences",
        True,
        f"20 configurations, worst relative error {worst_rel:.2e}, {time.time()-t0:.1f}s",
    )


# --- 4: full-pipeline determinism ----------------------------------------


PIPELINE_FILES = [
    "corpus.bin",
    "corpus.bin.manifest.json",
    "prompts.json",
    "selection.csv",
    "protos.bin",
    "stats.json",
    "head.bin",
    "loss.csv",
    "metrics.json",
    "metrics.csv",
    "analysis/knn_profile.csv",
    "analysis/ecdf_full.csv",
    "analysis/ecdf_subset.csv",
    "analysis/pca2.csv",
    "analysis/tests.json",
    "analysis/labels.csv",
]


def run_default_pipeline(root):
    root.mkdir()
    c = str(root / "corpus.bin")
    t0 = time.time()
    for argv in (
        ["generate", "--out", c, "--prompts-out", str(root / "prompts.json")],
        [
            "curate", "--corpus", c,
            "--out", str(root / "selection.csv"),
            "--proto-out", str(root / "protos.bin"),
            "--stats-out", str(root / "stats.json"),
        ],
        [
            "train", "--corpus", c,
            "--selection", str(root / "selection.csv"),
            "--head-out", str(root / "head.bin"),
            "--loss-out", str(root / "loss.csv"),
        ],
        [
            "eval", "--corpus", c,
            "--prompts", str(root / "prompts.json"),
            "--head", str(root / "head.bin"),
            "--out", str(root / "metrics.json"),
            "--csv-out", str(root / "metrics.csv"),
        ],
        [
            "analyze", "--corpus", c,
            "--selection", str(root / "selection.csv"),
            "--out-dir", str(root / "analysis"),
        ],
    ):
        rc = main(argv)
        assert rc == 0, f"{argv[0]} exited {rc}"
    return time.time() - t0


def test_04_pipeline_determinism(tmp_path):
    dt_a = run_default_pipeline(tmp_path / "a")
    dt_b = run_default_pipeline(tmp_path / "b")
    produced = sorted(
        str(p.relative_to(tmp_path / "a"))
        for p in (tmp_path / "a").rglob("*")
        if p.is_file()
    )
    assert produced == sorted(PIPELINE_FILES), produced
    for rel in PIPELINE_FILES:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    report(
        "04 pipeline determinism",
        True,
        f"{len(PIPELINE_FILES)} artifacts byte-identical across two runs "
        f"({dt_a:.0f}s and {dt_b:.0f}s)",
    )


# --- 5: curated subsets live in low-density regions ----------------------


def test_05_low_density_enrichment(default_runs):
    passes = 0
    details = []
    for seed, run in enumerate(default_runs):
        tests = json.loads(run["files"]["tests.json"])
        mean_up = tests["subset_mean_knn"] > tests["full_mean_knn"]
        p = tests["welch_subset_vs_full"]["p_value"]
        prop = tests["low_density_proportion"]
        ok = mean_up and p < 0.01 and prop > 0.25
        passes += ok
        details.append(f"seed {seed}: p={p:.1e} prop={prop:.3f} {'ok' if ok else 'MISS'}")
    report(
        "05 low-density enrichment",
        passes >= 4,
        f"{passes}/5 seeds passed; " + "; ".join(details),
    )


# --- 6: curated subsets shrink the head class ----------------------------


def test_06_head_class_rebalance(default_runs):
    passes = 0
    details = []
    for seed, run in enumerate(default_runs):
        lines = run["files"]["labels.csv"].splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        frac_full, frac_subset = float(row["frac_full"]), float(row["frac_subset"])
        ok = row["class"] == "class_0" and frac_subset < frac_full
        passes += ok
        details.append(f"seed {seed}: {frac_full:.3f}->{frac_subset:.3f} {'ok' if ok else 'MISS'}")
    report(
        "06 head-class re-balance",
        passes >= 4,
        f"{passes}/5 seeds passed; " + "; ".join(details),
    )


# --- 7: curated training data beats size-matched random data -------------


HELD_OUT = 4000
TRAIN_LR = 0.01
TRAIN_EPOCHS = 8


def zero_shot_numbers(head, held, prompt_raw):
    rep = evaluate_zero_shot(head, held.img, held.txt, held.labels, *prompt_raw, head.tau)
    return rep.macro_auroc, rep.recall_img_to_txt


def take_rows(corpus, index):
    return Corpus(corpus.ids[index], corpus.img[index], corpus.txt[index], corpus.labels[index])


def test_07_curated_beats_random(default_runs):
    t0 = time.time()
    rows_per_seed = []
    aur = {"cur": [], "rnd": []}
    rec = {"cur": [], "rnd": []}
    for seed, run in enumerate(default_runs):
        corpus = run["corpus"]
        pool = take_rows(corpus, slice(0, corpus.n - HELD_OUT))
        held = take_rows(corpus, slice(corpus.n - HELD_OUT, corpus.n))

        selection, _ = run_curation(pool, EngineConfig(seed=seed))
        rows_cur = selection.records["row"]
        rng = np.random.default_rng(9000 + seed)
        rows_rnd = rng.choice(pool.n, size=len(rows_cur), replace=False)
        rows_per_seed.append(len(rows_cur))

        tcfg = EngineConfig(seed=seed, learning_rate=TRAIN_LR, epochs=TRAIN_EPOCHS)
        head_cur, _ = train_head(pool, tcfg, rows=rows_cur)
        head_rnd, _ = train_head(pool, tcfg, rows=rows_rnd)

        pos, neg = run["prompts"]
        raw = ([f"class_{i}" for i in range(len(pos))], pos, neg)
        a_c, r_c = zero_shot_numbers(head_cur, held, raw)
        a_r, r_r = zero_shot_numbers(head_rnd, held, raw)
        aur["cur"].append(a_c)
        aur["rnd"].append(a_r)
        rec["cur"].append(r_c)
        rec["rnd"].append(r_r)

    wins_a = sum(c > r for c, r in zip(aur["cur"], aur["rnd"]))
    wins_r = sum(c > r for c, r in zip(rec["cur"], rec["rnd"]))
    m_ac, m_ar = float(np.mean(aur["cur"])), float(np.mean(aur["rnd"]))
    m_rc, m_rr = float(np.mean(rec["cur"])), float(np.mean(rec["rnd"]))
    p_a = paired_t(np.array(aur["cur"]), np.array(aur["rnd"])).p_value
    p_r = paired_t(np.array(rec["cur"]), np.array(rec["rnd"])).p_value
    report(
        "07 curated beats random",
        wins_a >= 4 and wins_r >= 4 and m_ac >= m_ar and m_rc >= m_rr,
        f"auroc wins {wins_a}/5 (means {m_ac:.4f} vs {m_ar:.4f}, paired p={p_a:.3g}), "
        f"recall@1 wins {wins_r}/5 (means {m_rc:.4f} vs {m_rr:.4f}, paired p={p_r:.3g}), "
        f"n per seed {rows_per_seed}, {time.time()-t0:.1f}s",
    )


# --- 8: per-iteration emission arithmetic --------------------------------


def test_08_iteration_emission_arithmetic():
    # Warm-up plus exactly three full super-batches.
    cfg = EngineConfig(n_samples=6400 + 3 * 640, seed=0)
    corpus, _ = generate_corpus(cfg)
    selection, _ = run_curation(corpus, cfg)
    stats = selection.stats
    assert len(stats) == 3, f"expected 3 iterations, got {len(stats)}"
    for it in stats:
        assert it["superbatch"] == 640
        assert it["trimmed"] == 32  # floor(0.05 * 640)
        assert it["distant"] == 60  # floor(0.10 * 608)
        assert it["pool"] == 548
        assert it["fps"] <= 60  # at most K * N
        assert it["minibatch"] == it["distant"] + it["fps"]
    fps_counts = [it["fps"] for it in stats]
    report(
        "08 emission arithmetic",
        True,
        f"3 iterations: distant 60 each, fps {fps_counts}, minibatch sizes "
        f"{[it['minibatch'] for it in stats]}",
    )


# --- 9: t-test p-values against a quadrature oracle ----------------------


def t_pdf(x, df):
    return math.exp(
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1.0) / 2.0 * math.log1p(x * x / df)
    )


def p_two_sided_quad(t, df):
    tail, _ = quad(lambda x: t_pdf(x, df), abs(t), np.inf)
    return 2.0 * tail


def welch_oracle_p(a, b):
    va = np.var(a, ddof=1) / len(a)
    vb = np.var(b, ddof=1) / len(b)
    t = (np.mean(a) - np.mean(b)) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
    return p_two_sided_quad(t, df)


def paired_oracle_p(a, b):
    d = np.asarray(a) - np.asarray(b)
    n = len(d)
    t = np.mean(d) / math.sqrt(np.var(d, ddof=1) / n)
    return p_two_sided_quad(t, n - 1)


def test_09_t_test_oracle():
    shifts = [0.0, 0.3, 1.0]
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(3000 + case)
        shift = shifts[case % 3]
        if case % 2 == 0:
            a = rng.normal(0.0, 1.0, size=int(rng.integers(3, 31)))
            b = rng.normal(shift, 1.0 + (case % 5) * 0.4, size=int(rng.integers(3, 31)))
            dev = abs(welch_t(a, b).p_value - welch_oracle_p(a, b))
        else:
            n = int(rng.integers(3, 31))
            a = rng.normal(0.0, 1.0, size=n)
            b = a + rng.normal(shift, 0.7, size=n)
            dev = abs(paired_t(a, b).p_value - paired_oracle_p(a, b))
        worst = max(worst, dev)
        assert dev <= 1e-6, f"case {case}: p off oracle by {dev:.2e}"

    halves = run_summary(np.array([0.0, 1.0]))
    assert halves == (0.5, 0.98)  # mean and 1.96-sigma halfwidth, exactly
    report(
        "09 t-test machinery",
        True,
        f"50 cases within 1e-6 of quadrature (worst {worst:.2e}); "
        f"binary run summary exactly (0.5, 0.98)",
    )

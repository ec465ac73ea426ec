"""Command-line interface: generate | curate | train | eval | analyze.

Exit codes: 0 success, 1 usage or validation error (or a config that asks
for more memory than can be allocated), 2 I/O or file-format error, 3
numerical failure (e.g. Sinkhorn non-convergence).  All file
outputs are deterministic functions of (inputs, config, seed), and each
command writes all of its outputs or none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .analysis import run_analysis, write_analysis_bundle
from .config import EngineConfig, load_config
from .curation import CuratedSelection, run_curation
from .errors import ProtocurateError, UsageError
from .io import check_outputs, commit_outputs, encode_corpus, read_corpus, table_csv
from .metrics import evaluate_zero_shot
from .prototypes import encode_bank
from .synth import generate_corpus, manifest_json, prompts_json, read_prompts
from .trainer import LOSS_FORMATS, encode_head, identity_head, load_head, train_head, train_joint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protocurate",
        description="Prototype-driven online curation of paired-embedding corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="engine config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("generate", help="emit a seeded long-tailed synthetic corpus")
    common(p)
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--prompts-out", help="also write per-class prompt embeddings (JSON)")

    p = sub.add_parser("curate", help="run the curation loop over a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="selection CSV output path")
    p.add_argument("--proto-out", required=True, help="prototype checkpoint output path")
    p.add_argument("--stats-out", help="per-iteration stats JSON output path")
    p.add_argument("--target-size", type=int, help="override target_subset_size")

    p = sub.add_parser("train", help="train the projection head")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--selection",
        help="selection CSV; given = reuse mode on that subset, absent = joint online mode",
    )
    p.add_argument("--head-out", required=True)
    p.add_argument("--loss-out", required=True, help="per-step loss CSV")
    p.add_argument("--selection-out", help="joint mode: write the curated selection")
    p.add_argument("--proto-out", help="joint mode: write the prototype checkpoint")
    p.add_argument("--stats-out", help="joint mode: write the per-iteration stats JSON")
    p.add_argument("--target-size", type=int, help="joint mode: override target_subset_size")

    p = sub.add_parser("eval", help="zero-shot classification and retrieval metrics")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--prompts", required=True, help="prompt-pair JSON file")
    p.add_argument("--head", help="trained head checkpoint; omit for the identity head")
    p.add_argument("--out", required=True, help="metric report JSON path")
    p.add_argument("--csv-out", help="per-class CSV path")

    p = sub.add_parser("analyze", help="density/distribution analysis bundle")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--selection", help="curated selection CSV to compare against")
    p.add_argument("--out-dir", required=True)
    return parser


def _load_cfg(args) -> EngineConfig:
    """The config file with `--seed` and `--target-size` applied; the result is checked whole."""
    cfg = load_config(args.config) if args.config else EngineConfig()
    overrides = {"seed": args.seed, "target_subset_size": getattr(args, "target_size", None)}
    return replace(cfg, **{key: value for key, value in overrides.items() if value is not None})


def _cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    corpus, prompts = generate_corpus(cfg)
    commit_outputs([
        (args.out, encode_corpus(corpus)),
        (f"{args.out}.manifest.json", manifest_json(cfg)),
        (args.prompts_out, prompts_json(*prompts)),
    ])
    print(f"generated {corpus.n} samples ({cfg.clusters} classes) -> {args.out}")
    return 0


def _cmd_curate(args) -> int:
    cfg = _load_cfg(args)
    corpus = read_corpus(args.corpus)
    selection, bank = run_curation(corpus, cfg)
    commit_outputs([
        (args.out, selection.to_csv()),
        (args.proto_out, encode_bank(bank)),
        (args.stats_out, selection.stats_json()),
    ])
    print(f"curated {len(selection)} of {corpus.n} samples -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    joint_only = {"--selection-out": args.selection_out, "--proto-out": args.proto_out,
                  "--stats-out": args.stats_out, "--target-size": args.target_size}
    given = [flag for flag, value in joint_only.items() if value is not None]
    if args.selection and given:
        raise UsageError(f"joint-train options {', '.join(given)} cannot be used with --selection")
    cfg = _load_cfg(args)
    corpus = read_corpus(args.corpus)
    joint_outputs = []
    if args.selection:
        rows = CuratedSelection.read_csv(args.selection, corpus).records["row"]
        head, losses = train_head(corpus, cfg, rows=rows)
    else:
        head, losses, selection, bank = train_joint(corpus, cfg)
        joint_outputs = [
            (args.selection_out, selection.to_csv()),
            (args.proto_out, encode_bank(bank)),
            (args.stats_out, selection.stats_json()),
        ]
    loss_csv = table_csv(losses, LOSS_FORMATS)
    commit_outputs([(args.head_out, encode_head(head)), (args.loss_out, loss_csv), *joint_outputs])
    print(f"trained {len(losses)} steps, final loss {losses['loss'][-1]:.6g} -> {args.head_out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    corpus = read_corpus(args.corpus)
    if corpus.labels is None:
        raise UsageError("eval requires a labeled corpus")
    names, positive, negative = read_prompts(args.prompts)
    if args.head:
        head = load_head(args.head)
    elif corpus.d_img != corpus.d_txt:
        raise UsageError("eval without --head needs d_img == d_txt for the identity head")
    else:
        head = identity_head(corpus.d_img)
    tau = head.tau if cfg.zero_shot_tau is None else cfg.zero_shot_tau
    report = evaluate_zero_shot(
        head, corpus.img, corpus.txt, corpus.labels, names, positive, negative, tau
    )
    commit_outputs([(args.out, report.to_json()), (args.csv_out, report.to_csv())])
    macro = "n/a" if report.macro_auroc is None else f"{report.macro_auroc:.4f}"
    print(
        f"evaluated {report.n_samples} samples: macro AUROC {macro}, "
        f"R@1 i->t {report.recall_img_to_txt:.4f} -> {args.out}"
    )
    return 0


def _cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    corpus = read_corpus(args.corpus)
    rows = None
    if args.selection:
        rows = CuratedSelection.read_csv(args.selection, corpus).records["row"]
    files = run_analysis(corpus, cfg, rows)
    write_analysis_bundle(args.out_dir, files)
    tests = json.loads(files["tests.json"])
    extra = ""
    if "low_density_proportion" in tests:
        extra = f", low-density proportion {tests['low_density_proportion']:.4f}"
    print(
        f"analyzed {corpus.n} samples (mean kNN {tests['full_mean_knn']:.6g}{extra}) "
        f"-> {args.out_dir}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "curate": _cmd_curate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; this tool reserves 2 for I/O.
        return 0 if exc.code in (0, None) else 1

    try:
        # Every consumer checks its results, so numpy's warnings would only add stderr lines.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # Every --out and --*-out option is an output file: check before any input is read.
            check_outputs(v for k, v in vars(args).items() if k == "out" or k.endswith("_out"))
            return _COMMANDS[args.command](args)
    except ProtocurateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename}: no such file", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A size the config asked for that no allocation can meet.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data, pipeline, stability
from .data import DataError
from .pipeline import NonFiniteLossError, PipelineError, RunConfig
from .temporal import TemporalGraphError


def _build_parser():
    parser = argparse.ArgumentParser(prog="tgtopo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract descriptors to CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=6.0)
    p.add_argument("--sigma", type=float, default=4.0)
    p.add_argument("--bins", type=int, default=4)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("train", help="train on a dataset split")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--test-fraction", type=float, default=0.2)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="metrics CSV path")

    p = sub.add_parser("sweep", help="window hyperparameter sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--deltas", required=True, help="comma-separated list")
    p.add_argument("--sigmas", required=True, help="comma-separated list")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("stability", help="run a perturbation campaign")
    p.add_argument("--data", default=None)
    p.add_argument("--mode", choices=("topo", "spectral"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--magnitude", type=float, default=None,
                   help="eps for topo, k for spectral")
    p.add_argument("--out", default=None)
    return parser


def _load_config(path) -> RunConfig:
    return RunConfig.from_file(path) if path else RunConfig()


def _write_or_print(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    if args.command == "extract":
        cfg = RunConfig(delta=args.delta, sigma=args.sigma, dos_bins=args.bins)
        dataset = data.load_dataset(args.data)
        features = pipeline.extract_descriptors(dataset, cfg)
        pipeline.save_descriptors(features, args.out)
        print(f"wrote descriptors for {len(features)} graphs to {args.out}")
    elif args.command == "synth":
        with open(args.spec) as fh:
            spec = json.load(fh)
        dataset = data.synth_generate(spec, args.seed)
        data.save_dataset(dataset, args.out)
        print(f"wrote {len(dataset)} graphs to {args.out}")
    elif args.command == "train":
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        features = pipeline.extract_descriptors(dataset, cfg)
        folds = pipeline.stratified_folds(
            [gf.label for gf in features],
            max(2, round(1.0 / args.test_fraction)),
            cfg.seed,
        )
        test_idx = set(folds[0].tolist())
        train_feats = [gf for i, gf in enumerate(features) if i not in test_idx]
        model, metrics = pipeline.train(train_feats, dataset.num_classes, cfg)
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        model.save(args.out)
        print(f"final loss {metrics.loss_history[-1]:.4f}; checkpoint at {args.out}")
    elif args.command == "eval":
        from .model import TemporalGraphClassifier

        cfg = _load_config(args.config)
        model = TemporalGraphClassifier.load(args.model)
        dataset = data.load_dataset(args.data)
        features = pipeline.extract_descriptors(dataset, cfg)
        metrics, report, embeddings = pipeline.evaluate(model, features, dataset.name)
        _write_or_print(pipeline.attention_csv([report]), args.report)
        if args.embeddings:
            _write_or_print(
                pipeline.embeddings_csv(embeddings, [gf.label for gf in features]),
                args.embeddings,
            )
        print(f"accuracy {metrics.accuracy_mean:.4f}")
    elif args.command == "cv":
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        metrics, report = pipeline.kfold_cv(dataset, cfg)
        _write_or_print(pipeline.metrics_csv(metrics, cfg), args.out)
        print(
            f"accuracy {metrics.accuracy_mean:.4f} +/- {metrics.accuracy_std:.4f}; "
            f"view weights {report.structural:.3f}/{report.topological:.3f}/"
            f"{report.spectral:.3f}"
        )
    elif args.command == "sweep":
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        deltas = [float(x) for x in args.deltas.split(",")]
        sigmas = [float(x) for x in args.sigmas.split(",")]
        _write_or_print(pipeline.sweep_windows(dataset, deltas, sigmas, cfg), args.out)
    elif args.command == "stability":
        if args.mode == "topo":
            magnitude = args.magnitude if args.magnitude is not None else 0.1
            spec = stability.PerturbationSpec("timestamp", magnitude, args.trials,
                                              args.seed)
        else:
            magnitude = args.magnitude if args.magnitude is not None else 2
            spec = stability.PerturbationSpec("edge", magnitude, args.trials, args.seed)
        report = stability.run_campaign(spec)
        _write_or_print(stability.campaign_csv([report]), args.out)
        print(
            f"{report.mode}: {len(report.trials)} trials, "
            f"sup ratio {report.empirical_constant:.4f}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (DataError, PipelineError, TemporalGraphError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteLossError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

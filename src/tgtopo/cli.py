"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (malformed, out-of-range,
unreadable or too-large-for-memory input, or an unwritable output path), 3
numerical failure.  Every error the package defines derives from ``InputError``
(2) or ``NumericalError`` (3); the others come from json, the OS, memory, LAPACK
and numpy.  Under ``InputError`` each module raises its own class
(``TemporalGraphError``, ``TopologyError``, ``SpectralError``, ``StabilityError``,
``PipelineError``, ``DataError`` with ``ParseError``, ``CheckpointError`` and
``ShapeMismatchError``); under ``NumericalError`` are ``NonFiniteValueError`` and
``NonFiniteLossError``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import InputError, NumericalError


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
    p.add_argument("--test-fraction", type=float, default=0.2,
                   help="the held-out part is one of max(2, round(1/f)) stratified folds, "
                        "so 0.9 holds out about half")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None, help="attention CSV path")
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
    p.add_argument("--mode", choices=("topo", "spectral"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--magnitude", type=float, default=None,
                   help="eps for topo, k for spectral")
    p.add_argument("--out", default=None)
    return parser


def _load_config(path):
    from .pipeline import RunConfig

    return RunConfig.from_file(path) if path else RunConfig()


def _write_or_print(text, path):  # no path prints; an empty one fails as unwritable
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    # each command imports what it runs, so synth and stability (and --help or a
    # usage error, which never get here) load no training code
    if args.command == "synth":
        from . import data
    elif args.command == "stability":
        from . import stability
    else:
        from . import data, pipeline
        from .pipeline import PipelineError, RunConfig
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
        if not 0 < args.test_fraction < 1:
            raise PipelineError(f"--test-fraction must lie in (0, 1), got {args.test_fraction}")
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        folds = 1.0 / args.test_fraction  # inf for the smallest subnormals
        folds = max(2, round(folds)) if math.isfinite(folds) else folds
        if folds > len(dataset):
            raise PipelineError(f"--test-fraction {args.test_fraction!r} needs {folds:.3g} "
                                f"folds, more than the {len(dataset)} graphs")
        features = pipeline.extract_descriptors(dataset, cfg)
        folds = pipeline.stratified_folds([gf.label for gf in features], folds, cfg.seed)
        test_idx = set(folds[0].tolist())
        train_feats = [gf for i, gf in enumerate(features) if i not in test_idx]
        model, metrics = pipeline.train(train_feats, dataset.num_classes, cfg)
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        model.save(args.out)
        print(f"final loss {metrics.loss_history[-1]:.4f}; checkpoint at {args.out}")
    elif args.command == "eval":
        cfg = _load_config(args.config)
        from .model import TemporalGraphClassifier

        model = TemporalGraphClassifier.load(args.model)
        dataset = data.load_dataset(args.data)
        features = pipeline.extract_descriptors(dataset, cfg)
        metrics, report, embeddings = pipeline.evaluate(model, features, dataset.name)
        _write_or_print(pipeline.attention_csv([report]), args.report)
        if args.embeddings is not None:
            _write_or_print(
                pipeline.embeddings_csv(embeddings, [gf.label for gf in features]),
                args.embeddings,
            )
        print(f"accuracy {metrics.accuracy_mean:.4f}", file=sys.stderr)
    elif args.command == "cv":
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        metrics, report = pipeline.kfold_cv(dataset, cfg)
        _write_or_print(pipeline.metrics_csv(metrics, cfg), args.out)
        print(
            f"accuracy {metrics.accuracy_mean:.4f} +/- {metrics.accuracy_std:.4f}; "
            f"view weights {report.structural:.3f}/{report.topological:.3f}/"
            f"{report.spectral:.3f}", file=sys.stderr,
        )
    elif args.command == "sweep":
        cfg = _load_config(args.config)
        dataset = data.load_dataset(args.data)
        try:
            deltas, sigmas = ([float(x) for x in v.split(",")] for v in (args.deltas, args.sigmas))
        except ValueError as exc:
            raise PipelineError(f"--deltas/--sigmas: {exc}") from exc
        _write_or_print(pipeline.sweep_windows(dataset, deltas, sigmas, cfg), args.out)
    elif args.command == "stability":
        mode, magnitude = {"topo": ("timestamp", 0.1), "spectral": ("edge", 2)}[args.mode]
        magnitude = magnitude if args.magnitude is None else args.magnitude
        spec = stability.PerturbationSpec(mode, magnitude, args.trials, args.seed)
        report = stability.run_campaign(spec)
        _write_or_print(stability.campaign_csv([report]), args.out)
        over = report.over_bound()  # after the campaign: no check inside its timed trials
        print(f"{report.mode}: {len(report.trials)} trials, sup ratio "
              f"{report.empirical_constant:.4f}, proven bound {report.bound:.4f}, "
              f"{over} trials over it", file=sys.stderr)
        if over:
            raise NumericalError(f"{over} trials exceed the proven bound {report.bound}")
    return 0


def _linalg_error():  # numpy is loaded whenever LAPACK can have raised its LinAlgError
    linalg = sys.modules.get("numpy.linalg")
    return (linalg.LinAlgError,) if linalg else ()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (InputError, json.JSONDecodeError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, *_linalg_error()) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

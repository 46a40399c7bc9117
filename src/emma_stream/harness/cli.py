"""Command line interface.

Subcommands: gen (synthetic corpus), evaluate (one corpus pass), sweep
(threshold sweep), train-toy (loss-weight comparison). Exit codes: 0 on
success, 1 when a corpus or training run fails, 2 on argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ..emma.params import LossWeights
from ..errors import CorpusError, TrainingDivergedError
from .evaluate import evaluate_corpus, threshold_sweep
from .gen import generate_corpus, write_corpus
from .manifest import Manifest
from .reports import emit_report
from .training import ToyTrainConfig, train_toy_policy

__all__ = ["main", "build_parser"]


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one ``error: <message>`` line and exits 2;
    subparsers are built from the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emma-stream",
        description="Streaming-translation policy evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic copy corpus")
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument("--n", type=int, default=10, help="instance count")
    gen.add_argument("--length", type=int, default=6, help="chunks per instance")
    gen.add_argument("--chunk-ms", type=float, default=1000.0,
                     help="duration of every chunk in milliseconds")
    gen.add_argument("--vocab", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)

    def eval_flags(p, with_threshold):
        p.add_argument("--manifest", required=True)
        if with_threshold:
            p.add_argument("--threshold", type=float, default=None,
                           help="override the manifest runtime threshold")
        else:
            p.add_argument("--sweep", type=_comma_floats, default=None,
                           help="comma list overriding the manifest sweep")
        p.add_argument("--l-unit", type=int, default=None,
                       help="override the minimum emission unit count")
        p.add_argument("--seed", type=int, default=None,
                       help="override the manifest seed")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--trace-dir", default=None,
                       help="write per-instance event logs here (a sweep "
                            "writes one threshold-<t> directory per threshold)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="report path (default stdout)")

    eval_flags(sub.add_parser("evaluate", help="score one corpus"), True)
    eval_flags(sub.add_parser("sweep", help="score across thresholds"), False)

    train = sub.add_parser("train-toy", help="compare loss-weight settings")
    train.add_argument("--steps", type=int, default=500)
    train.add_argument("--learning-rate", type=float, default=0.25)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--lambda-latency", type=_comma_floats, default=(0.0, 0.5),
                       help="comma list of latency weights")
    train.add_argument("--lambda-variance", type=_comma_floats, default=(0.0,),
                       help="comma list of variance weights")
    train.add_argument("--out", default=None, help="summary path (default stdout)")
    return parser


def _apply_overrides(manifest: Manifest, args) -> Manifest:
    runtime = manifest.runtime
    if args.l_unit is not None:
        runtime = replace(runtime, min_unit_chunk=args.l_unit)
    updates = {"runtime": runtime}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "sweep", None) is not None:
        updates["sweep"] = args.sweep
    return replace(manifest, **updates)


def _run_training(args) -> str:
    settings = tuple(LossWeights(lat, var)
                     for lat in args.lambda_latency
                     for var in args.lambda_variance)
    config = ToyTrainConfig(steps=args.steps, learning_rate=args.learning_rate,
                            seed=args.seed, weight_settings=settings)
    report = train_toy_policy(config)
    lines = []
    for run in report.runs:
        final = run.final
        lines.append(json.dumps({
            "lambda_latency": run.weights.lambda_latency,
            "lambda_variance": run.weights.lambda_variance,
            "final_loss": round(final["loss"], 6),
            "final_nll": round(final["nll"], 6),
            "final_delay": round(final["delay_mean"], 6),
            "final_variance": round(final["variance"], 6),
        }))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            corpus = generate_corpus(args.n, args.length, args.chunk_ms,
                                     vocab=args.vocab, seed=args.seed)
            write_corpus(corpus, args.out)
            print(f"wrote {len(corpus)} instances to {args.out}")
            return 0
        if args.command == "train-toy":
            text = _run_training(args)
            if args.out is None:
                sys.stdout.write(text)
            else:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            return 0
        manifest = _apply_overrides(Manifest.from_file(args.manifest), args)
        if args.command == "evaluate":
            report = evaluate_corpus(manifest, threshold=args.threshold,
                                     workers=args.workers,
                                     trace_dir=args.trace_dir)
        else:
            report = threshold_sweep(manifest, workers=args.workers,
                                     trace_dir=args.trace_dir)
        emit_report(report, format=args.format, path=args.out)
        return 0
    except (CorpusError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

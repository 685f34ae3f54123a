"""Command-line interface.

Subcommands map onto the pipeline stages: `ingest`, `synth`, `split`,
`cluster`, `train-base`, `train-meta`, `evaluate`, `predict`, `run`, and
`config init`. Exit codes: 0 success, 1 usage/config, 2 I/O or file
format, 3 data validation, 4 training failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import meta, persistence, pipeline
from .config import default_config, load_config
from .errors import ConfigError, PipelineError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--verbose", "-v", action="count", default=0, help="-v for info, -vv for debug")

    parser = _Parser(prog="osnids", description="Open-set NIDS pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    config_cmd = sub.add_parser("config", help="configuration helpers")
    config_sub = config_cmd.add_subparsers(dest="config_command", required=True)
    init = config_sub.add_parser("init", parents=[common], help="write a config template with every default")
    init.add_argument("--out", default="osnids.json", help="where to write the template")

    for name, help_text in (
        ("ingest", "pcap + flow CSV -> labeled sample set"),
        ("synth", "generate the synthetic corpus"),
        ("split", "divide samples into d1/d2/d3"),
        ("cluster", "embed + cluster benign d1, annotate cluster ids"),
        ("train-base", "train the per-cluster base learners"),
        ("train-meta", "train the four meta-classifiers"),
        ("evaluate", "score d3 and write the evaluation report"),
        ("run", "run every stage in order"),
    ):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")

    predict_cmd = sub.add_parser("predict", parents=[common], help="sample set -> verdict CSV")
    predict_cmd.add_argument("--bundle", required=True, help="trained model bundle directory")
    predict_cmd.add_argument("--samples", required=True, help="sample-set file to score")
    predict_cmd.add_argument("--out", required=True, help="verdict CSV path")
    return parser


_STAGES = {
    "ingest": pipeline.stage_ingest,
    "synth": pipeline.stage_synth,
    "split": pipeline.stage_split,
    "cluster": pipeline.stage_cluster,
    "train-base": pipeline.stage_train_base,
    "train-meta": pipeline.stage_train_meta,
    "evaluate": pipeline.stage_evaluate,
    "run": pipeline.run_pipeline,
}


def _cmd_predict(args) -> None:
    base, meta_ens = persistence.load_bundle(args.bundle)
    sample_set = persistence.load_sample_set(args.samples)
    verdicts, mf = meta.predict_batch(base, meta_ens, sample_set.samples)
    persistence.write_verdict_csv(args.out, mf, verdicts)
    print(f"{len(verdicts)} samples scored, {verdicts.attack.sum()} flagged as unknown attacks -> {args.out}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")

        if args.command == "config":
            persistence.write_json(args.out, default_config())
            print(f"wrote config template to {args.out}")
            return 0
        if args.command == "predict":
            _cmd_predict(args)
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        result = _STAGES[args.command](cfg)
        if args.command in ("evaluate", "run"):
            print(
                f"sensitivity={result.sensitivity} specificity={result.specificity} "
                f"(tp={result.tp} tn={result.tn} fp={result.fp} fn={result.fn})"
            )
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

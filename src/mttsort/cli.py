"""Command-line interface.

Subcommands:

* ``track``     — run the tracker over a sequence directory
* ``evaluate``  — score a result file against a sequence's ground truth
* ``optimize``  — genetic search for tracker hyperparameters
* ``synth``     — generate a synthetic sequence directory

Exit codes: 0 success, 1 usage error, 2 data/configuration error
(`model.DataError`) or an OS error such as a missing file. Any other
exception is a fault of the program and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from . import ga, metrics, seqio, synth
from .model import DataError, load_config, load_preset, format_config
from .tracker import run_sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mttsort",
        description="Multi-object tracking with pooled appearance buffers, "
                    "evaluation, and hyperparameter search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="track a sequence directory")
    p_track.add_argument("--seq", required=True, help="sequence directory")
    group = p_track.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="tracker config file")
    group.add_argument("--preset", help="named config preset (config1..config7)")
    p_track.add_argument("--out", required=True, help="output results file")

    p_eval = sub.add_parser("evaluate", help="evaluate predictions against GT")
    p_eval.add_argument("--seq", required=True, help="sequence directory with gt.txt")
    p_eval.add_argument("--pred", required=True, help="predicted results file")
    p_eval.add_argument("--report", help="also write the report to this file")

    p_opt = sub.add_parser("optimize", help="genetic hyperparameter search")
    p_opt.add_argument("--seqs", required=True, nargs="+",
                       help="sequence directories (each needs gt.txt)")
    p_opt.add_argument("--ga-config", required=True, help="GA config file")
    p_opt.add_argument("--out", required=True,
                       help="output file: best config plus history comments")

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="scenario preset name")
    group.add_argument("--spec", help="scenario spec file")
    p_synth.add_argument("--out", required=True, help="output sequence directory")
    p_synth.add_argument("--seed", type=int, help="override the scenario seed")

    return parser


def _cmd_track(args) -> int:
    sequence = seqio.load_sequence(args.seq)
    config = load_preset(args.preset) if args.preset else load_config(args.config)
    results = run_sequence(sequence.detections, config, sequence.frame_count)
    seqio.write_results(results, args.out)
    return 0


def _load_with_gt(directory, why: str) -> seqio.Sequence:
    sequence = seqio.load_sequence(directory)
    if not sequence.gt:
        raise seqio.ParseError(
            f"{directory}: no ground-truth boxes in {seqio.GT_FILE}; {why}")
    return sequence


def _cmd_evaluate(args) -> int:
    sequence = _load_with_gt(args.seq, "cannot evaluate")
    predictions = metrics.results_to_entries(
        seqio.parse_results(args.pred, sequence.frame_count))
    report = metrics.evaluate(sequence.gt, predictions)
    text = seqio.format_report(report)
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_optimize(args) -> int:
    sequences = [_load_with_gt(directory, "optimization needs ground truth")
                 for directory in args.seqs]
    ga_config = ga.load_ga_config(args.ga_config)
    best, best_score, history = ga.run_ga(
        ga.DEFAULT_GENE_SPECS, ga_config, sequences)
    history_text = ga.format_history(history)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_config(best))
        fh.write(f"# best score = {best_score:.6f}\n")
        for line in history_text.splitlines():
            fh.write(f"# {line}\n")
    sys.stdout.write(history_text)
    sys.stdout.write(f"best score = {best_score:.6f}\n")
    return 0


def _cmd_synth(args) -> int:
    if args.preset:
        spec = synth.scenario_preset(args.preset)
    else:
        spec = synth.load_scenario(args.spec)
    if args.seed is not None:
        spec = synth.with_seed(spec, args.seed)
    gt, detections = synth.generate(spec)
    meta = seqio.SequenceMeta(
        name=spec.name or "scenario",
        frame_count=spec.frames,
        width=spec.arena[0],
        height=spec.arena[1],
        embedding_dim=spec.embedding_dim,
    )
    seqio.write_sequence(args.out, meta, detections, gt)
    return 0


_COMMANDS = {
    "track": _cmd_track,
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "synth": _cmd_synth,
}


def cli(argv) -> int:
    """Run the CLI on an argv list and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()

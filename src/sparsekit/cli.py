"""Command-line front end for the compression pipeline."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .pipeline import (run_finetune_prune_baseline, run_qat, run_student_prune,
                       run_teacher_prep, run_transfer)
from .report import compression_report, payload_size_ratio, schedule_export
from .tensor import SparsekitError


# command -> (stage runner, help, flag naming the start checkpoint, its help).
# A `ckpt` command also takes an optional task teacher.
TRAINING_COMMANDS = {
    "teacher-prep": (run_teacher_prep, "train the dense teacher on the synthetic corpus",
                     None, None),
    "prune": (run_student_prune, "gradual magnitude pruning with distillation",
              "teacher", "teacher-prep checkpoint"),
    "finetune": (run_transfer, "pattern-locked transfer to the synthetic task",
                 "ckpt", "sparse (or dense) checkpoint to fine-tune"),
    "qat": (run_qat, "quantization-aware training and int8 export",
            "ckpt", "fine-tuned checkpoint"),
    "baseline": (run_finetune_prune_baseline,
                 "prune during task fine-tuning instead of pre-training",
                 "ckpt", "dense checkpoint"),
}


def _add_common(p):
    p.add_argument("--config", required=True, help="stage config file")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--metrics", default=None, help="write per-step metrics CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsekit",
                                     description="prune, distill, and quantize a tiny encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text, start, start_help) in TRAINING_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_common(p)
        if start is not None:
            p.add_argument(f"--{start}", required=True, help=start_help)
        if start == "ckpt":
            p.add_argument("--teacher", default=None,
                           help="dense task-teacher checkpoint for distillation")

    p = sub.add_parser("report", help="print the compression accounting for a checkpoint")
    p.add_argument("ckpt", help="checkpoint path")
    p.add_argument("--compare", default=None, help="second checkpoint: report payload size ratio")

    p = sub.add_parser("schedule-export", help="dump (t, lr, sparsity) rows as CSV")
    p.add_argument("--config", required=True, help="stage config file with a [pruning] section")
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _write_outputs(outputs) -> None:
    """Run each (path, write) in order. If one fails, remove the files written
    before it, and its own if it made a new one, then re-raise: a run that
    fails to write leaves no output file of its own."""
    written = []
    try:
        for path, write in outputs:
            new = not os.path.exists(path)
            write(path)
            written.append(path)
    except OSError:
        if new and os.path.exists(path):
            written.append(path)
        for path in written:
            os.remove(path)
        raise


def _dispatch(args) -> int:
    if args.command in TRAINING_COMMANDS:
        runner, _, start, _ = TRAINING_COMMANDS[args.command]
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # checked before any checkpoint is read or any step runs: a failed run writes nothing
        for flag, path in (("--out", args.out), ("--metrics", args.metrics)):
            folder = os.path.dirname(path or "") or "."
            if not os.path.isdir(folder):
                raise FileNotFoundError(f"{flag}: no directory {folder!r}")
            if path and os.path.isdir(path):
                raise IsADirectoryError(f"{flag}: {path!r} is a directory")
        inputs = [] if start is None else [load_checkpoint(getattr(args, start))]
        kwargs = {}
        if start == "ckpt":
            kwargs["teacher_ckpt"] = load_checkpoint(args.teacher) if args.teacher else None
        ckpt, metrics = runner(cfg, *inputs, **kwargs)
        outputs = [(args.out, lambda path: save_checkpoint(ckpt, path))]
        if args.metrics:
            outputs.append((args.metrics, metrics.to_csv))
        _write_outputs(outputs)
        for key, value in sorted(metrics.summary.items()):
            if not isinstance(value, dict):
                print(f"{key}: {value}")
        print(f"wrote {args.out}")
    elif args.command == "report":
        ckpt = load_checkpoint(args.ckpt)
        print(compression_report(ckpt).as_text())
        if args.compare:
            other = load_checkpoint(args.compare)
            print(f"payload size ratio (first/second): {payload_size_ratio(ckpt, other)!r}")
    elif args.command == "schedule-export":
        schedule_export(load_config(args.config), args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _dispatch(args)
    except (SparsekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

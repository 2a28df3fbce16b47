"""Print the sha256 digest table of sparsekit's seeded stage outputs.

    python3 tools/digest_table.py

Run from anywhere inside a sparsekit checkout; the package is imported from
its `src/`. Prints a markdown table of 31 rows: the sha256 of
`serialize(ckpt)` and of the metrics CSV for

- all six `pipeline-default` stages at workload seeds 1, 2 and 3;
- eleven seed-1 runs with one setting changed, each on the seed-1 teacher,
  task teacher or transfer output;
- the seed-1 `prune-wide` teacher-prep and prune.

The stage configs are those `perfbench/workloads.py` builds, and each stage
reads the previous stage's output round-tripped through
`serialize`/`deserialize`, as the benchmark and the CLI's checkpoint files
do. A change that claims byte-identical outputs shows this table equal
before and after it; one that changes the arithmetic states its new table.
The digests depend on the BLAS kernel numpy selects for the CPU.
"""
from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark's sources
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sparsekit as sk  # noqa: E402
from sparsekit import pipeline as P  # noqa: E402
from workloads import Chain, PruneWide, stage_configs  # noqa: E402

def pipeline_chain(seed: int) -> tuple:
    """The six `pipeline-default` stages in the benchmark's order; returns the
    chain and its teacher, task teacher and transfer outputs."""
    chain = Chain(sk, stage_configs(sk, seed))
    teacher = chain.stage("teacher-prep", P.run_teacher_prep)
    task_teacher = chain.stage("task-teacher", P.run_transfer, teacher)
    sparse = chain.stage("prune", P.run_student_prune, teacher)
    tuned = chain.stage("transfer", P.run_transfer, sparse, teacher_ckpt=task_teacher)
    chain.stage("qat", P.run_qat, tuned, teacher_ckpt=task_teacher)
    chain.stage("baseline", P.run_finetune_prune_baseline, teacher, teacher_ckpt=task_teacher)
    return chain, (teacher, task_teacher, tuned)


def variant_rows(cfgs: dict, teacher, task_teacher, tuned) -> list:
    """(label, digests) of the runs with one setting changed from `cfgs`."""

    def interval(stage, n):
        return replace(cfgs[stage], pruning=replace(cfgs[stage].pruning, interval=n))

    runs = [
        ("prune, interval 3", "prune", interval("prune", 3), P.run_student_prune, (teacher,), {}),
        ("prune, interval 7", "prune", interval("prune", 7), P.run_student_prune, (teacher,), {}),
        ("baseline, interval 3", "baseline", interval("baseline", 3),
         P.run_finetune_prune_baseline, (teacher,), {"teacher_ckpt": task_teacher}),
        ("baseline, interval 7", "baseline", interval("baseline", 7),
         P.run_finetune_prune_baseline, (teacher,), {"teacher_ckpt": task_teacher}),
        ("prune, lrr off", "prune", replace(cfgs["prune"], lrr_enabled=False),
         P.run_student_prune, (teacher,), {}),
        ("prune, kd off", "prune", replace(cfgs["prune"], kd_enabled=False),
         P.run_student_prune, (teacher,), {}),
        ("prune, log_every 7", "prune", replace(cfgs["prune"], log_every=7),
         P.run_student_prune, (teacher,), {}),
        ("baseline, kd off", "baseline", replace(cfgs["baseline"], kd_enabled=False),
         P.run_finetune_prune_baseline, (teacher,), {}),
        ("baseline, lrr off", "baseline", replace(cfgs["baseline"], lrr_enabled=False),
         P.run_finetune_prune_baseline, (teacher,), {"teacher_ckpt": task_teacher}),
        ("teacher-prep, log_every 3, warmup_steps 0", "teacher-prep",
         replace(cfgs["teacher-prep"], log_every=3, warmup_steps=0), P.run_teacher_prep, (), {}),
        ("qat, kd off", "qat", replace(cfgs["qat"], kd_enabled=False), P.run_qat, (tuned,), {}),
    ]
    rows = []
    for label, stage, cfg, fn, args, kwargs in runs:
        chain = Chain(sk, {**cfgs, stage: cfg})
        chain.stage(stage, fn, *args, **kwargs)
        rows.append((label, chain.digests()[stage]))
    return rows


def prune_wide_rows(seed: int) -> list:
    chain = Chain(sk, stage_configs(sk, seed, **PruneWide.shape))
    teacher = chain.stage("teacher-prep", P.run_teacher_prep)
    chain.stage("prune", P.run_student_prune, teacher)
    return [(f"prune-wide {seed} {k}", d) for k, d in chain.digests().items()]


def digest_rows() -> list:
    rows = []
    for seed in (1, 2, 3):
        chain, outputs = pipeline_chain(seed)
        if seed == 1:
            seed1 = (chain.cfgs, *outputs)
        rows += [(f"{seed} {stage}", d) for stage, d in chain.digests().items()]
    return rows + variant_rows(*seed1) + prune_wide_rows(1)


def main() -> None:
    print("| run | ckpt sha256 | csv sha256 |")
    print("|---|---|---|")
    for label, (ckpt_sha, csv_sha) in digest_rows():
        print(f"| {label} | `{ckpt_sha}` | `{csv_sha}` |", flush=True)


if __name__ == "__main__":
    main()

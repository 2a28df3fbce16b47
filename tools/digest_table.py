"""Print the sha256 digest table of sparsekit's seeded stage outputs.

    python3 tools/digest_table.py

Run from anywhere inside a sparsekit checkout; the package is imported from
its `src/`. Prints a markdown table of 31 rows: the sha256 of
`serialize(ckpt)` and of the metrics CSV for

- all six `pipeline-default` stages at workload seeds 1, 2 and 3;
- eleven seed-1 runs with one setting changed, each on the seed-1 teacher,
  task teacher or transfer output;
- the seed-1 `prune-wide` teacher-prep and prune.

The stage configs are those `perfbench/workloads.py` builds. The stages run
through `sparsekit.pipeline.run_chain`, so each reads an earlier stage's
output round-tripped through `serialize`/`deserialize`, as through the CLI's
checkpoint files. A change that claims byte-identical outputs shows this
table equal before and after it; one that changes the arithmetic states its
new table.
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
from sparsekit.checkpoint import serialize  # noqa: E402
from sparsekit.pipeline import run_chain  # noqa: E402
from workloads import PruneWide, sha, stage_configs  # noqa: E402


def digest(ckpt, metrics) -> tuple:
    return sha(serialize(ckpt)), sha(metrics.to_csv_text())


def variant_rows(cfgs: dict, given: dict) -> list:
    """(label, digests) of the runs with one setting changed from `cfgs`, each
    on the outputs in `given`."""

    def interval(node, n):
        return replace(cfgs[node], pruning=replace(cfgs[node].pruning, interval=n))

    runs = [
        ("prune, interval 3", "prune", interval("prune", 3)),
        ("prune, interval 7", "prune", interval("prune", 7)),
        ("baseline, interval 3", "baseline", interval("baseline", 3)),
        ("baseline, interval 7", "baseline", interval("baseline", 7)),
        ("prune, lrr off", "prune", replace(cfgs["prune"], lrr_enabled=False)),
        ("prune, kd off", "prune", replace(cfgs["prune"], kd_enabled=False)),
        ("prune, log_every 7", "prune", replace(cfgs["prune"], log_every=7)),
        ("baseline, kd off", "baseline", replace(cfgs["baseline"], kd_enabled=False)),
        ("baseline, lrr off", "baseline", replace(cfgs["baseline"], lrr_enabled=False)),
        ("teacher-prep, log_every 3, warmup_steps 0", "teacher-prep",
         replace(cfgs["teacher-prep"], log_every=3, warmup_steps=0)),
        ("qat, kd off", "qat", replace(cfgs["qat"], kd_enabled=False)),
    ]
    return [(label, digest(*run_chain({node: cfg}, given)[node])) for label, node, cfg in runs]


def digest_rows() -> list:
    rows = []
    for seed in (1, 2, 3):
        runs = run_chain(stage_configs(sk, seed))
        rows += [(f"{seed} {node}", digest(*run)) for node, run in runs.items()]
        if seed == 1:
            seed1 = {node: ckpt for node, (ckpt, _) in runs.items()}
    wide = stage_configs(sk, 1, **PruneWide.shape)
    wide_runs = run_chain({node: wide[node] for node in ("teacher-prep", "prune")})
    return (rows + variant_rows(stage_configs(sk, 1), seed1)
            + [(f"prune-wide 1 {node}", digest(*run)) for node, run in wide_runs.items()])


def main() -> None:
    print("| run | ckpt sha256 | csv sha256 |")
    print("|---|---|---|")
    for label, (ckpt_sha, csv_sha) in digest_rows():
        print(f"| {label} | `{ckpt_sha}` | `{csv_sha}` |", flush=True)


if __name__ == "__main__":
    main()

"""The benchmark's three workloads, their output checks and their metrics.

Why these workloads:
- pipeline-default runs every stage a user runs, at the desk defaults
  (hidden 32, batch 16, seq 16). Per-node Python overhead of the autodiff
  tape dominates; the data and quant modules have their largest shares here.
- prune-wide runs the student-prune stage with KD at hidden 128, ffn 512 and
  4 heads. It builds the same number of tape nodes, but matmul kernels and
  prune_step's argsort take most of the time and data work is under 2%.
- export-infer loads the int8 QAT export and serves batch-1 classification
  requests in a closed loop, then batched passes. It runs forward only: no
  backward, no Adam and no batch building, so training-loop changes should
  not move it while no-grad or int8/sparse inference should. It is not one of
  BENCHMARK.json's workloads (see README.md) but runs by name.

Every stage seed and the data seed derive from the workload seed. Each stage
output goes through serialize/deserialize before the next stage reads it, as
it does through the CLI's checkpoint files.

The set-up of prune-wide and export-infer trains models. It runs in a child
process (`python3 perfbench/workloads.py <workload> <seed>`) that pickles its
inputs to stdout, so that the measuring process's peak RSS and allocator state
come from its passes alone.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import pickle
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

SUBMODULES = ("tensor", "model", "data", "optim", "pruning", "distill", "quant",
              "schedule", "config", "checkpoint", "report", "pipeline")

INFER_REQUESTS = 250      # batch-1 requests per export-infer pass
INFER_BATCHED_PASSES = 20  # passes over the whole validation split per export-infer pass
CHILD_TIMEOUT_S = 150


def fresh_import():
    """Import sparsekit anew, so that set-up pays what a new process pays."""
    for name in [m for m in sys.modules if m == "sparsekit" or m.startswith("sparsekit.")]:
        del sys.modules[name]
    sk = importlib.import_module("sparsekit")
    for sub in SUBMODULES:
        importlib.import_module(f"sparsekit.{sub}")
    return sk


def derive_seeds(seed: int) -> tuple[int, int]:
    """(stage seed, data seed) from the workload seed."""
    a, b = np.random.SeedSequence([seed, 0x5EED]).generate_state(2)
    return int(a) >> 1, int(b) >> 1


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class Checks:
    """Counts operations attempted and records failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def same(self, name: str, values: list) -> None:
        self.check(name, all(v == values[0] for v in values),
                   f"{len(set(map(repr, values)))} distinct values over {len(values)} runs")


def setup_in_child(name: str, seed: int, checks: Checks):
    """Run `WORKLOADS[name](seed).prepare` in a fresh process and return what it
    made; the child's checks count in `checks`."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), name, str(seed)],
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr.decode(errors='replace')}")
    made, attempted, failures = pickle.loads(proc.stdout)
    checks.attempted += attempted
    checks.failures += failures
    return made


def check_zeros(checks: Checks, sk, what: str, ckpt, sparsity: float, exact: bool = True) -> None:
    """Every prunable tensor holds floor(s*n) zeros; int8 rounding may add more."""
    for name in sk.model.prunable_parameter_names(ckpt.model_config):
        w = ckpt.tensors[name].to_dense()
        want = math.floor(sparsity * w.size)
        got = int((w == 0).sum())
        checks.check(f"{what} {name} zeros", got == want if exact else got >= want,
                     f"{got} zeros, want {'' if exact else '>= '}{want}")


def stage_configs(sk, seed: int, **model_changes) -> dict:
    """Default config of every stage, re-seeded from the workload seed."""
    stage_seed, data_seed = derive_seeds(seed)

    def cfg(stage, **kw):
        c = sk.config.default_config(stage, seed=stage_seed)
        return replace(c, model=replace(c.model, **model_changes),
                       data=replace(c.data, corpus_seed=data_seed), **kw)

    return {"teacher-prep": cfg("teacher-prep"),
            "task-teacher": cfg("transfer", kd_enabled=False),
            "prune": cfg("student-prune"),
            "transfer": cfg("transfer"),
            "qat": cfg("qat"),
            "baseline": cfg("finetune-prune-baseline")}


@dataclass
class StageRun:
    seconds: float
    ckpt_sha: str
    csv_sha: str
    tokens: int
    summary: dict


@dataclass
class Chain:
    """Runs stages the way the CLI chains them, recording each one."""
    sk: object
    cfgs: dict
    runs: dict = field(default_factory=dict)

    def stage(self, name: str, fn, *args, **kwargs):
        cfg = self.cfgs[name]
        t0 = perf_counter()
        ckpt, metrics = fn(cfg, *args, **kwargs)
        seconds = perf_counter() - t0
        blob = self.sk.checkpoint.serialize(ckpt)
        self.runs[name] = StageRun(seconds, sha(blob), sha(metrics.to_csv_text()),
                                   cfg.steps * cfg.batch_size * cfg.seq_len, ckpt.metrics)
        return self.sk.checkpoint.deserialize(blob)

    def digests(self) -> dict:
        return {k: (r.ckpt_sha, r.csv_sha) for k, r in self.runs.items()}


def training_tokens_per_s(passes: list) -> float:
    """Training tokens over stage seconds, summed over every stage of every pass."""
    runs = [r for p in passes for r in p["chain"].runs.values()]
    return sum(r.tokens for r in runs) / sum(r.seconds for r in runs)


def run_to_export(sk, cfgs, checks: Checks):
    """teacher-prep, task teacher, prune, KD transfer and QAT, as in the README."""
    P = sk.pipeline
    chain = Chain(sk, cfgs)
    teacher = chain.stage("teacher-prep", P.run_teacher_prep)
    task_teacher = chain.stage("task-teacher", P.run_transfer, teacher)
    sparse = chain.stage("prune", P.run_student_prune, teacher)
    tuned = chain.stage("transfer", P.run_transfer, sparse, teacher_ckpt=task_teacher)
    export = chain.stage("qat", P.run_qat, tuned, teacher_ckpt=task_teacher)
    checks.ops(5)
    sparsity = cfgs["prune"].pruning.final_sparsity
    check_zeros(checks, sk, "prune", sparse, sparsity)
    check_zeros(checks, sk, "transfer", tuned, sparsity)
    check_zeros(checks, sk, "qat", export, sparsity, exact=False)
    return chain, teacher, task_teacher, export


# -- workloads ----------------------------------------------------------------

class PipelineDefault:
    """The user's whole pipeline at desk defaults. Set-up is importing the
    package and building the stage configs: there are no inputs to prepare."""

    setups = 40  # one set-up takes under 0.1 s, so a median of many
    min_passes = 3  # so that stage medians drop one slow pass; also the determinism check

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, checks: Checks):
        sk = fresh_import()
        cfgs = stage_configs(sk, self.seed)
        return sk, cfgs, None, sha(b"".join(c.digest() for c in cfgs.values()))

    def run_pass(self, sk, cfgs, inputs, checks: Checks) -> dict:
        chain, teacher, task_teacher, export = run_to_export(sk, cfgs, checks)
        baseline = chain.stage("baseline", sk.pipeline.run_finetune_prune_baseline, teacher,
                               teacher_ckpt=task_teacher)
        report = sk.report.compression_report(export)
        checks.ops(2)
        check_zeros(checks, sk, "baseline", baseline, cfgs["baseline"].pruning.final_sparsity)
        nonzero = sum(int((export.tensors[n].to_dense() != 0).sum())
                      for n in sk.model.prunable_parameter_names(export.model_config))
        checks.check("report nonzero count", report.nonzero_count == nonzero,
                     f"{report.nonzero_count} vs {nonzero}")
        return {"digests": chain.digests(), "chain": chain}

    def summarize(self, passes: list) -> dict:
        stage = {k: statistics.median(p["chain"].runs[k].seconds for p in passes)
                 for k in passes[0]["chain"].runs}
        runs = passes[-1]["chain"].runs
        out = {f"stage_s.{k}": v for k, v in stage.items()}
        out.update({"tokens_per_s": training_tokens_per_s(passes),
                    "val_loss": runs["qat"].summary["val_loss"],
                    "mlm_val_loss": runs["prune"].summary["val_loss"]})
        return out


class PruneWide:
    """student-prune with KD at hidden 128, ffn 512, 4 heads. Set-up trains
    the dense teacher at that shape, in a child process."""

    setups = 2
    min_passes = 3
    shape = {"hidden": 128, "ffn_dim": 512, "heads": 4}

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, sk, checks: Checks) -> bytes:
        cfgs = stage_configs(sk, self.seed, **self.shape)
        teacher, _ = sk.pipeline.run_teacher_prep(cfgs["teacher-prep"])
        checks.ops()
        return sk.checkpoint.serialize(teacher)

    def setup(self, checks: Checks):
        blob = setup_in_child("prune-wide", self.seed, checks)
        sk = fresh_import()
        return sk, stage_configs(sk, self.seed, **self.shape), blob, sha(blob)

    def run_pass(self, sk, cfgs, teacher_blob, checks: Checks) -> dict:
        chain = Chain(sk, cfgs)
        sparse = chain.stage("prune", sk.pipeline.run_student_prune,
                             sk.checkpoint.deserialize(teacher_blob))
        checks.ops()
        check_zeros(checks, sk, "prune", sparse, cfgs["prune"].pruning.final_sparsity)
        return {"digests": chain.digests(), "chain": chain}

    def summarize(self, passes: list) -> dict:
        return {"stage_s.prune": statistics.median(p["chain"].runs["prune"].seconds
                                                   for p in passes),
                "tokens_per_s": training_tokens_per_s(passes),
                "mlm_val_loss": passes[-1]["chain"].runs["prune"].summary["val_loss"]}


@dataclass
class ExportInputs:
    blob: bytes
    requests: list          # one single-row TaskBatch per validation example
    validation: object      # the whole validation split as one TaskBatch
    recorded: dict          # the QAT stage's summary metrics


class ExportInfer:
    """Closed-loop batch-1 classification requests against the int8 QAT
    export, then batched passes over the task validation split. Set-up runs
    the pipeline up to the export, in a child process."""

    setups = 2
    min_passes = 4  # 1000 requests, so that p99 has 10 samples beyond it

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, sk, checks: Checks) -> tuple:
        """The serialized export and the validation split's arrays."""
        cfgs = stage_configs(sk, self.seed)
        export = run_to_export(sk, cfgs, checks)[-1]
        c = cfgs["qat"]
        val = sk.data.make_task_dataset(c.data.corpus_seed, c.data.num_examples,
                                        c.data.num_labels, vocab_size=c.model.vocab,
                                        seq_len=c.seq_len).validation
        return sk.checkpoint.serialize(export), val.input_ids, val.labels, val.attention_mask

    def setup(self, checks: Checks):
        blob, ids, labels, mask = setup_in_child("export-infer", self.seed, checks)
        sk = fresh_import()
        requests = [sk.data.TaskBatch(ids[i:i + 1], labels[i:i + 1], mask[i:i + 1])
                    for i in range(labels.shape[0])]
        recorded = sk.checkpoint.deserialize(blob).metrics
        return (sk, stage_configs(sk, self.seed),
                ExportInputs(blob, requests, sk.data.TaskBatch(ids, labels, mask), recorded),
                sha(blob))

    def run_pass(self, sk, cfgs, inp: ExportInputs, checks: Checks) -> dict:
        t0 = perf_counter()
        ckpt = sk.checkpoint.deserialize(inp.blob)
        model = sk.checkpoint.model_from_checkpoint(ckpt)
        quant = sk.quant.QatContext.from_ranges(model.prunable_parameters(),
                                                ckpt.metrics["activation_ranges"])
        load_s = perf_counter() - t0

        n = len(inp.requests)
        latencies = []
        preds = np.empty(INFER_REQUESTS, dtype=np.int64)
        for r in range(INFER_REQUESTS):
            req = inp.requests[r % n]
            t = perf_counter()
            logits = model.forward_classify(req, quant=quant).logits.values
            preds[r] = int(logits.argmax())
            latencies.append(perf_counter() - t)

        batched_s = 0.0
        for _ in range(INFER_BATCHED_PASSES):
            t = perf_counter()
            fw = model.forward_classify(inp.validation, quant=quant)
            batched_s += perf_counter() - t
        checks.ops(INFER_REQUESTS + INFER_BATCHED_PASSES)

        want_acc = inp.recorded["val_accuracy"]
        labels = inp.validation.labels
        for sweep in range(INFER_REQUESTS // n):
            acc = float((preds[sweep * n:(sweep + 1) * n] == labels).mean())
            checks.check(f"batch-1 accuracy, sweep {sweep}", acc == want_acc,
                         f"{acc!r} vs recorded {want_acc!r}")
        batched_pred = fw.logits.values.argmax(axis=-1)
        checks.check("batched accuracy", float((batched_pred == labels).mean()) == want_acc)
        checks.check("batched loss equals recorded val_loss",
                     float(fw.loss.values) == inp.recorded["val_loss"],
                     f"{float(fw.loss.values)!r} vs {inp.recorded['val_loss']!r}")
        checks.check("batch-1 argmax equals batched argmax",
                     bool((preds[:n] == batched_pred).all()))
        return {"digests": sha(preds.tobytes()), "load_s": load_s, "latencies": latencies,
                "batched_s": batched_s,
                "batched_tokens": INFER_BATCHED_PASSES * inp.validation.input_ids.size,
                "val_loss": float(fw.loss.values)}

    def summarize(self, passes: list) -> dict:
        lat = sorted(x for p in passes for x in p["latencies"])
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {"infer_ms.p50": statistics.median(lat) * 1e3, "infer_ms.p99": q[98] * 1e3,
                "infer_requests": len(lat),
                "tokens_per_s": sum(p["batched_tokens"] for p in passes)
                / sum(p["batched_s"] for p in passes),
                "export_load_ms": statistics.median(p["load_s"] for p in passes) * 1e3,
                "val_loss": passes[-1]["val_loss"]}


WORKLOADS = {"pipeline-default": PipelineDefault, "prune-wide": PruneWide,
             "export-infer": ExportInfer}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """Set up several times, then run untraced passes for `seconds` (at least
    `min_passes`), then one traced pass when a tracer is given."""
    w = WORKLOADS[name](seed)
    checks = Checks()
    setup_s, fingerprints = [], []
    for _ in range(w.setups):
        t0 = perf_counter()
        sk, cfgs, inputs, fingerprint = w.setup(checks)
        setup_s.append(perf_counter() - t0)
        fingerprints.append(fingerprint)
    checks.same("set-up is deterministic", fingerprints)

    passes, walls = [], []
    start = perf_counter()
    while len(passes) < w.min_passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        try:
            passes.append(w.run_pass(sk, cfgs, inputs, checks))
        except Exception as exc:  # counted in error_rate; measuring stops here
            traceback.print_exc()
            checks.check(f"pass {len(walls)}", False, repr(exc))
            if not passes:
                raise
            break
        walls.append(perf_counter() - t0)
    checks.same("same seed gives byte-identical outputs", [p["digests"] for p in passes])

    # wall_s and tokens_per_s are means over the run, not medians. On a shared host the
    # speed can change in stretches of seconds to a minute; a median jumps to whichever
    # stretch held more than half the run, while a mean moves with the time in each.
    out = {"setup_s": statistics.median(setup_s), "wall_s": statistics.fmean(walls),
           "passes": len(passes), **w.summarize(passes),
           "samples": {"setup_s": setup_s, "wall_s": walls}}
    if tracer is not None:
        with tracer.installed(sk):
            t0 = perf_counter()
            traced = w.run_pass(sk, cfgs, inputs, checks)
            out["traced_wall_s"] = perf_counter() - t0
        checks.same("tracing leaves outputs unchanged",
                    [passes[0]["digests"], traced["digests"]])
    out["checks"] = checks
    return out


def _child(name: str, seed: int) -> None:
    """Child-process side of `setup_in_child`: pickle (made, attempted, failures)."""
    from run import import_sparsekit
    import_sparsekit()
    sk = fresh_import()
    checks = Checks()
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the pickle
        made = WORKLOADS[name](seed).prepare(sk, checks)
    sys.stdout.buffer.write(pickle.dumps((made, checks.attempted, checks.failures)))


if __name__ == "__main__":
    _child(sys.argv[1], int(sys.argv[2]))

"""Self-tests of the benchmark: python -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from run import import_sparsekit
from tracing import Tracer, per_layer_metrics, self_times

import_sparsekit()
import sparsekit  # noqa: E402
from sparsekit import checkpoint, config, pipeline, report  # noqa: E402,F401
from sparsekit.pruning import SparsitySchedule  # noqa: E402

HERE = Path(__file__).resolve().parent


def _tiny(stage: str, **kw):
    return replace(config.default_config(stage, seed=3), steps=6, **kw)


def _tiny_prune():
    return _tiny("student-prune", pruning=SparsitySchedule(0.0, 0.9, 0, 3, 5, 1))


def _traced_prune(teacher):
    """Traced tiny prune; also returns (owner, attribute, original) of every wrapper."""
    tracer = Tracer()
    with tracer.installed(sparsekit):
        patched = list(tracer._patches)
        ckpt, _ = pipeline.run_student_prune(_tiny_prune(), teacher)
    return tracer, ckpt, patched


def test_self_time_arithmetic():
    # root [0,100] holds a [10,40], b [45,95] and a [96,99]; b holds c [50,70].
    spans = [("root", -1, 0, 100), ("a", 0, 10, 40), ("b", 0, 45, 95), ("c", 2, 50, 70),
             ("a", 0, 96, 99)]
    assert self_times([-1, 0, 0, 2, 0], [100, 30, 50, 20, 3]) == [17, 30, 30, 20, 3]
    tracer = Tracer()
    for name, parent, start, end in spans:
        tracer.span_name.append(tracer._id(name))
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    assert tracer.totals() == {"root": [1, 100, 17], "a": [2, 33, 33], "b": [1, 50, 30],
                               "c": [1, 20, 20]}


def test_nested_spans_record_parents():
    tracer = Tracer()
    inner = tracer._timed("inner", lambda: None)
    tracer._timed("outer", inner)()
    assert list(tracer.span_parent) == [-1, 0]
    tot = tracer.totals()
    assert tot["outer"][1] == tot["outer"][2] + tot["inner"][1]


def test_wrappers_installed_then_removed_even_on_error():
    tracer = Tracer()
    try:
        with tracer.installed(sparsekit):
            patched = list(tracer._patches)
            assert all(getattr(o, a) is not orig for o, a, orig in patched)
            raise RuntimeError("stage failed")
    except RuntimeError:
        pass
    assert len(patched) > 30 and all(getattr(o, a) is orig for o, a, orig in patched)


def test_traced_run_matches_untraced_and_restores_wrappers():
    teacher, _ = pipeline.run_teacher_prep(_tiny("teacher-prep"))
    plain, _ = pipeline.run_student_prune(_tiny_prune(), teacher)
    tracer, traced, patched = _traced_prune(teacher)
    assert checkpoint.serialize(traced) == checkpoint.serialize(plain)
    assert all(getattr(o, a) is orig for o, a, orig in patched)
    m = per_layer_metrics(tracer, overhead_s=0.0)
    assert m["optim.step.calls"][0] == 6
    assert m["pruning.prune_step.calls"][0] == 6  # steps 0..5 with interval 1
    assert 0.0 < m["model.teacher_node_ratio"][0] < 1.0
    # Counts repeat exactly across runs of the same seed.
    again, _, _ = _traced_prune(teacher)
    for name in ("tensor.nodes", "model.teacher_node_ratio",
                 "pruning.prune_step.unchanged_ratio", "tensor.matmul.calls"):
        assert per_layer_metrics(again, 0.0)[name] == m[name]


def test_teacher_is_a_model_no_optimizer_of_the_stage_owns():
    cfg = config.default_config("teacher-prep")
    corpus = sparsekit.data.build_synthetic_corpus(1, 20, vocab_size=cfg.model.vocab)
    batch = sparsekit.data.make_mlm_batch(corpus, 0, 4, cfg.seq_len)
    student = sparsekit.build_model(cfg.model, 0)
    teacher = sparsekit.build_model(cfg.model, 1)
    tracer = Tracer()
    with tracer.installed(sparsekit):
        sparsekit.optim.Adam(student.parameters)
        student.forward_mlm(batch)
        teacher.forward_mlm(batch)
    tot = tracer.totals()
    assert tot["model.forward.student"][0] == tot["model.forward.teacher"][0] == 1
    assert tracer.teacher_nodes * 2 == tracer.nodes  # same shape, same node count


def test_second_seed_runs_clean():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "pipeline-default",
                           "--seed", "2", "--seconds", "0", "--trace", "0"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "error_rate" in proc.stdout and all(v["value"] > 0 for v in result["metrics"].values())

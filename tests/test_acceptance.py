"""Acceptance gate: eleven criteria with pinned tolerances.

Each criterion is one test; on completion it prints a single
"criterion NN [title]: PASS|FAIL" line (visible with pytest -s or in the
verbose test listing, where the test name encodes the criterion).
"""
import functools
import hashlib
import time

import numpy as np

from sparsekit import tensor as T
from sparsekit.checkpoint import (Checkpoint, build_record, checkpoint_from_model,
                                  deserialize, serialize)
from sparsekit.config import default_config
from sparsekit.distill import DistillConfig, combined_loss, kd_loss
from sparsekit.model import ModelConfig, build_model, prunable_parameter_names
from sparsekit.pipeline import run_chain, run_student_prune, run_transfer
from sparsekit.pruning import SparsitySchedule, prune_step, target_sparsity
from sparsekit.quant import activation_qparams, dequantize, fake_quant, weight_qparams
from sparsekit.report import compression_report, payload_size_ratio, schedule_export
from sparsekit.schedule import lr_base, lr_rewound
from sparsekit.tensor import Tensor

from oracles import astype, finite_diff_check, mean, soft_probs, sub


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{title}]: FAIL")
                raise
            print(f"criterion {num:2d} [{title}]: PASS")
        return wrapper
    return deco


# -- 1: cubic sparsity ramp vs an independent oracle -------------------------

def _ramp_oracle(s_i, s_f, t_s, t_e, t):
    if t < t_s:
        return s_i
    if t > t_e:
        return s_f
    return s_f + (s_i - s_f) * (1.0 - (t - t_s) / (t_e - t_s)) ** 3


@criterion(1, "schedule fidelity")
def test_criterion_01_schedule_fidelity():
    rng = np.random.Generator(np.random.PCG64(101))
    start = time.perf_counter()
    for _ in range(5):
        s_i = float(rng.uniform(0.0, 0.3))
        s_f = float(rng.uniform(0.5, 0.95))
        t_s = int(rng.integers(0, 100))
        t_e = t_s + int(rng.integers(100, 5000))
        sched = SparsitySchedule(s_i, s_f, t_s, t_e, t_e + 10, 1)
        steps = rng.integers(0, 2 * t_e, size=10_000)
        for t in steps:
            t = int(t)
            assert abs(target_sparsity(sched, t) - _ramp_oracle(s_i, s_f, t_s, t_e, t)) < 1e-9
        assert target_sparsity(sched, t_s) == s_i
        assert target_sparsity(sched, t_e) == s_f
    assert time.perf_counter() - start < 1.0


# -- 2: learning-rate rewinding ----------------------------------------------

@criterion(2, "LRR semantics")
def test_criterion_02_lrr_semantics(tmp_path):
    # the rewind window is the pruning window: steps 10-50, interval 10
    cfg = default_config("student-prune", lr=1.0, warmup_steps=10, steps=100,
                         pruning=SparsitySchedule(0.0, 0.9, 10, 40, 50, 10))
    for k in range(5):
        assert lr_rewound(cfg, 10 + k * 10) == lr_base(cfg, 10)
    for t in range(51, 101):
        assert lr_rewound(cfg, t) == lr_base(cfg, t)

    out = tmp_path / "sched.csv"
    schedule_export(cfg, out)
    lines = out.read_text().strip().splitlines()[1:]
    rewound = [float(line.split(",")[2]) for line in lines]
    # sawtooth: strictly decreasing inside each interval, jumping back up
    # to the start value at every rewind point
    for k in range(4):
        seg = rewound[10 + k * 10: 10 + (k + 1) * 10 + 1]
        assert all(b < a for a, b in zip(seg, seg[1:-1]))
        assert seg[-1] == rewound[10]  # the jump back up


# -- 3: pattern lock under 500 optimizer steps --------------------------------

def _zero_digest(ckpt):
    """Stable hash of the prunable tensors' zero pattern."""
    h = hashlib.sha256()
    for name in sorted(prunable_parameter_names(ckpt.model_config)):
        h.update(name.encode())
        h.update(np.packbits(ckpt.tensors[name].to_dense().reshape(-1) != 0).tobytes())
    return h.digest()


@criterion(3, "pattern lock")
def test_criterion_03_pattern_lock():
    start = time.perf_counter()
    model_cfg = ModelConfig(num_layers=1, hidden=16, heads=2, ffn_dim=32,
                            vocab=32, max_seq=16, has_pooler=True,
                            head_kind="classify", num_labels=3)
    model = build_model(model_cfg, seed=31)
    prune_step(model, None, 0.9)
    sparse = checkpoint_from_model(model, "student-prune")
    before = _zero_digest(sparse)

    cfg = default_config("transfer", seed=32, steps=500, kd_enabled=False,
                         model=model_cfg, weight_decay=0.01)
    after_ckpt, _ = run_transfer(cfg, sparse)
    assert _zero_digest(after_ckpt) == before
    assert time.perf_counter() - start < 120.0


# -- 4: magnitude pruning vs brute-force oracle --------------------------------

class _OneTensorModel:
    def __init__(self, w):
        self.parameters = {"w.weight": Tensor(w)}

    def prunable_parameters(self):
        return ["w.weight"]


@criterion(4, "magnitude-pruning exactness")
def test_criterion_04_pruning_exactness():
    rng = np.random.Generator(np.random.PCG64(104))
    for _ in range(100):
        n = int(rng.integers(1, 10_001))
        w = rng.standard_normal(n).astype(np.float32)
        # force ties so the lowest-flat-index rule is exercised
        dup = rng.integers(0, n, size=min(n, 16))
        w[dup] = np.float32(rng.uniform(0, 1))
        ratio = float(rng.uniform(0, 1))
        stub = _OneTensorModel(w.copy())
        masks = prune_step(stub, None, ratio)
        kept = set(np.flatnonzero(masks["w.weight"] == 1))
        k = int(np.floor(ratio * n))
        order = sorted(range(n), key=lambda i: (abs(w[i]), i))
        assert kept == set(order[k:])


# -- 5: gradient correctness --------------------------------------------------

@criterion(5, "gradient correctness")
def test_criterion_05_gradients():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(105))

    # every primitive, checked in 64-bit mode (constants fixed up front so
    # the loss is the same function at every finite-difference evaluation)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    other = rng.standard_normal((3, 4))
    m43 = rng.standard_normal((4, 3))
    cases = [
        lambda: mean(T.add(w, other)),
        lambda: mean(sub(w, other)),
        lambda: mean(T.mul(w, other)),
        lambda: mean(T.matmul(w, m43)),
        lambda: mean(T.transpose(w, (1, 0))),
        lambda: mean(T.mul(T.reshape(w, (12,)), np.arange(12.0))),
        lambda: mean(T.gelu(w)),
        lambda: mean(T.mul(T.softmax_last_axis(w), other)),
        lambda: mean(T.mul(T.layer_norm_last_axis(w), other)),
        lambda: T.cross_entropy_with_targets(w, np.array([0, 2, 3])),
        lambda: T.scale(mean(w), 3.7),
        lambda: mean(T.take_rows(w, np.array([0, 2]))),
    ]
    for loss_fn in cases:
        assert finite_diff_check(loss_fn, {"w": w}, "w", eps=1e-4) < 1e-3
    table = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    coeff = rng.standard_normal((2, 2, 4))
    lookup = lambda: mean(T.mul(T.embedding_lookup(table, np.array([[0, 2], [4, 2]])),
                                  coeff))
    assert finite_diff_check(lookup, {"t": table}, "t", eps=1e-4) < 1e-3

    # full combined loss on a 2-layer hidden-32 model in float64
    cfg = ModelConfig(num_layers=2, hidden=32, heads=4, ffn_dim=64, vocab=16,
                      max_seq=8, has_pooler=False, head_kind="mlm")
    student = astype(build_model(cfg, seed=51), np.float64)
    teacher = astype(build_model(cfg, seed=52), np.float64)

    from sparsekit.data import MlmBatch
    ids = rng.integers(5, 16, size=(2, 6))
    positions = np.array([1, 3, 8, 10])  # (0, 1), (0, 3), (1, 2), (1, 4)
    targets = ids.reshape(-1)[positions]
    ids.reshape(-1)[positions] = 1
    batch = MlmBatch(ids, positions, targets, np.ones((2, 6), dtype=np.int64))

    # forward_mlm's logits are the masked rows alone, the teacher's in the same order
    t_logits = teacher.forward_mlm(batch).logits.values.copy()
    distill = DistillConfig(temperature=2.0, lambda_pt=0.5, lambda_kd=0.5)

    def loss_fn():
        fw = student.forward_mlm(batch)
        l_kd = kd_loss(fw.logits, Tensor(t_logits), distill.temperature)
        return combined_loss(fw.loss, l_kd, distill)

    probe = ["embeddings.token", "embeddings.position", "layer.0.q.weight",
             "layer.1.ffn_out.weight", "layer.0.ln1.gain",
             "layer.1.attn_out.bias", "mlm_head.weight"]
    for name in probe:
        assert finite_diff_check(loss_fn, student.parameters, name, eps=1e-4) < 1e-3
    assert time.perf_counter() - start < 300.0


# -- 6: distillation identities ------------------------------------------------

@criterion(6, "KD identities")
def test_criterion_06_kd_identities():
    rng = np.random.Generator(np.random.PCG64(106))
    z = rng.standard_normal((6, 5))
    for temp in (1.0, 2.0):
        loss = float(kd_loss(Tensor(z), Tensor(z.copy()), temp).values)
        p = soft_probs(Tensor(z), temp).values
        entropy = float((-p * np.log(p)).sum(axis=-1).mean())
        assert abs(loss - entropy) < 1e-6

    uniform = Tensor(np.zeros((1, 4)))
    assert abs(float(kd_loss(uniform, Tensor(np.zeros((1, 4))), 1.0).values)
               - np.log(4)) < 1e-6

    zs, zt = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
    base = float(kd_loss(Tensor(zs), Tensor(zt), 2.0).values)
    shifted = float(kd_loss(Tensor(zs + 2.5), Tensor(zt - 4.0), 2.0).values)
    assert abs(shifted - base) < 1e-6


# -- 7: quantization bounds ------------------------------------------------------

@criterion(7, "quantization bounds")
def test_criterion_07_quant_bounds():
    rng = np.random.Generator(np.random.PCG64(107))

    w = rng.uniform(-1.5, 1.5, size=100_000).astype(np.float32)
    wp = weight_qparams(w)
    fq = fake_quant(Tensor(w), wp)
    assert float(np.abs(w - fq.values).max()) <= wp.scale / 2 + 1e-7
    again = fake_quant(fq, wp)
    assert again.values.tobytes() == fq.values.tobytes()

    x = rng.uniform(-0.7, 3.0, size=100_000).astype(np.float32)
    ap = activation_qparams(float(x.min()), float(x.max()))
    fqa = fake_quant(Tensor(x), ap)
    assert float(np.abs(x - fqa.values).max()) <= ap.scale / 2 + 1e-6
    assert fake_quant(fqa, ap).values.tobytes() == fqa.values.tobytes()
    # zero is exactly representable under the asymmetric parameters
    assert dequantize(np.array([ap.zero_point]), ap)[0] == 0.0
    assert fake_quant(Tensor(np.zeros(1, dtype=np.float32)), ap).values[0] == 0.0


# -- 8: compression arithmetic ----------------------------------------------------

def _divisible_model(seed=0):
    # every prunable tensor size divisible by 20, so 85% and 90% are exact
    cfg = ModelConfig(num_layers=1, hidden=40, heads=4, ffn_dim=80, vocab=16,
                      max_seq=8, has_pooler=True, head_kind="mlm")
    return build_model(cfg, seed=seed)


def _exact_ckpt(sparsity, bits, seed=0):
    model = _divisible_model(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors = {}
    for name, p in model.parameters.items():
        vals = rng.uniform(0.1, 1.0, size=p.shape).astype(np.float32)
        if name in model.prunable_parameters():
            flat = vals.reshape(-1)
            k = int(round(sparsity * flat.size))
            assert abs(k - sparsity * flat.size) < 1e-9
            flat[:k] = 0.0
            if bits == 8:
                tensors[name] = build_record(vals, 1.0 / 127, bitmap=True)
            else:
                tensors[name] = build_record(vals, bitmap=True)
        else:
            tensors[name] = build_record(vals)
    return Checkpoint("quantized" if bits == 8 else "student-prune",
                      model.config, tensors)


@criterion(8, "compression arithmetic")
def test_criterion_08_compression_arithmetic():
    rep = compression_report(_exact_ckpt(0.9, 8))
    assert rep.parameter_only_ratio == 40.0  # exact, zero tolerance
    assert payload_size_ratio(_exact_ckpt(0.85, 8), _exact_ckpt(0.9, 32)) == 0.375


# -- 9: end-to-end pipeline ----------------------------------------------------------

def _roundtrip_bit_exact(ckpt):
    raw = serialize(ckpt)
    return serialize(deserialize(raw)) == raw


@criterion(9, "end-to-end pipeline")
def test_criterion_09_pipeline():
    start = time.perf_counter()
    runs = run_chain({"teacher-prep": default_config("teacher-prep", seed=91),
                      "prune": default_config("student-prune", seed=92),
                      "task-teacher": default_config("transfer", seed=93, kd_enabled=False),
                      "transfer": default_config("transfer", seed=94),
                      "qat": default_config("qat", seed=95)})
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0

    sparse = runs["prune"][0]
    for name in prunable_parameter_names(sparse.model_config):
        w = sparse.tensors[name].to_dense()
        assert (w == 0).sum() == int(np.floor(0.9 * w.size))

    for ckpt, _ in runs.values():
        assert _roundtrip_bit_exact(ckpt)


# -- 10: ablation ordering ---------------------------------------------------------

@criterion(10, "ablation direction")
def test_criterion_10_ablations(teacher_ckpt, task_teacher_ckpt):
    def transfer_acc(start, seed, kd):
        cfg = default_config("transfer", seed=seed, kd_enabled=kd)
        _, metrics = run_transfer(cfg, start,
                                  teacher_ckpt=task_teacher_ckpt if kd else None)
        return metrics.summary["val_accuracy"]

    def sparse_student(seed, lrr):
        cfg = default_config("student-prune", seed=seed, lrr_enabled=lrr)
        ckpt, _ = run_student_prune(cfg, teacher_ckpt)
        return ckpt

    seeds = (201, 202)

    sparse = {s: sparse_student(s, lrr=True) for s in seeds}
    with_kd = np.mean([transfer_acc(sparse[s], s + 10, kd=True) for s in seeds])
    without_kd = np.mean([transfer_acc(sparse[s], s + 10, kd=False) for s in seeds])
    assert with_kd >= without_kd - 0.005
    if abs(with_kd - without_kd) <= 0.005:
        print(f"criterion 10 note: KD ablation tied within 0.5 pts "
              f"({with_kd:.4f} vs {without_kd:.4f}) -- flagged, allowed")

    no_lrr = {s: sparse_student(s, lrr=False) for s in seeds}
    with_lrr = np.mean([transfer_acc(sparse[s], s + 20, kd=False) for s in seeds])
    without_lrr = np.mean([transfer_acc(no_lrr[s], s + 20, kd=False) for s in seeds])
    assert with_lrr >= without_lrr - 0.005
    if abs(with_lrr - without_lrr) <= 0.005:
        print(f"criterion 10 note: LRR ablation tied within 0.5 pts "
              f"({with_lrr:.4f} vs {without_lrr:.4f}) -- flagged, allowed")


# -- 11: determinism -----------------------------------------------------------------

@criterion(11, "determinism")
def test_criterion_11_determinism(task_teacher_ckpt):
    cfgs = {"teacher-prep": default_config("teacher-prep", seed=111),
            "prune": default_config("student-prune", seed=112),
            "transfer": default_config("transfer", seed=113),
            "qat": default_config("qat", seed=114)}
    runs_a, runs_b = (run_chain(cfgs, {"task-teacher": task_teacher_ckpt}) for _ in range(2))
    for (ckpt_a, metrics_a), (ckpt_b, metrics_b) in zip(runs_a.values(), runs_b.values()):
        assert serialize(ckpt_a) == serialize(ckpt_b)
        assert metrics_a.to_csv_text() == metrics_b.to_csv_text()

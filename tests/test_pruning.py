import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from sparsekit.model import ModelConfig, build_model
from sparsekit.pruning import (SparsitySchedule, _magnitude_mask, holds_pattern, lock_pattern,
                               prune_step, prunes_at, restore_pattern, rewound_step,
                               sparsity_report, target_sparsity)
from sparsekit.tensor import ContractError, Tensor


SCHED = SparsitySchedule(initial_sparsity=0.0, final_sparsity=0.9,
                         start_step=0, policy_end_step=100, end_step=100, interval=1)


def tiny_model(**kw):
    cfg = ModelConfig(num_layers=1, hidden=8, heads=2, ffn_dim=16, vocab=16,
                      max_seq=8, has_pooler=False, head_kind="mlm", **kw)
    return build_model(cfg, seed=0)


def test_target_sparsity_boundaries():
    assert target_sparsity(SCHED, 0) == 0.0
    assert target_sparsity(SCHED, 100) == 0.9
    assert target_sparsity(SCHED, 1000) == 0.9


def test_zero_length_ramp_is_one_shot():
    """start == policy_end: the final target from the start step on."""
    for start in (0, 10):
        sched = SparsitySchedule(0.2, 0.9, start, start, start + 5, 5)
        assert target_sparsity(sched, start) == 0.9
        assert target_sparsity(sched, start + 5) == 0.9
        if start:
            assert target_sparsity(sched, start - 1) == 0.2


def test_window_rules_match_their_earlier_inline_form():
    """The window rules as `_train` and `lr_rewound` wrote them inline, before
    they moved here, are the oracle: every window with start 0-3, gaps of 0-4
    to policy_end and to end, interval 1-5, so ends on and off the interval
    grid, at every step up to two past the end."""
    for start, ramp, hold, interval in itertools.product(range(4), range(5), range(5),
                                                          range(1, 6)):
        sp = SparsitySchedule(0.0, 0.9, start, start + ramp, start + ramp + hold, interval)
        for t in range(sp.end_step + 3):
            inside = sp.start_step <= t <= sp.end_step
            prunes = inside and ((t - sp.start_step) % sp.interval == 0 or t == sp.end_step)
            lr_step = sp.start_step + (t - sp.start_step) % sp.interval if inside else t
            assert prunes_at(sp, t) == prunes, (sp, t)
            assert holds_pattern(sp, t) == (t >= sp.end_step), (sp, t)
            assert rewound_step(sp, t) == lr_step, (sp, t)


def test_target_sparsity_midpoint():
    assert target_sparsity(SCHED, 50) == pytest.approx(0.7875, abs=1e-12)


def test_target_sparsity_monotone_and_continuous():
    vals = [target_sparsity(SCHED, t) for t in range(0, 201)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # continuity at the window edges
    assert abs(target_sparsity(SCHED, 0) - 0.0) < 1e-12
    assert abs(target_sparsity(SCHED, 100) - 0.9) < 1e-12


def test_schedule_invariants():
    with pytest.raises(ContractError):
        SparsitySchedule(0.5, 0.4, 0, 10, 20, 1)
    with pytest.raises(ContractError):
        SparsitySchedule(0.0, 0.9, 10, 5, 20, 1)
    with pytest.raises(ContractError):
        SparsitySchedule(0.0, 0.9, 0, 10, 20, 0)


def _model_with_weight(values):
    model = tiny_model()
    name = model.prunable_parameters()[0]
    flat = np.zeros(model.parameters[name].size, dtype=np.float32)
    flat[:len(values)] = values
    # keep the rest large so only the planted prefix competes
    flat[len(values):] = 100.0
    model.parameters[name].values = flat.reshape(model.parameters[name].shape)
    return model, name


def test_prune_step_example():
    w = np.array([0.1, -0.5, 0.3, 0.05], dtype=np.float32)
    model, name = _model_with_weight(w)
    n = model.parameters[name].size
    ratio = 2 / n  # prune exactly two entries: the two smallest overall
    masks = prune_step(model, None, ratio)
    np.testing.assert_array_equal(masks[name].reshape(-1)[:4], [0, 1, 1, 0])
    np.testing.assert_array_equal(model.parameters[name].values.reshape(-1)[:4],
                                  np.array([0, -0.5, 0.3, 0], dtype=np.float32))


def test_prune_ratio_zero_is_identity():
    model = tiny_model()
    name = model.prunable_parameters()[0]
    before = model.parameters[name].values.copy()
    masks = prune_step(model, None, 0.0)
    assert masks[name].all()
    np.testing.assert_array_equal(model.parameters[name].values, before)


def test_prune_tie_break_lowest_index_first():
    w = np.array([0.2, -0.2, 0.3], dtype=np.float32)
    model, name = _model_with_weight(w)
    n = model.parameters[name].size
    masks = prune_step(model, None, 1 / n)
    np.testing.assert_array_equal(masks[name].reshape(-1)[:3], [0, 1, 1])


def test_prune_ratio_out_of_range():
    with pytest.raises(ContractError):
        prune_step(tiny_model(), None, 1.5)


def test_prune_matches_bruteforce_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    model = tiny_model()
    for trial in range(20):
        name = model.prunable_parameters()[trial % 6]
        p = model.parameters[name]
        w = rng.standard_normal(p.shape).astype(np.float32)
        # inject duplicates to exercise the tie-break
        w.reshape(-1)[rng.integers(0, w.size, size=8)] = 0.25
        p.values = w.copy()
        ratio = float(rng.uniform(0, 1))
        masks = prune_step(model, None, ratio)
        k = int(np.floor(ratio * w.size))
        # oracle: stable sort by (|w|, flat index)
        order = sorted(range(w.size), key=lambda i: (abs(w.reshape(-1)[i]), i))
        pruned = set(order[:k])
        got = set(np.flatnonzero(masks[name].reshape(-1) == 0))
        assert got == pruned


def _argsort_mask(w, ratio):
    """Reference: rank by a stable argsort of |w| and zero the first floor(ratio*n)."""
    k = int(np.floor(ratio * w.size))
    mask = np.ones(w.size, dtype=bool)
    mask[np.argsort(np.abs(w.reshape(-1)), kind="stable")[:k]] = False
    return mask.reshape(w.shape)


def _ninety_percent_zeros(rng, shape):
    w = rng.standard_normal(shape).astype(np.float32)
    w.reshape(-1)[rng.permutation(w.size)[:int(0.9 * w.size)]] = 0.0
    return w


def _fuzz_tensors(rng):
    """Random shapes up to (128, 512): plain normal, heavy ties over
    {+-0, +-1, 0.5, +-inf, NaN}, and 90%-zero tensors as in the prune window."""
    special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan], dtype=np.float32)
    for trial in range(60):
        shape = (int(rng.integers(1, 129)), int(rng.integers(1, 513)))
        kind = trial % 3
        if kind == 0:
            yield rng.standard_normal(shape).astype(np.float32)
        elif kind == 1:
            yield rng.choice(special, size=shape)
        else:
            yield _ninety_percent_zeros(rng, shape)
    yield _ninety_percent_zeros(rng, (128, 512))
    for v in special:
        yield np.full((1, 1), v, dtype=np.float32)
    yield np.array([np.nan, 0.0, np.nan, 2.0, -np.inf, np.nan], dtype=np.float32)


def test_magnitude_mask_matches_stable_argsort():
    rng = np.random.Generator(np.random.PCG64(2024))
    for w in _fuzz_tensors(rng):
        for ratio in [0.0, 1.0, *rng.uniform(0, 1, size=3)]:
            got = _magnitude_mask(w, ratio)
            want = _argsort_mask(w, ratio)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (w.shape, ratio)


def test_prune_step_zeroes_in_place():
    """Each prunable weight keeps its array object, and its bits become
    np.where(mask, w, 0): a pruned negative or -0.0 turns +0.0."""
    model = tiny_model()
    names = model.prunable_parameters()
    for name in names:
        model.parameters[name].values.reshape(-1)[:2] = -0.0
    arrays = {n: model.parameters[n].values for n in names}
    before = {n: a.copy() for n, a in arrays.items()}
    masks = prune_step(model, None, 0.6)
    for name in names:
        w = model.parameters[name].values
        assert w is arrays[name], name
        want = np.where(masks[name], before[name], np.float32(0.0))
        assert w.tobytes() == want.tobytes(), name
        assert (before[name][~masks[name]] < 0).any() and not np.signbit(w[~masks[name]]).any()


def test_prune_idempotent_at_fixed_ratio():
    model = tiny_model()
    m1 = prune_step(model, None, 0.5)
    w_after = {n: model.parameters[n].values.copy() for n in model.prunable_parameters()}
    m2 = prune_step(model, m1, 0.5)
    for name in m1:
        np.testing.assert_array_equal(m1[name], m2[name])
        np.testing.assert_array_equal(model.parameters[name].values, w_after[name])


def test_lock_pattern():
    model = tiny_model()
    name = model.prunable_parameters()[0]
    flat = model.parameters[name].values.reshape(-1)
    flat[:3] = [0.0, 2.0, -3.0]
    masks = lock_pattern(model)
    np.testing.assert_array_equal(masks[name].reshape(-1)[:3], [0, 1, 1])


def test_lock_pattern_dense_is_none():
    """A model with no zero prunable weight has no pattern to hold."""
    model = tiny_model()
    for n in model.prunable_parameters():
        assert (model.parameters[n].values != 0).all()
    assert lock_pattern(model) is None


def test_lock_pattern_sparsity_matches():
    model = tiny_model()
    prune_step(model, None, 0.9)
    masks = lock_pattern(model)
    for n in masks:
        size = masks[n].size
        assert (masks[n] == 0).sum() == int(np.floor(0.9 * size))


@pytest.mark.parametrize("ratio", [0.0, 0.5])
def test_masks_are_bool(ratio):
    """One byte per weight: prune_step's masks (the all-kept ratio-0 path
    too) and lock_pattern's are bool, True where the weight is kept. After
    the ratio-0 step no weight is zero, and lock_pattern gives None."""
    model = tiny_model()
    pruned, locked = prune_step(model, None, ratio), lock_pattern(model)
    assert (locked is None) == (ratio == 0.0)
    for masks in (pruned, locked or pruned):
        assert list(masks) == model.prunable_parameters()
        for n, m in masks.items():
            assert m.dtype == np.bool_ and m.shape == model.parameters[n].shape, n
            assert (m == (model.parameters[n].values != 0)).all(), n


def test_sparsity_report():
    model = tiny_model()
    rep = sparsity_report(model)
    assert rep.aggregate == 0.0
    assert set(rep.per_tensor) == set(model.prunable_parameters())
    assert "embeddings.token" not in rep.per_tensor

    prune_step(model, None, 0.85)
    rep = sparsity_report(model)
    for name, s in rep.per_tensor.items():
        n = model.parameters[name].size
        assert s == int(np.floor(0.85 * n)) / n
    sizes = [model.parameters[n].size for n in rep.per_tensor]
    assert rep.aggregate == sum(int(np.floor(0.85 * n)) for n in sizes) / sum(sizes)


def test_sparsity_report_counts_signed_zeros_not_nan():
    """Zeros counted as by `(w == 0).sum()`: -0.0 is a zero, NaN is not; and
    every field is a Python number, as the metrics CSV prints it."""
    model = tiny_model()
    rng = np.random.Generator(np.random.PCG64(5))
    for name in model.prunable_parameters():
        flat = model.parameters[name].values.reshape(-1)
        flat[rng.random(flat.size) < 0.3] = -0.0
        flat[rng.random(flat.size) < 0.2] = 0.0
        flat[rng.random(flat.size) < 0.1] = np.nan
    rep = sparsity_report(model)
    ref, zeros, total = {}, 0, 0
    for name in model.prunable_parameters():
        w = model.parameters[name].values
        z = int((w == 0).sum())
        ref[name] = z / w.size
        zeros, total = zeros + z, total + w.size
    assert rep.per_tensor == ref and rep.aggregate == zeros / total
    assert all(type(v) is float for v in [rep.aggregate, *rep.per_tensor.values()])


def _bits(a):
    a = np.asarray(a)
    return a.view(f"u{a.itemsize}")


def _special_weights(dtype, seed):
    """(20, 20) weights, half of them drawn from `specials`: -0.0, +0.0,
    NaNs of both signs, +-inf, the smallest subnormals and the tie +-0.25."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 0.25, -0.25],
                        dtype=dtype)
    w = rng.standard_normal(400).astype(dtype)
    at = rng.permutation(400)[:200]
    w[at] = specials[rng.integers(0, specials.size, at.size)]
    return w.reshape(20, 20), specials


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pruning_writes_match_where_and_bool_assignment(dtype):
    """prune_step writes np.where(m, w, 0) and restore_pattern writes
    w[~m] = 0.0, bit for bit, with every special value on both sides of the
    mask: a pruned -x, -0.0 or -NaN becomes +0.0, where w * m gives -0.0,
    and a pruned inf becomes +0.0, where w * m gives NaN. sparsity_report
    counts -0.0 as zero and NaN as nonzero."""
    rng = np.random.Generator(np.random.PCG64(9))
    for ratio in (0.0, 0.3, 0.7, 0.95, 1.0):
        w0, specials = _special_weights(dtype, int(ratio * 100))
        params = {"w.weight": Tensor(w0.copy())}
        model = SimpleNamespace(parameters=params, prunable_parameters=lambda: ["w.weight"])
        m = prune_step(model, None, ratio)["w.weight"]
        got = params["w.weight"].values
        assert got.dtype == dtype and got.tobytes() == np.where(m, w0, dtype(0.0)).tobytes()

        m = rng.random(w0.shape) < 0.5
        for x in specials:
            at = _bits(w0) == _bits(x)
            assert (at & m).any() and (at & ~m).any(), x
        want = w0.copy()
        want[~m] = 0.0
        params["w.weight"].values = w0.copy()
        restore_pattern(model, {"w.weight": m})
        assert params["w.weight"].values.tobytes() == want.tobytes()

        params["w.weight"].values = w0
        zeros = np.isin(_bits(w0), _bits(specials[:2])).sum()  # the bits of -0.0 and +0.0
        assert sparsity_report(model).aggregate == zeros / w0.size

from dataclasses import replace

import pytest

from sparsekit.config import default_config, load_config, parse_config_text
from sparsekit.model import ConfigError
from sparsekit.schedule import lr_base, lr_rewound


def test_defaults_per_stage():
    tp = default_config("teacher-prep")
    assert tp.pruning is None
    assert tp.steps == 100 and tp.batch_size == 16
    assert tp.distill.lambda_pt == 0.5 and tp.distill.temperature == 2.0

    sp = default_config("student-prune")
    assert sp.pruning is not None
    assert (sp.pruning.start_step, sp.pruning.policy_end_step,
            sp.pruning.end_step, sp.pruning.interval) == (10, 50, 80, 10)
    assert sp.pruning.final_sparsity == 0.9
    assert (tp.warmup_steps, sp.warmup_steps) == (1, 0)

    tr = default_config("transfer")
    assert tr.model.head_kind == "classify"
    assert tr.distill.lambda_pt == 0.0 and tr.distill.lambda_kd == 1.0

    qat = default_config("qat")
    assert qat.lr == pytest.approx(1e-4)


def test_unknown_stage():
    with pytest.raises(ConfigError):
        default_config("mystery")


def test_stage_pruning_contract():
    with pytest.raises(ConfigError, match="requires a pruning"):
        default_config("student-prune", pruning=None)
    sp = default_config("student-prune")
    for stage in ("teacher-prep", "transfer", "qat"):
        with pytest.raises(ConfigError, match=f"{stage} takes no pruning section"):
            default_config(stage, pruning=sp.pruning)
        with pytest.raises(ConfigError, match=f"{stage} takes no pruning section"):
            parse_config_text(f"[run]\nstage = {stage}\n[pruning]\ninterval = 5\n")


def test_distillation_without_a_kd_weight_is_config_error():
    """A stage that distils with lambda_kd = 0 would run a teacher forward per
    step that no loss reads. Teacher-prep has no teacher, so its kd is moot."""
    for stage in ("student-prune", "transfer", "qat", "finetune-prune-baseline"):
        text = f"[run]\nstage = {stage}\n[distill]\nlambda_pt = 1\nlambda_kd = 0\n"
        with pytest.raises(ConfigError, match="^lambda_kd = 0 leaves the teacher unused; "
                                              "set kd = false$"):
            parse_config_text(text)
        assert not parse_config_text(text + "[run]\nkd = false\n").kd_enabled
    assert parse_config_text("[run]\nstage = teacher-prep\n[distill]\nlambda_pt = 1\n"
                             "lambda_kd = 0\n").kd_enabled


def test_lr_schedule_wiring():
    """The rewind window is the pruning window, steps 10-80 at interval 10."""
    sp = default_config("student-prune")
    for t in range(10, 81):
        assert lr_rewound(sp, t) == lr_base(sp, 10 + (t - 10) % 10)
    for t in [*range(10), *range(81, 101)]:
        assert lr_rewound(sp, t) == lr_base(sp, t)
    # with rewinding off the sawtooth disappears
    plain = default_config("student-prune", lrr_enabled=False)
    for t in range(101):
        assert lr_rewound(plain, t) == lr_base(plain, t)
    assert lr_rewound(plain, 30) == pytest.approx(plain.lr * (100 - 30) / 100)


@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_default_prune_window_trains_at_every_step(stage):
    """Rewinding restarts each interval at the window's first LR, which is
    above 0 at the defaults: no step of the window runs at LR 0."""
    cfg = default_config(stage)
    w = cfg.pruning
    assert cfg.lrr_enabled and w.start_step >= cfg.warmup_steps and w.interval > 1
    assert all(lr_rewound(cfg, t) > 0 for t in range(w.start_step, w.end_step + 1))


@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_rewinding_to_lr_zero_is_config_error(stage):
    """With lrr on, a window that starts where lr_base is 0 (step 0 under
    warmup) would rewind to LR 0 every interval, so it never trains."""
    want = (r"^lrr rewinds to LR 0: lr_base is 0 at pruning start_step 0 \(warmup_steps 10\); "
            r"start the window later or set lrr = false$")
    start0 = replace(default_config(stage).pruning, start_step=0)
    with pytest.raises(ConfigError, match=want):
        default_config(stage, pruning=start0, warmup_steps=10)
    with pytest.raises(ConfigError, match=want):
        parse_config_text(f"[run]\nstage = {stage}\n[schedule]\nwarmup_steps = 10\n"
                          f"[pruning]\nstart_step = 0\n")
    # each way out: rewinding off, no warmup, or a window that opens after step 0
    assert not default_config(stage, pruning=start0, warmup_steps=10, lrr_enabled=False).lrr_enabled
    assert lr_rewound(default_config(stage, pruning=start0), 0) == 0.01
    assert default_config(stage, pruning=replace(start0, start_step=1),
                          warmup_steps=10).pruning.start_step == 1


def test_digest_sensitive_to_fields():
    a = default_config("teacher-prep", seed=1)
    b = default_config("teacher-prep", seed=1)
    c = default_config("teacher-prep", seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 32


CONFIG_TEXT = """
# training run
[run]
stage = student-prune
steps = 60
seed = 11
kd = true
lrr = false

[model]
hidden = 16
heads = 2
ffn_dim = 32

[optimizer]
lr = 0.02
weight_decay = 0.0

[pruning]
final_sparsity = 0.8
policy_end_step = 30
end_step = 50

[data]
num_sequences = 50
"""


def test_parse_full_file():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.stage == "student-prune"
    assert cfg.steps == 60 and cfg.seed == 11
    assert cfg.model.hidden == 16 and cfg.model.ffn_dim == 32
    assert cfg.lr == 0.02 and cfg.weight_decay == 0.0
    assert cfg.pruning.final_sparsity == 0.8
    assert cfg.pruning.start_step == 10  # default retained
    assert cfg.data.num_sequences == 50
    assert cfg.kd_enabled and not cfg.lrr_enabled


def test_parse_comments_and_blanks():
    cfg = parse_config_text("[run]\nstage = teacher-prep  # inline note\n\n")
    assert cfg.stage == "teacher-prep"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="line 1.*unknown section"):
        parse_config_text("[banana]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config_text("[run]\nstge = teacher-prep\n")


@pytest.mark.parametrize("text, line, key, section", [
    ("[run]\nstage = teacher-prep\nsteps = 5\nsteps = 7\n", 4, "steps", "run"),
    ("[run]\nstage = teacher-prep\n[optimizer]\nlr = 0.1\n[run]\nsteps = 5\n"
     "[optimizer]\nlr = 0.2\n", 8, "lr", "optimizer"),
], ids=["one-block", "repeated-header"])
def test_key_set_twice_rejected(text, line, key, section):
    """A repeated key is an error naming its second line, not a silent
    last-value-wins, also when the section's header appears twice."""
    with pytest.raises(ConfigError, match=rf"^line {line}: key '{key}' is set twice in "
                                          rf"section \[{section}\]$"):
        parse_config_text(text)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("stage = teacher-prep\n")


def test_bad_value_type():
    with pytest.raises(ConfigError, match="line 2.*steps"):
        parse_config_text("[run]\nsteps = many\nstage = teacher-prep\n")


def test_bad_boolean():
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("[run]\nstage = teacher-prep\nkd = maybe\n")


def test_missing_stage():
    with pytest.raises(ConfigError, match="stage"):
        parse_config_text("[run]\nsteps = 10\n")


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CONFIG_TEXT)
    assert load_config(p).stage == "student-prune"


@pytest.mark.parametrize("key", ["steps", "batch_size", "log_every"])
@pytest.mark.parametrize("value", [0, -3])
def test_out_of_range_run_values_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        default_config("teacher-prep", **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        parse_config_text(f"[run]\nstage = teacher-prep\n{key} = {value}\n")


@pytest.mark.parametrize("value", [1, 0, -1])
def test_seq_len_below_two_rejected(value):
    with pytest.raises(ConfigError, match=f"seq_len must be >= 2, got {value}"):
        default_config("transfer", seq_len=value)
    with pytest.raises(ConfigError, match=f"seq_len must be >= 2, got {value}"):
        parse_config_text(f"[run]\nstage = teacher-prep\nseq_len = {value}\n")


# The mask freezes at end_step; a window that reaches the last step never
# freezes, with learning-rate rewinding on or off.
@pytest.mark.parametrize("end_step", [10, 15])
@pytest.mark.parametrize("lrr", [True, False])
@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_prune_window_must_end_before_last_step(stage, lrr, end_step):
    want = f"pruning end_step {end_step} must be below steps 10"
    sp = replace(default_config(stage).pruning, start_step=0)
    with pytest.raises(ConfigError, match=want):
        default_config(stage, steps=10, lrr_enabled=lrr,
                       pruning=replace(sp, policy_end_step=5, end_step=end_step))
    text = (f"[run]\nstage = {stage}\nsteps = 10\nlrr = {str(lrr).lower()}\n"
            f"[pruning]\nstart_step = 0\npolicy_end_step = 5\nend_step = {end_step}\n")
    with pytest.raises(ConfigError, match=want):
        parse_config_text(text)
    assert default_config(stage, steps=10, lrr_enabled=lrr,
                          pruning=replace(sp, policy_end_step=5, end_step=9)).steps == 10

import pytest

from sparsekit.config import default_config
from sparsekit.model import ConfigError
from sparsekit.pruning import SparsitySchedule
from sparsekit.schedule import lr_base, lr_rewound
from sparsekit.tensor import ContractError


def _plain(lr, warmup, steps=100):
    """A stage with no pruning window: rewinding never applies."""
    return default_config("teacher-prep", lr=lr, warmup_steps=warmup, steps=steps)


def _windowed(lr, warmup, start, interval, end, steps=100):
    """A pruning stage whose window [start, end] rewinds every interval."""
    return default_config("student-prune", lr=lr, warmup_steps=warmup, steps=steps,
                          pruning=SparsitySchedule(0.0, 0.9, start, end, end, interval))


def test_warmup_start_is_zero():
    s = _plain(1.0, 10)
    assert lr_base(s, 0) == 0.0


def test_warmup_end_is_base():
    s = _plain(0.5, 10)
    assert lr_base(s, 10) == 0.5


def test_linear_decay():
    s = _plain(1.0, 0)
    assert lr_base(s, 25) == pytest.approx(0.75)
    assert lr_base(s, 100) == 0.0


def test_lr_base_out_of_range():
    s = _plain(1.0, 0)
    with pytest.raises(ContractError):
        lr_base(s, 101)
    with pytest.raises(ContractError):
        lr_base(s, -1)


def test_rewound_sawtooth():
    s = _windowed(1.0, 0, 0, 10, 50)
    assert lr_rewound(s, 15) == pytest.approx(lr_base(s, 5))
    assert lr_rewound(s, 15) == pytest.approx(0.95)


def test_rewound_passthrough_after_window():
    s = _windowed(1.0, 0, 0, 10, 50)
    assert lr_rewound(s, 60) == pytest.approx(0.40)
    for t in range(51, 101):
        assert lr_rewound(s, t) == lr_base(s, t)


def test_rewind_points_equal_start_value():
    s = _windowed(1.0, 0, 0, 10, 50)
    for k in range(6):
        assert lr_rewound(s, k * 10) == lr_base(s, 0)


def test_rewound_equals_base_without_rewind():
    s = _plain(1.0, 5)
    for t in range(101):
        assert lr_rewound(s, t) == lr_base(s, t)


def test_window_nonincreasing_and_bounded():
    s = _windowed(1.0, 10, 10, 10, 50)
    for start in range(10, 50, 10):
        window = [lr_rewound(s, t) for t in range(start, min(start + 10, 51))]
        assert all(b <= a for a, b in zip(window, window[1:]))
        assert window[0] == lr_base(s, 10)
    for t in range(101):
        assert 0.0 <= lr_rewound(s, t) <= 1.0


def test_schedule_invariants():
    """Every value the schedules read is checked when the config is built."""
    with pytest.raises(ConfigError, match="lr must be positive"):
        _plain(0.0, 0)
    with pytest.raises(ConfigError, match=r"warmup_steps must lie in \[0, 100\], got 101"):
        _plain(1.0, 101)
    with pytest.raises(ConfigError, match=r"warmup_steps must lie in \[0, 100\], got -1"):
        _plain(1.0, -1)
    with pytest.raises(ContractError, match="require start <= policy_end <= end step"):
        _windowed(1.0, 0, 50, 10, 40)
    with pytest.raises(ContractError, match="pruning interval must be >= 1"):
        _windowed(1.0, 0, 0, 0, 50)
    with pytest.raises(ContractError, match="pruning start_step must be >= 0, got -1"):
        _windowed(1.0, 0, -1, 10, 50)

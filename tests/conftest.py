import pytest

from sparsekit.config import default_config
from sparsekit.pipeline import run_chain


@pytest.fixture(scope="session")
def default_chain():
    """(checkpoint, metrics) of each node up to QAT, at desk defaults and seeds 1-5."""
    return run_chain({"teacher-prep": default_config("teacher-prep", seed=1),
                      "prune": default_config("student-prune", seed=2),
                      "task-teacher": default_config("transfer", seed=3, kd_enabled=False),
                      "transfer": default_config("transfer", seed=4),
                      "qat": default_config("qat", seed=5)})


def _node_fixture(name, node):
    @pytest.fixture(scope="session", name=name)
    def fixture(default_chain):
        return default_chain[node][0]
    return fixture


teacher_ckpt = _node_fixture("teacher_ckpt", "teacher-prep")
sparse_ckpt = _node_fixture("sparse_ckpt", "prune")
task_teacher_ckpt = _node_fixture("task_teacher_ckpt", "task-teacher")
finetuned_ckpt = _node_fixture("finetuned_ckpt", "transfer")
qat_ckpt = _node_fixture("qat_ckpt", "qat")

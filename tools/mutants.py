"""Run seeded mutants of sparsekit against the tier-1 suite.

    python3 tools/mutants.py

Run from anywhere inside a sparsekit checkout. A mutant is an exact-string
patch of one file under `src/sparsekit/`, which must match exactly once,
plus the IDs of the tests expected to kill it. For each mutant the tool
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
applies the patch there and runs the tier-1 suite on the copy, two mutants
at a time with BLAS on one thread. Nothing is written into the checkout.

Per mutant it prints the tests that failed, with the byte pins (the golden
tests, such as the one that holds `GOLDEN_CHAIN`, and every `*_bytes_*`
test) in a column of their own, since a pin fails on any change of the
arithmetic, right or wrong. It exits 1 if a mutant is killed by no test
that is not a byte pin, or if an expected killer passed; ROADMAP item 11
lists the known gaps. The patches are checked against the checkout by
`tests/test_mutants.py`, which the mutant runs leave out. The suite is
taken to pass on the checkout itself.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
# this file's own check runs on the checkout, not on a mutated copy
SELF_TEST = "tests/test_mutants.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/sparsekit/
    old: str
    new: str
    killers: tuple  # test IDs, written tests.test_x::test_y[case]


WINDOW_ORACLE = "tests.test_pruning::test_window_rules_match_their_earlier_inline_form"
ANY_INTERVAL = "tests.test_pipeline::test_pruning_meets_target_for_any_interval"

MUTANTS = (
    Mutant("mask steps without end_step", "pruning.py",
           "    return t == sched.end_step or rewound_step(sched, t) == sched.start_step\n",
           "    return rewound_step(sched, t) == sched.start_step\n",
           (WINDOW_ORACLE, f"{ANY_INTERVAL}[student-prune-7]")),
    Mutant("rewound step without its start_step offset", "pruning.py",
           "    return sched.start_step + (t - sched.start_step) % sched.interval if inside else t\n",
           "    return (t - sched.start_step) % sched.interval if inside else t\n",
           (WINDOW_ORACLE, "tests.test_acceptance::test_criterion_02_lrr_semantics",
            "tests.test_schedule::test_window_nonincreasing_and_bounded")),
    Mutant("pattern held from end_step + 1", "pruning.py",
           "    return t >= sched.end_step\n",
           "    return t > sched.end_step\n",
           (WINDOW_ORACLE, f"{ANY_INTERVAL}[student-prune-1]")),
    Mutant("restore_pattern call dropped from _train", "pipeline.py",
           "                    restore_pattern(model, masks)\n",
           "                    pass\n",
           ("tests.test_acceptance::test_criterion_03_pattern_lock",
            "tests.test_pipeline::test_transfer_locks_pattern",
            "tests.test_pipeline::test_qat_preserves_zero_pattern",
            "tests.test_pipeline::test_student_prune_hits_exact_sparsity")),
    Mutant("ramp tests start_step before policy_end_step", "pruning.py",
           "    if t >= sched.policy_end_step:\n"
           "        return sched.final_sparsity\n"
           "    if t <= sched.start_step:\n"
           "        return sched.initial_sparsity\n",
           "    if t <= sched.start_step:\n"
           "        return sched.initial_sparsity\n"
           "    if t > sched.policy_end_step:\n"
           "        return sched.final_sparsity\n",
           ("tests.test_pruning::test_zero_length_ramp_is_one_shot",
            f"{ANY_INTERVAL}[student-prune-one-shot-10-10-10-5]",
            f"{ANY_INTERVAL}[student-prune-one-shot-10-10-15-5]")),
    Mutant("LR pinned to 0 in the window", "schedule.py",
           "    return lr_base(cfg, rewound_step(cfg.pruning, t) if rewinds else t)\n",
           "    window = rewinds and cfg.pruning.start_step <= t <= cfg.pruning.end_step\n"
           "    return 0.0 if window else lr_base(cfg, t)\n",
           ("tests.test_acceptance::test_criterion_02_lrr_semantics",
            "tests.test_schedule::test_rewound_sawtooth",
            "tests.test_config::test_default_prune_window_trains_at_every_step[student-prune]")),
    Mutant("Adam run table built once", "optim.py",
           "        for start, stop, spans, decayed in self._runs():\n",
           "        if self.t == 1:\n"
           "            self._table = self._runs()\n"
           "        for start, stop, spans, decayed in self._table:\n",
           tuple(f"tests.test_optim::test_flat_step_bit_equal_to_per_parameter_loop[{case}]"
                 for case in ("None", "1", "20"))),
    Mutant("ties taken from the highest index", "pruning.py",
           "    pruned[np.flatnonzero(tie)[:k - np.count_nonzero(pruned)]] = True\n",
           "    pruned[np.flatnonzero(tie)[::-1][:k - np.count_nonzero(pruned)]] = True\n",
           ("tests.test_acceptance::test_criterion_04_pruning_exactness",
            "tests.test_pruning::test_magnitude_mask_matches_stable_argsort",
            "tests.test_pruning::test_prune_matches_bruteforce_oracle",
            "tests.test_pruning::test_prune_tie_break_lowest_index_first")),
)

def is_byte_pin(test_id: str) -> bool:
    name = test_id.split("::", 1)[-1]
    return "golden" in name or "_bytes_" in name


def patched(mutant: Mutant, text: str) -> str:
    """`text` with the mutant's patch applied; a patch that does not match
    exactly once is an error, so a stale mutant cannot pass unnoticed."""
    n = text.count(mutant.old)
    if n != 1:
        raise ValueError(f"mutant {mutant.name!r}: its patch matches {n} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _start(mutant: Mutant, tree: Path) -> subprocess.Popen:
    """Copy the checkout's sources and tests into `tree`, mutate the copy and
    start the suite on it."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", tree)
    target = tree / "src" / "sparsekit" / mutant.path
    target.write_text(patched(mutant, target.read_text(encoding="utf-8")), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # an installed sparsekit must not shadow the mutated copy
    where = subprocess.run([sys.executable, "-c", "import sparsekit; print(sparsekit.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if where.returncode == 0 and not Path(where.stdout.strip()).is_relative_to(tree):
        raise RuntimeError(f"sparsekit imports from {where.stdout.strip()}, not the mutated copy")
    return subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "--tb=no", f"--ignore={SELF_TEST}",
                             f"--junitxml={tree / 'junit.xml'}"],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _failed(junit: Path, returncode: int) -> list:
    if not junit.exists():
        return [f"pytest exited {returncode} without a report"]
    cases = ET.parse(junit).getroot().iter("testcase")
    return sorted(f"{c.get('classname')}::{c.get('name')}" for c in cases
                  if c.find("failure") is not None or c.find("error") is not None)


def run(mutants) -> dict:
    """{mutant name: IDs of the tests that failed on it}, JOBS mutants at a time."""
    results, queue, running = {}, list(enumerate(mutants)), {}
    with tempfile.TemporaryDirectory(prefix="sparsekit-mutants-") as tmp:
        try:
            while queue or running:
                while queue and len(running) < JOBS:
                    i, mutant = queue.pop(0)
                    tree = Path(tmp) / str(i)
                    running[mutant.name] = (_start(mutant, tree), tree)
                time.sleep(0.2)
                for name, (proc, tree) in list(running.items()):
                    if proc.poll() is not None:
                        results[name] = _failed(tree / "junit.xml", proc.returncode)
                        del running[name]
        finally:  # on an error or ^C, no suite outlives the tool
            for proc, _ in running.values():
                proc.kill()
                proc.wait()
    return results


def report(mutant: Mutant, failed: list) -> bool:
    """Print one mutant's result; True when it holds: killed by a test that
    is not a byte pin, and by every expected killer."""
    pins = [t for t in failed if is_byte_pin(t)]
    others = [t for t in failed if not is_byte_pin(t)]
    missed = [t for t in mutant.killers if t not in failed]
    if missed:
        verdict = "EXPECTED KILLER PASSED"
    elif others:
        verdict = "killed"
    else:
        verdict = "byte pins only" if pins else "SURVIVED"
    print(f"\n{mutant.name} ({mutant.path}): {verdict}")
    print(f"  killed by {len(others)} tests and {len(pins)} byte pins")
    for label, tests in (("test", others), ("byte pin", pins), ("expected killer passed", missed)):
        for t in tests:
            print(f"  {label:>22}  {t}")
    return not missed and bool(others)


def main() -> int:
    for m in MUTANTS:  # every patch is checked before any suite runs
        patched(m, (ROOT / "src" / "sparsekit" / m.path).read_text(encoding="utf-8"))
    began = time.perf_counter()
    results = run(MUTANTS)
    ok = [report(m, results[m.name]) for m in MUTANTS]
    print(f"\n{sum(ok)} of {len(ok)} mutants hold, in {time.perf_counter() - began:.0f} s")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

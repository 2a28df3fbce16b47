import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_mutant_patches_its_file_exactly_once():
    """`tools/mutants.py` runs the suite on each mutant; a patch that no
    longer matches the source it mutates fails here, in tier-1, not only
    when the tool runs."""
    tool = _tool()
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for m in tool.MUTANTS:
        tool.patched(m, (ROOT / "src" / "sparsekit" / m.path).read_text(encoding="utf-8"))
        assert m.killers and not any(tool.is_byte_pin(t) for t in m.killers), m.name

"""Golden fingerprints: a bit-identical change leaves every recorded hash as
it is (see ``tests/golden/regenerate.py`` for what each entry covers and how
to regenerate the file when a change is meant to move bits)."""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_fingerprints(tmp_path):
    """Every entry of ``fingerprints.json`` recomputes to the same sha256.
    The bits depend on numpy, its BLAS and the CPU's SIMD extensions, so on
    another environment the test fails and prints both rather than skip."""
    regen = _regenerate_module()
    golden = json.loads((GOLDEN_DIR / "fingerprints.json").read_text())
    here = regen.environment()
    assert here == golden["environment"], (
        "the golden file was recorded in another environment:\n"
        f"  recorded: {golden['environment']}\n  here:     {here}")
    want = golden["fingerprints"]
    got = regen.fingerprints(tmp_path)
    differ = sorted(k for k in want.keys() | got.keys()
                    if want.get(k) != got.get(k))
    assert not differ, f"{len(differ)} of {len(want)} fingerprints differ: {differ}"

"""scripts/make_reproduction.py writes the committed REPRODUCTION.md.

One preset, figure 2-left, is rerun through the script (about 2 s): its
three regimes go through the per-regime split and the ``--slope`` JSON that
the script parses.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "make_reproduction", ROOT / "scripts" / "make_reproduction.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure_2_left_section_matches_ledger(tmp_path):
    ledger = (ROOT / "REPRODUCTION.md").read_text(encoding="utf-8").splitlines()
    start = ledger.index("## Figure 2-left")
    end = next(i for i in range(start + 1, len(ledger)) if ledger[i].startswith("## "))
    assert _load_script().preset_section("2-left", str(tmp_path)) == ledger[start:end]

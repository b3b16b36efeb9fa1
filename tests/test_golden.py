"""Every golden call gives the exit code, stdout, stderr and file bytes that
`golden.json` pins (see golden.py)."""

import json

import numpy as np

import golden


def test_every_golden_call_is_unchanged(tmp_path):
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    moved = golden.moved(want, golden.record(tmp_path))
    assert not moved, (
        f"{len(moved)} golden call(s) moved under numpy {np.__version__} (golden.json was "
        f"written under numpy {want['numpy']}); if the change is meant, run "
        "`PYTHONPATH=src python tests/golden.py --update` and list each moved call "
        "in CHANGES.md:\n" + "\n".join(moved))

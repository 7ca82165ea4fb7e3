import os
import subprocess
import sys
from datetime import datetime

import crpsmix
from crpsmix.data import write_demo_load_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_alpha_sweep_prints_both_rules():
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "alpha_sweep.py"),
         "--steps", "60", "--grid", "16"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    for mode in ("aa", "wa"):
        matches = [r for r in rows if r[:1] == [mode]]
        assert len(matches) == 1
        ratios = [float(x) for x in matches[0][1:]]
        assert len(ratios) == 8


def test_make_demo_load_csv_matches_library_writer(tmp_path):
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    out = tmp_path / "script.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "make_demo_load_csv.py"),
         "--hours", "300", "--start", "2009-03-01T05:00:00", "--seed", "4",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = write_demo_load_csv(
        tmp_path / "library.csv", 300, datetime(2009, 3, 1, 5), 4
    )
    assert out.read_bytes() == want.read_bytes()

import os
import subprocess
import sys

import crpsmix

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

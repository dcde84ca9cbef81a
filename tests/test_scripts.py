"""The example scripts run end to end on small inputs and write their outputs.

Each script runs in a fresh interpreter from a temporary directory, with every
output file directed there.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(tmp_path, script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path, capture_output=True, text=True
    )


def test_kapranov_rate_writes_its_report(tmp_path):
    out = tmp_path / "kapranov_rate.json"
    done = _run(tmp_path, "kapranov_rate.py", "--ms", "4,8", "--res", "9", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.is_file()


def test_amoeba_figure_writes_its_svg(tmp_path):
    out = tmp_path / "amoeba.svg"
    done = _run(tmp_path, "amoeba_figure.py", "--m", "4", "--res", "11", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.is_file()


def test_orbit_equidistribution_prints_a_row_per_m(tmp_path):
    done = _run(tmp_path, "orbit_equidistribution.py", "--ms", "8,16", "--numax", "2")
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()[1:]] == ["8", "16"]

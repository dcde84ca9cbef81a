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


def _assert_one_line_error(done, script, code):
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert lines[-1].startswith(f"{script}: ")
    if code == 1:
        assert len(lines) == 1


def test_a_domain_error_exits_1_with_one_line(tmp_path):
    out = tmp_path / "out.json"
    cases = [
        ("orbit_equidistribution.py", "--ms", "100000"),
        ("kapranov_rate.py", "--ms", "8,4", "--res", "9", "--out", str(out)),
        ("amoeba_figure.py", "--m", "0", "--res", "11", "--out", str(tmp_path / "a.svg")),
    ]
    for script, *args in cases:
        _assert_one_line_error(_run(tmp_path, script, *args), script, 1)
    assert not out.exists()


def test_a_malformed_ms_is_a_usage_error(tmp_path):
    for script in ("orbit_equidistribution.py", "kapranov_rate.py"):
        _assert_one_line_error(_run(tmp_path, script, "--ms", "8,x"), script, 2)

"""Each demo script prints exactly what it printed when its output was
recorded (sha256 of stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_decompose_w_operator.py": "38165a4d6d0e2b3d9616a1f9946e3c10d983a7897d47c93721fb7ce275d04b76",
    "02_apply_to_polynomials.py": "c9aaf82af48d2d302f7c5af65ba896cb846dbb43bc2ef8bff7283982bd18b70d",
    "03_bracket_bijection.py": "e44c3d74b592fe51c18535f38bb016832ef56df4d4ecf04fea0e6c453ece3e90",
    "04_duality.py": "dc11347190bfc7ec5a7ff0a9952d950ee1c2dd5ebeb19093f3b937be71bfc3eb",
    "05_catalan_narayana.py": "8504a8b1e1eaec9a079d737a2d4b86f46359dc4bf37e039540e3ebdc23d764db",
    "06_matrix_oracle.py": "450830ce71cf85ef0f257807f9d5265eb25a6c8579741471a6a86d70abd47eed",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_byte_identical(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[name]

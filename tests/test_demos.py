"""The demos run end to end as scripts."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the working directory and the temporary directory both lie in tmp_path,
    # so nothing a demo writes lands in the repository or the shared /tmp
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("04_"):
        assert "certificate passed: True" in proc.stdout
        assert (tmp_path / "certificate_demo.json").exists()

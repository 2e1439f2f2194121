import json
import re
from pathlib import Path

import numpy as np
import pytest

from sectorial import cli, numcore

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    t, sector = scope["t"], scope["sector"]
    assert sector.vertex == pytest.approx(-1.2311, abs=1e-4)
    assert sector.half_angle == pytest.approx(0.2062, abs=1e-4)
    assert np.linalg.norm(scope["e"] - numcore.expm_oracle(-(0.7 + 0.2j) * t), 2) <= 1e-10
    p = scope["p"]
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-10)


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # every key the docs show must be one the CLI reads: an unread key exits 2
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = json.loads(blocks[0])
    assert cfg["subcommand"] == "thermal"
    (tmp_path / "run.json").write_text(blocks[0])
    monkeypatch.chdir(tmp_path)
    assert cli.run("run.json") == 0
    out = tmp_path / cfg["output_dir"]
    assert len((out / "thermal.csv").read_text().splitlines()) == 1 + cfg["beta"]["num"]
    assert json.loads((out / "summary.json").read_text())["subcommand"] == "thermal"

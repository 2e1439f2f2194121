import re
from pathlib import Path

import numpy as np
import pytest

from sectorial import numcore

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

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sectorial import contour, numcore
from sectorial.cli import main, run


def write_cfg(tmp_path: Path, name: str, cfg: dict) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_numrange_nilpotent_demo(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "numrange", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "nilpotent"}, "contour": {"nodes": 256},
    })
    assert run(str(cfg)) == 0
    header, rows = read_csv(tmp_path / "out" / "numrange.csv")
    assert header == ["angle", "re_point", "im_point", "support"]
    assert len(rows) == 256
    radii = [math.hypot(float(r[1]), float(r[2])) for r in rows]
    assert max(radii) == pytest.approx(0.5, abs=1e-8)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["convex"] is True
    assert summary["summary"]["max_modulus"] == pytest.approx(0.5, abs=1e-8)


def test_riesz_matrix_json(tmp_path):
    mat = numcore.matrix_to_json(np.diag([0.0, 5.0]).astype(complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "nodes": 64},
    })
    assert run(str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["rank"] == 1
    assert summary["summary"]["trace"] == pytest.approx(1.0, abs=1e-9)
    assert summary["summary"]["eigenvalue"][0] == pytest.approx(0.0, abs=1e-9)
    header, rows = read_csv(tmp_path / "out" / "projector.csv")
    assert header == ["row", "col", "re_p", "im_p"]
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)


def test_riesz_circle_is_one_resolvent_pass(tmp_path, monkeypatch):
    solved = []
    batch = contour._resolvent_nodes
    monkeypatch.setattr(contour, "_resolvent_nodes",
                        lambda a, rule: solved.append(len(rule.nodes)) or batch(a, rule))
    mat = numcore.matrix_to_json(np.diag([0.0, 5.0]).astype(complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "nodes": 64},
    })
    assert run(str(cfg)) == 0
    assert sum(solved) == 64


def test_riesz_right_boundary(tmp_path):
    mat = numcore.matrix_to_json(np.diag([1.0, 2.0, 10.0]).astype(complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "right_boundary", "abscissa": 5.0,
                    "sector": {"vertex": 0.5, "half_angle": 0.05}},
    })
    assert run(str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["rank"] == 2


def test_track_demo_table(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "track", "seed": 0, "output_dir": str(tmp_path / "out"),
        "path": {"demo": "diag", "s": {"start": 0.0, "stop": 1.0, "num": 6}},
    })
    assert run(str(cfg)) == 0
    header, rows = read_csv(tmp_path / "out" / "track.csv")
    assert header == ["parameter_index", "s", "re_E", "im_E", "gap", "repinned"]
    for row in rows:
        assert float(row[2]) == pytest.approx(0.1 * float(row[1]), abs=1e-10)


def test_track_lattice_family(tmp_path):
    n = 6
    u0 = [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "track", "seed": 0, "output_dir": str(tmp_path / "out"),
        "grid": {"d": 1, "n": n, "delta": 1.0, "particles": 1},
        "fields": {"u0": u0},
        "path": {"s": {"start": 0.0, "stop": 0.4, "num": 5},
                 "direction": {"u": [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1)}},
    })
    assert run(str(cfg)) == 0
    header, rows = read_csv(tmp_path / "out" / "track.csv")
    assert len(rows) == 5


def test_density_demo(tmp_path):
    n = 6
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "density", "seed": 0, "output_dir": str(tmp_path / "out"),
        "grid": {"d": 1, "n": n, "delta": 0.5, "particles": 2},
        "fields": {"u0": [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]},
    })
    assert run(str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["charge_defect"] <= 1e-8
    header, rows = read_csv(tmp_path / "out" / "density.csv")
    assert header == ["kind", "direction", "site", "re", "im"]
    assert sum(1 for r in rows if r[0] == "rho") == n
    assert sum(1 for r in rows if r[0] == "J") == n


def test_thermal_two_level_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level", "delta": 1.0},
        "beta": {"start": 0.5, "stop": 2.0, "num": 4},
    })
    assert run(str(cfg)) == 0
    header, rows = read_csv(tmp_path / "out" / "thermal.csv")
    for row in rows:
        beta = float(row[0])
        f = float(row[4])
        expect = -math.log(1.0 + math.exp(-beta)) / beta
        assert f == pytest.approx(expect, abs=1e-12)


def test_holocheck_report(tmp_path):
    mat = numcore.matrix_to_json((np.diag([1.0, 2.0, 4.0]) + 0.1j * np.eye(3)))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "holocheck", "seed": 3, "output_dir": str(tmp_path / "out"),
        "matrix": mat, "path": {"slices": 4, "radius": 0.01},
    })
    assert run(str(cfg)) == 0
    report = json.loads((tmp_path / "out" / "holocheck_report.json").read_text())
    assert len(report["slices"]) == 4
    for s in report["slices"]:
        assert s["residual"] <= 1e-7
        assert len(s["coefficients"]) == 9


def test_neumann_table(tmp_path):
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    h = q @ np.diag(rng.uniform(1.0, 3.0, 6)) @ q.T
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "neumann", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": numcore.matrix_to_json(h),
        "perturbation": numcore.matrix_to_json(0.3 * h),
        "path": {"n_terms": 30},
    })
    assert run(str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["contractive"] is True
    assert summary["summary"]["final_error"] <= 1e-10
    header, rows = read_csv(tmp_path / "out" / "neumann.csv")
    assert len(rows) == 31
    assert float(rows[-1][1]) < float(rows[0][1])


def test_exit_2_on_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"subcommand": "unknown"})
    assert run(str(cfg)) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"

    cfg = write_cfg(tmp_path, "c2.json", {"subcommand": "numrange"})
    assert run(str(cfg)) == 2

    missing = tmp_path / "nope.json"
    assert run(str(missing)) == 2


def test_exit_3_on_numerical_failure(tmp_path, capsys):
    # contour through the spectrum
    mat = numcore.matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "nodes": 16},
    })
    assert run(str(cfg)) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and err["error"].endswith("Error")


def test_main_flags_override(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "numrange", "seed": 0, "output_dir": str(tmp_path / "ignored"),
        "matrix": {"demo": "nilpotent"},
    })
    out = tmp_path / "flagged"
    assert main(["--config", str(cfg), "--output", str(out), "--seed", "7",
                 "--threads", "2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["threads"] == 2


def test_determinism_byte_identical(tmp_path):
    # identical config + seed -> byte-identical CSV across runs
    n = 6
    configs = [
        {"subcommand": "numrange", "matrix": {"demo": "nilpotent"}},
        {"subcommand": "thermal", "matrix": {"demo": "two_level"},
         "beta": {"start": 0.5, "stop": 1.5, "num": 3}},
        {"subcommand": "track", "path": {"demo": "diag",
                                         "s": {"start": 0.0, "stop": 1.0, "num": 5}}},
        {"subcommand": "density",
         "grid": {"d": 1, "n": n, "delta": 0.5, "particles": 2},
         "fields": {"u0": [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]}},
    ]
    for k, base in enumerate(configs):
        outs = []
        for rep in (0, 1):
            outdir = tmp_path / f"cfg{k}_rep{rep}"
            cfg = dict(base, seed=11, output_dir=str(outdir))
            path = write_cfg(tmp_path, f"c{k}_{rep}.json", cfg)
            assert run(str(path)) == 0
            blobs = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
            outs.append(blobs)
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"config {k} file {name}"

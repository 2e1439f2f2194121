import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorial import contour, forms, numcore, semigroup
from sectorial.cli import main, parse_matrix, run, write_csv

from conftest import count_decompositions


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


def riesz_circle_nodes_solved(matrix, tmp_path, monkeypatch):
    """Nodes _resolvent_nodes solves in one CLI riesz run on a circle."""
    solved = []
    batch = contour._resolvent_nodes
    monkeypatch.setattr(contour, "_resolvent_nodes",
                        lambda a, rule: solved.append(len(rule.nodes)) or batch(a, rule))
    mat = numcore.matrix_to_json(np.array(matrix, dtype=complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0, "nodes": 64},
    })
    assert run(str(cfg)) == 0
    return sum(solved)


def test_riesz_circle_is_one_resolvent_pass(tmp_path, monkeypatch):
    # not hermitian: the Schur form is not diagonal, so the pass solves every node
    assert riesz_circle_nodes_solved([[0.0, 1.0], [0.0, 5.0]], tmp_path, monkeypatch) == 64


def test_hermitian_riesz_circle_forms_no_resolvent(tmp_path, monkeypatch):
    assert riesz_circle_nodes_solved([[0.0, 0.0], [0.0, 5.0]], tmp_path, monkeypatch) == 0


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


def test_riesz_idempotency_defect_computed_once(tmp_path, monkeypatch):
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda x, ord=None, **kw: norms.append(ord) or norm(x, ord, **kw))
    mat = numcore.matrix_to_json(np.diag([1.0, 2.0, 10.0]).astype(complex))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "riesz", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": mat,
        "contour": {"type": "circle", "center": [1.0, 0.0], "radius": 0.5, "nodes": 64},
    })
    assert run(str(cfg)) == 0
    assert norms.count(2) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["rank"] == 1
    assert summary["summary"]["idempotency_defect"] < 1e-12


def test_write_csv_numpy_scalars_match_python_values(tmp_path):
    floats = [0.1, -0.0, 0.0, float("nan"), float("inf"), -float("inf"),
              1.2345678901234567, 2.0 ** -1074, 1e308, -3.0000000000000004]
    py_rows = [[k, k % 2 == 0, x, "rho"] for k, x in enumerate(floats)]
    np_rows = [[np.int64(k), np.bool_(b), np.float64(x), s] for k, b, x, s in py_rows]
    write_csv(tmp_path / "py.csv", ["k", "even", "x", "kind"], py_rows)
    write_csv(tmp_path / "np.csv", ["k", "even", "x", "kind"], np_rows)
    text = (tmp_path / "py.csv").read_text()
    assert (tmp_path / "np.csv").read_text() == text
    lines = text.splitlines()
    assert lines[2] == "1,0,-0.0,rho"
    assert lines[4:6] == ["3,0,nan,rho", "4,1,inf,rho"]
    assert lines[7] == "6,1,1.2345678901234567,rho"
    assert [float(line.split(",")[2]) for line in lines[1:]][6:] == floats[6:]


def test_fmt_integers_and_booleans_keep_their_text():
    from sectorial.cli import _fmt
    cases = [(0, "0"), (7, "7"), (-12, "-12"), (2 ** 70, "1180591620717411303424"),
             (np.int64(-5), "-5"), (np.int32(9), "9"), (np.uint8(255), "255"),
             (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0")]
    for value, text in cases:
        assert _fmt(value) == text, repr(value)


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


def density_demo(tmp_path, n):
    """Run the density subcommand on an n-site ring with a cosine potential."""
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "density", "seed": 0, "output_dir": str(tmp_path / "out"),
        "grid": {"d": 1, "n": n, "delta": 0.5, "particles": 2},
        "fields": {"u0": [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]},
    })
    assert run(str(cfg)) == 0


def test_density_demo(tmp_path):
    n = 6
    density_demo(tmp_path, n)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["charge_defect"] <= 1e-8
    header, rows = read_csv(tmp_path / "out" / "density.csv")
    assert header == ["kind", "direction", "site", "re", "im"]
    assert sum(1 for r in rows if r[0] == "rho") == n
    assert sum(1 for r in rows if r[0] == "J") == n


def test_density_run_decomposes_its_matrix_once(tmp_path, monkeypatch):
    # the default circle comes from the decomposition the pair pass reuses
    calls = count_decompositions(monkeypatch)
    density_demo(tmp_path, 6)
    assert [kind for kind, _ in calls] == ["eigh"]


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


def test_holocheck_samples_each_slice_once(tmp_path, monkeypatch):
    from sectorial import holocheck, resolvent
    calls = []
    rmap = resolvent.rmap
    monkeypatch.setattr(resolvent, "rmap", lambda *args: calls.append(1) or rmap(*args))
    mat = numcore.matrix_to_json((np.diag([1.0, 2.0, 4.0]) + 0.1j * np.eye(3)))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "holocheck", "seed": 3, "output_dir": str(tmp_path / "out"),
        "matrix": mat, "path": {"slices": 4, "radius": 0.01},
    })
    assert run(str(cfg)) == 0
    assert len(calls) == 4 * 64
    # the shared sampling gives cauchy_residual's and taylor_coefficients' figures
    w = np.diag([0.5, -1.0, 0.25]).astype(complex)
    f = lambda t: rmap(-3.0, t)
    probe = holocheck.weak_probe(3, seed=1)
    a = parse_matrix({"matrix": mat})
    res, coeffs = holocheck.residual_and_coefficients(f, a, w, r=0.01, m=64, probe=probe)
    assert res == holocheck.cauchy_residual(f, a, w, r=0.01, m=64, probe=probe)
    assert np.array_equal(coeffs, holocheck.taylor_coefficients(f, a, w, r=0.01, m=64,
                                                                probe=probe))


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
    capsys.readouterr()

    numrange = {"subcommand": "numrange", "matrix": {"demo": "nilpotent"}}
    for k, bad in enumerate([5, dict(numrange, seed="x"), dict(numrange, seed=-1),
                             dict(numrange, output_dir=5),
                             dict(numrange, output_dir=str(tmp_path / "c.json")),  # a file
                             # no subcommand reads a tolerances block (its floors are
                             # library constants); a NaN would have turned the check off
                             {"subcommand": "track", "path": {"demo": "diag"},
                              "output_dir": str(tmp_path / "tolerances"),
                              "tolerances": {"gap_floor": math.nan}},
                             {"subcommand": "track", "grid": {"d": 1, "n": 4, "delta": 0.5},
                              "path": {"demo": "dag"}}]):  # was the lattice family
        assert run(str(write_cfg(tmp_path, f"bad{k}.json", bad))) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
    assert "path.demo" in err["message"]

    # a key that no reader of the subcommand takes is named by its dotted path;
    # each of these ran with the key ignored and exited 0
    thermal = {"subcommand": "thermal", "matrix": {"demo": "two_level"},
               "beta": {"start": 0.5, "stop": 2.0, "num": 3}}
    track = {"subcommand": "track", "path": {"demo": "diag", "s": {"start": 0.0, "stop": 1.0,
                                                                   "num": 3}}}
    for k, (bad, key) in enumerate([
            (dict(numrange, contuor={"nodes": 3}), "contuor"),
            (dict(numrange, contour={"nodes": 16, "type": "circle"}), "contour.type"),
            (dict(numrange, matrix={"demo": "nilpotent", "delta": 0.5}), "matrix.delta"),
            ({"subcommand": "riesz", "matrix": {"demo": "two_level"},
              "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 0.5, "node": 3}},
             "contour.node"),
            (dict(thermal, tolerances={"z_floor_factor": 1e-12}), "tolerances"),
            (dict(thermal, beta={"start": 0.5, "stop": 2.0, "num": 3, "step": 2}), "beta.step"),
            (dict(track, path=dict(track["path"], slices=3)), "path.slices"),
            (dict(track, grid={"d": 1, "n": 4, "delta": 0.5}), "grid")]):
        out = tmp_path / f"unread{k}"
        assert run(str(write_cfg(tmp_path, f"unread{k}.json", bad)), output_dir=str(out)) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["message"].endswith(f": {key}")
        assert not (out / "summary.json").exists()

    # seed and output_dir are checked even where --seed or --output overrides them
    for k, bad in enumerate([dict(numrange, seed="x"), dict(numrange, output_dir=5)]):
        path = write_cfg(tmp_path, f"overridden{k}.json", bad)
        assert run(str(path), output_dir=str(tmp_path / "flagged"), seed=7) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    unreadable = tmp_path / "unreadable.json"
    for blob in (b'{"subcommand": "numrange", "output_dir": "\xe9"}',  # latin-1, not UTF-8
                 b"[" * 100000 + b"]" * 100000):  # nested past the decoder's recursion limit
        unreadable.write_bytes(blob)
        assert run(str(unreadable)) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("beta", [{"start": 0.5, "stop": 2.0, "num": 0}, [[0.5]], []])
def test_thermal_bad_beta_is_config_error(tmp_path, capsys, beta):
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": beta,
    })
    assert run(str(cfg)) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


DIAG = {"matrix": {"demo": "two_level"}}
LATTICE = {"grid": {"d": 1, "n": 4, "delta": 0.5}}
CIRCLE = {"type": "circle", "center": [0.0, 0.0], "radius": 0.5}
POLYLINE = {"type": "polyline", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
SQUARE = {"type": "polyline", "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}
INVERTIBLE = {"dim": 2, "entries": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]}


@pytest.mark.parametrize("sub, block", [
    ("riesz", dict(DIAG, contour=dict(CIRCLE, nodes=0))),
    ("riesz", dict(DIAG, contour=dict(CIRCLE, nodes=-4))),
    ("riesz", dict(DIAG, contour=dict(CIRCLE, nodes=1))),
    ("riesz", dict(DIAG, contour=dict(CIRCLE, radius=0.0))),
    ("riesz", dict(DIAG, contour=dict(POLYLINE, panels=0))),
    ("riesz", dict(DIAG, contour=dict(POLYLINE, order=0))),
    ("holocheck", dict(DIAG, path={"slices": 0})),
    ("holocheck", dict(DIAG, path={"radius": 0.0})),
    ("neumann", dict(DIAG, path={"n_terms": -1})),
    ("track", {"path": {"s": {"start": 0.0, "stop": 1.0, "num": 0}}}),
    ("numrange", dict(DIAG, contour={"nodes": 4})),
    ("numrange", dict(LATTICE, fields={"u0": "x"})),
    ("numrange", dict(LATTICE, fields={"v0": ["x", 0, 0, 0]})),
    ("numrange", dict(LATTICE, fields=5)),
    ("numrange", dict(LATTICE, fields={"u": [{}, {}, {}, {}]})),
    ("riesz", dict(DIAG, matrix={"demo": "two_level", "delta": "x"}, contour=CIRCLE)),
    ("riesz", dict(DIAG, matrix={"demo": ["two_level"]}, contour=CIRCLE)),
    ("riesz", dict(DIAG, contour=5)),
    # no subcommand reads a tolerances block: it exits 2 whatever its values
    ("thermal", dict(DIAG, beta=1.0, tolerances={"z_floor_factor": "x"})),
    ("thermal", dict(DIAG, beta=1.0, tolerances={"z_floor_factor": True})),
    # a count is a JSON integer: not truncated from a float, parsed from a string or a bool
    ("numrange", dict(DIAG, contour={"nodes": 8.9})),
    ("numrange", dict(DIAG, contour={"nodes": "9"})),
    ("riesz", dict(DIAG, contour=dict(SQUARE, panels=8.0))),
    ("riesz", dict(DIAG, contour=dict(SQUARE, order=16.0))),
    ("holocheck", dict(DIAG, path={"slices": True})),
    ("neumann", {"matrix": INVERTIBLE, "perturbation": INVERTIBLE, "path": {"n_terms": 4.5}}),
    ("track", dict(LATTICE, path={"s": {"start": 0.0, "stop": 1.0, "num": 2.5}})),
    ("thermal", dict(DIAG, beta={"start": 0.5, "stop": 2.0, "num": 2.7})),
    ("numrange", {"grid": {"d": 1, "n": 4.9, "delta": 0.5}}),
    ("numrange", {"grid": {"d": True, "n": 4, "delta": 0.5}}),
    ("numrange", {"grid": {"d": 1, "n": 4, "delta": 0.5, "particles": 1.0}}),
    # every other value is type-checked too: a real is a finite JSON number, a pair
    # [re, im] of reals, and a block that is present is an object
    ("riesz", dict(DIAG, contour=dict(CIRCLE, radius="0.5"))),
    ("riesz", dict(DIAG, matrix={"demo": "two_level", "delta": "2"}, contour=CIRCLE)),
    ("thermal", dict(DIAG, beta="1.5")),
    ("thermal", dict(DIAG, beta={"start": "0.5", "stop": True, "num": 3})),
    ("thermal", dict(DIAG, beta=[[1.0, 0.0], [True, False]])),
    ("thermal", dict(DIAG, beta=1.0, sector={"vertex": "-1", "half_angle": "0.3"})),
    ("riesz", dict(DIAG, contour={"type": "right_boundary", "abscissa": "0.5",
                                  "sector": {"vertex": -1.0, "half_angle": 0.3}})),
    ("numrange", {"grid": {"d": 1, "n": 4, "delta": "0.5"}}),
    ("numrange", dict(LATTICE, fields={"u0": ["1", "1", True, 1]})),
    ("numrange", dict(LATTICE, fields={"u": [[True, 0], [0, 0], [0, 0], [0, 0]]})),
    ("numrange", {"matrix": dict(INVERTIBLE, dim=2.0)}),
    ("numrange", {"matrix": {"dim": 2, "entries": [[True, False], [False, False],
                                                   [False, False], [True, False]]}}),
    ("holocheck", dict(DIAG, path=[3, 0.5])),
    ("numrange", dict(DIAG, contour=5)),
    ("track", {"path": "s"}),
    ("numrange", dict(LATTICE, fields=[])),
    ("riesz", dict(DIAG, contour={"type": "polyline", "vertices": [[-1, -1], [1, 1]]})),
    ("riesz", {"matrix": {"dim": 0, "entries": []}, "contour": CIRCLE}),
    ("numrange", {"matrix": {"dim": 0, "entries": []}}),
    ("thermal", {"matrix": {"dim": 0, "entries": []}, "beta": 1.0}),
    ("holocheck", {"matrix": {"dim": 0, "entries": []}}),
    ("thermal", dict(DIAG, beta={"start": math.nan, "stop": 2.0, "num": 3})),
])
def test_degenerate_counts_are_config_errors(tmp_path, capsys, sub, block):
    cfg = write_cfg(tmp_path, "c.json", dict(block, subcommand=sub, seed=0,
                                             output_dir=str(tmp_path / "out")))
    assert run(str(cfg)) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_console_entry_reports_a_config_error_without_traceback(tmp_path):
    # the `python -m sectorial.cli` path: exit code and stderr as a user sees them
    cfg = write_cfg(tmp_path, "c.json", dict(
        DIAG, subcommand="riesz", output_dir=str(tmp_path / "out"),
        contour={"type": "polyline", "vertices": [[-1, -1], [1, 1]]}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "sectorial.cli", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"


def test_thermal_sweeps_range_once(tmp_path, monkeypatch):
    calls = []
    sweep = forms.numerical_range
    spy = lambda t, m: calls.append(m) or sweep(t, m)
    monkeypatch.setattr(forms, "numerical_range", spy)
    monkeypatch.setattr(semigroup, "numerical_range", spy)
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": {"start": 0.5, "stop": 2.0, "num": 3},
    })
    assert run(str(cfg)) == 0
    # the sweep fits the sector; containment is checked from support values
    assert len(calls) == 1


def test_thermal_default_sector_is_fitted_sector(tmp_path, monkeypatch):
    calls = []
    fitted_sector = semigroup.fitted_sector
    monkeypatch.setattr(semigroup, "fitted_sector",
                        lambda t: calls.append(t) or fitted_sector(t))
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": {"start": 0.5, "stop": 2.0, "num": 3},
    })
    assert run(str(cfg)) == 0
    assert len(calls) == 1 and np.array_equal(calls[0], np.diag([0.0, 1.0]))
    sector = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]["sector"]
    want = fitted_sector(calls[0])
    assert sector == {"vertex": want.vertex, "half_angle": want.half_angle}


def test_thermal_sector_violation_exit_3(tmp_path, capsys):
    # Num diag(0, 1) = [0, 1] reaches 0.5 left of the vertex
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": {"start": 0.5, "stop": 2.0, "num": 3},
        "sector": {"vertex": 0.5, "half_angle": 0.1},
    })
    assert run(str(cfg)) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SectorViolationError"
    assert "past the vertex: excess 5.000000e-01" in err["message"]


def test_thermal_thin_room_exit_3(tmp_path, capsys):
    # |arg beta| + half_angle leaves a room of 1e-6: the hyperbola would need
    # ~1e8 nodes, over the node budget
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": [[1.0, 0.0]],
        "sector": {"vertex": -0.05, "half_angle": math.pi / 2 - 1e-6},
    })
    assert run(str(cfg)) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericalFailure"
    assert "room = 1.000e-06" in err["message"] and "budget" in err["message"]


def test_thermal_never_forms_the_exponential(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("emap reached")

    monkeypatch.setattr(semigroup, "emap", boom)
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "thermal", "seed": 0, "output_dir": str(tmp_path / "out"),
        "matrix": {"demo": "two_level"}, "beta": {"start": 0.5, "stop": 2.0, "num": 3},
    })
    assert run(str(cfg)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "trace_rho_defect" not in summary["summary"]


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
    blas = numcore.blas_threads()  # the hint is recorded only where OpenBLAS cannot be asked
    assert summary["threads"] == (2 if blas is None else blas)


def test_summary_records_the_openblas_thread_count(tmp_path):
    # two processes that differ only in OPENBLAS_NUM_THREADS, each given the same --threads hint
    if numcore.blas_threads() is None:
        pytest.skip("no OpenBLAS library in scipy.libs to ask")
    n = 6
    cfg = write_cfg(tmp_path, "c.json", {
        "subcommand": "density", "seed": 0,
        "grid": {"d": 1, "n": n, "delta": 0.5, "particles": 2},
        "fields": {"u0": [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]},
    })
    recorded = []
    for count in ("1", "2"):
        out = tmp_path / f"out{count}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "sectorial.cli", "--config", str(cfg),
                               "--output", str(out), "--threads", "3"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        recorded.append(json.loads((out / "summary.json").read_text())["threads"])
    # OpenBLAS caps its count at the CPUs it may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert recorded == [1, min(2, cpus)]


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

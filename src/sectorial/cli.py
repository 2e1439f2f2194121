"""Config-driven experiment runner.

One JSON config per run; subcommands numrange, riesz, track, density,
thermal, holocheck, neumann.  Outputs are CSV tables (one header line,
complex columns split into re_*/im_*) plus a summary JSON with run metadata
and residual maxima.  Identical config and seed produce byte-identical CSVs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
machine-readable error object goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import eigenstate, forms, holocheck, numcore, rigging, resolvent, schrodinger, semigroup
from .contour import Circle, Polyline, RightBoundary, low_energy_hamiltonian, rank_of_projection, \
    spectral_pair
from .errors import ConfigError, NumericalFailure, SectorialError
from .forms import Sector

SUBCOMMANDS = ("numrange", "riesz", "track", "density", "thermal", "holocheck", "neumann")

DEMO_MATRICES = {
    "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "two_level": np.diag([0.0, 1.0]).astype(complex),
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key '{key}'")
    return cfg[key]


def _bounded(block, key: str, default, kind, least, strict: bool = False):
    """``block[key]`` as ``kind`` (``default`` when ``block`` is not an object
    or lacks the key; required when ``default`` is None), at least ``least``
    (above it when ``strict``); ConfigError otherwise."""
    value = block.get(key, default) if isinstance(block, dict) else default
    if value is None:
        raise ConfigError(f"missing required config key '{key}'")
    try:
        value = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{key}': {exc}") from exc
    if not (value > least if strict else value >= least):
        raise ConfigError(f"'{key}' = {value} must be {'>' if strict else '>='} {least}")
    return value


def parse_matrix(cfg: dict) -> np.ndarray:
    block = _require(cfg, "matrix")
    if isinstance(block, dict) and "demo" in block:
        name = block["demo"]
        if name not in DEMO_MATRICES:
            raise ConfigError(f"unknown demo matrix '{name}'")
        m = DEMO_MATRICES[name].copy()
        if name == "two_level" and "delta" in block:
            m[1, 1] = float(block["delta"])
        return m
    try:
        return numcore.matrix_from_json(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix block: {exc}") from exc


def parse_sector(block: dict) -> Sector:
    try:
        return Sector(vertex=float(block["vertex"]), half_angle=float(block["half_angle"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sector block: {exc}") from exc


def parse_contour(cfg: dict, default=None):
    block = cfg.get("contour")
    if block is None:
        if default is not None:
            return default
        raise ConfigError("missing required config key 'contour'")
    kind = block.get("type")
    try:
        if kind == "circle":
            c = block["center"]
            return Circle(center=complex(c[0], c[1]),
                          radius=_bounded(block, "radius", None, float, 0.0, strict=True),
                          nodes=_bounded(block, "nodes", 128, int, 2))
        if kind == "polyline":
            verts = tuple(complex(v[0], v[1]) for v in block["vertices"])
            return Polyline(vertices=verts, order=_bounded(block, "order", 16, int, 1),
                            panels=_bounded(block, "panels", 8, int, 1))
        if kind == "right_boundary":
            return RightBoundary(abscissa=float(block["abscissa"]),
                                 sector=parse_sector(block["sector"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad contour block: {exc}") from exc
    raise ConfigError(f"unknown contour type '{kind}'")


def _complex_array(data, count: int, what: str) -> np.ndarray:
    try:
        arr = np.array([complex(p[0], p[1]) for p in data], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"{what}: expected a list of [re, im] pairs") from exc
    if arr.size != count:
        raise ConfigError(f"{what}: expected {count} entries, got {arr.size}")
    return arr


def parse_grid(cfg: dict):
    block = _require(cfg, "grid")
    try:
        grid = schrodinger.Grid(d=int(block["d"]), n=int(block["n"]),
                                delta=float(block["delta"]))
        particles = int(block.get("particles", 1))
        space = schrodinger.ManyBodySpace(grid=grid, particles=particles)
    except (KeyError, TypeError, ValueError, SectorialError) as exc:
        raise ConfigError(f"bad grid block: {exc}") from exc
    return grid, space


def parse_fields(cfg_block, grid) -> schrodinger.FieldConfig:
    block = cfg_block or {}
    base = schrodinger.FieldConfig.zero(grid)
    links = grid.d * grid.sites

    def pick(name, count, current):
        if name not in block:
            return current
        return _complex_array(block[name], count, name)

    u = pick("u", grid.sites, base.u)
    a = pick("a", links, base.a.reshape(-1)).reshape((grid.d,) + grid.shape)
    v = pick("v", grid.sites, base.v.reshape(-1)).reshape(grid.shape)
    f = pick("f", grid.sites, base.f)
    u0 = np.asarray(block.get("u0", np.zeros(grid.sites)), dtype=float)
    v0 = np.asarray(block.get("v0", np.zeros(grid.sites)), dtype=float).reshape(grid.shape)
    try:
        return schrodinger.FieldConfig(grid=grid, u=u, a=a, v=v, f=f, u0=u0, v0=v0)
    except (ValueError, SectorialError) as exc:
        raise ConfigError(f"bad fields block: {exc}") from exc


def _beta_list(cfg: dict) -> list[complex]:
    block = _require(cfg, "beta")
    try:
        if isinstance(block, dict):
            betas = [complex(b) for b in
                     np.linspace(float(block["start"]), float(block["stop"]), int(block["num"]))]
        elif isinstance(block, list):
            betas = [complex(b[0], b[1]) for b in block]
        else:
            betas = [complex(float(block))]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad beta block: {exc}") from exc
    if not betas:
        raise ConfigError("beta block gives no beta values")
    return betas


# -- subcommand implementations -----------------------------------------------

def _input_matrix(cfg) -> np.ndarray:
    """Operating matrix: lattice family when a grid block is present, else the
    matrix block."""
    if "grid" in cfg:
        grid, space = parse_grid(cfg)
        return schrodinger.family(grid, space, parse_fields(cfg.get("fields"), grid))
    return parse_matrix(cfg)


def run_numrange(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    nodes = _bounded(cfg.get("contour"), "nodes", 256, int, 8)
    boundary = forms.numerical_range(matrix, nodes)
    rows = [[th, p.real, p.imag, s]
            for th, p, s in zip(boundary.angles, boundary.points, boundary.support)]
    write_csv(outdir / "numrange.csv", ["angle", "re_point", "im_point", "support"], rows)
    return {
        "max_modulus": float(np.abs(boundary.points).max()),
        "convex": bool(boundary.is_convex(tol.get("convexity_slack", 1e-10))),
        "convexity_margin": boundary.convexity_margin(),
    }


def run_riesz(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    contour = parse_contour(cfg)
    if isinstance(contour, RightBoundary):
        p, a_low = low_energy_hamiltonian(matrix, contour)
    else:
        p, a_low, _ = spectral_pair(matrix, contour)
    rows = [[i, j, p[i, j].real, p[i, j].imag]
            for i in range(p.shape[0]) for j in range(p.shape[1])]
    write_csv(outdir / "projector.csv", ["row", "col", "re_p", "im_p"], rows)
    defect = float(np.linalg.norm(p @ p - p, 2))
    rank = rank_of_projection(p, idem_tol=tol.get("projection_idem_tol", 1e-6))
    summary = {"trace": float(np.trace(p).real), "rank": rank, "idempotency_defect": defect}
    if rank == 1:
        summary["eigenvalue"] = [float(np.trace(a_low).real), float(np.trace(a_low).imag)]
    return summary


def _lattice_circle(matrix) -> Circle:
    """Default 64-node circle round the lowest eigenvalue, of radius
    RADIUS_GAP_FACTOR times the gap to the next one."""
    spec = numcore.eigvals_oracle(matrix)
    gap = abs(spec[1] - spec[0]) if len(spec) > 1 else 1.0
    return Circle(center=complex(spec[0]), radius=eigenstate.RADIUS_GAP_FACTOR * gap, nodes=64)


def _track_inputs(cfg):
    path_block = cfg["path"] if isinstance(cfg.get("path"), dict) else {}
    sblock = path_block.get("s", {"start": 0.0, "stop": 1.0, "num": 11})
    num = _bounded(sblock, "num", None, int, 1)
    try:
        svals = np.linspace(float(sblock["start"]), float(sblock["stop"]), num)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad path.s block: {exc}") from exc
    if path_block.get("demo") == "diag" or "grid" not in cfg:
        base = np.diag([0.0, 1.0]).astype(complex)
        step = np.diag([0.1, 0.0]).astype(complex)
        fam = lambda s: base + s * step
        default_contour = Circle(center=0.0, radius=0.3, nodes=128)
        return fam, svals, default_contour
    grid, space = parse_grid(cfg)
    base = parse_fields(cfg.get("fields"), grid)
    direction = parse_fields(path_block.get("direction"), grid)
    fam = lambda s: schrodinger.family(grid, space, base + float(s) * direction)
    return fam, svals, _lattice_circle(fam(svals[0]))


def run_track(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    fam, svals, default_contour = _track_inputs(cfg)
    c0 = parse_contour(cfg, default=default_contour)
    if not isinstance(c0, Circle):
        raise ConfigError("track requires a circle contour")
    points = eigenstate.track_eigenvalue(fam, list(svals), c0, s_values=svals,
                                         gap_floor=tol.get("gap_floor", 1e-6))
    rows = eigenstate.track_to_rows(points)
    write_csv(outdir / "track.csv", list(rows[0]), [list(r.values()) for r in rows])
    drift = abs(points[-1].energy - points[0].energy)
    return {"steps": len(points), "end_start_drift": float(drift),
            "min_gap": float(min(p.gap for p in points))}


def run_density(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    grid, space = parse_grid(cfg)
    fields = parse_fields(cfg.get("fields"), grid)
    matrix = schrodinger.family(grid, space, fields)
    contour = parse_contour(cfg, default=_lattice_circle(matrix))
    rho, current = eigenstate.eigenstate_density(grid, space, fields, contour)
    rows = []
    flat_rho = rho.reshape(-1)
    for s in range(grid.sites):
        rows.append(["rho", -1, s, flat_rho[s].real, flat_rho[s].imag])
    flat_j = current.reshape(grid.d, -1)
    for direction in range(grid.d):
        for s in range(grid.sites):
            rows.append(["J", direction, s, flat_j[direction, s].real,
                         flat_j[direction, s].imag])
    write_csv(outdir / "density.csv", ["kind", "direction", "site", "re", "im"], rows)
    total = float((flat_rho.real * grid.delta**grid.d).sum())
    return {"total_charge": total, "particles": space.particles,
            "charge_defect": abs(total - space.particles)}


def run_thermal(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    betas = _beta_list(cfg)
    sector = parse_sector(cfg["sector"]) if "sector" in cfg else \
        forms.fit_sector(forms.numerical_range(matrix, 128), margin=0.05)
    zs, fs = semigroup.free_energy_path(betas, matrix, sector,
                                        z_floor_factor=tol.get("z_floor_factor", 1e-12))
    rows = [[b.real, b.imag, z.real, z.imag, f.real, f.imag]
            for b, z, f in zip(betas, zs, fs)]
    write_csv(outdir / "thermal.csv",
              ["re_beta", "im_beta", "re_Z", "im_Z", "re_F", "im_F"], rows)
    return {"n_beta": len(betas),
            "sector": {"vertex": sector.vertex, "half_angle": sector.half_angle}}


def run_holocheck(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    n = matrix.shape[0]
    slices = _bounded(cfg.get("path"), "slices", 5, int, 1)
    radius = _bounded(cfg.get("path"), "radius", 1e-2, float, 0.0, strict=True)
    spec = numcore.eigvals_oracle(matrix)
    zeta0 = complex(spec.real.min() - 1.0 - abs(spec.imag).max() * 1j - 1.0j)
    rng = np.random.default_rng(seed)
    report = {"slices": []}
    rows = []
    for k in range(slices):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w /= np.linalg.norm(w, 2)
        probe = holocheck.weak_probe(n, seed=seed + k)
        f = lambda t: resolvent.rmap(zeta0, t)
        res = holocheck.cauchy_residual(f, matrix, w, r=radius, m=64, probe=probe)
        coeffs = holocheck.taylor_coefficients(f, matrix, w, r=radius, m=64, k_max=8,
                                               probe=probe)
        try:
            rad = holocheck.radius_estimate(coeffs)
        except SectorialError:
            rad = None
        report["slices"].append({
            "slice": k,
            "residual": res.value,
            "residual_raw": res.raw,
            "coefficients": [[c.real, c.imag] for c in coeffs],
            "radius_estimate": rad,
        })
        rows.append([k, res.value, res.raw, res.scale])
    write_csv(outdir / "holocheck.csv", ["slice", "residual", "raw", "scale"], rows)
    (outdir / "holocheck_report.json").write_text(json.dumps(report, indent=2) + "\n")
    worst = max(s["residual"] for s in report["slices"])
    return {"slices": slices, "max_residual": worst}


def run_neumann(cfg, outdir: Path, tol: dict, seed: int) -> dict:
    h = parse_matrix({"matrix": _require(cfg, "matrix")})
    t_block = cfg.get("perturbation")
    if t_block is None:
        t = 0.4 * h
    else:
        t = parse_matrix({"matrix": t_block})
    n_terms = _bounded(cfg.get("path"), "n_terms", 40, int, 0)
    rg = rigging.make_h_plus(h)
    result = resolvent.neumann_resolvent(h, t, rg, n_terms)
    direct = numcore.solve(h + t, np.eye(h.shape[0], dtype=complex))
    rows = []
    for k, partial in enumerate(result.partials):
        err = float(np.linalg.norm(partial - direct, 2))
        rows.append([k, err])
    write_csv(outdir / "neumann.csv", ["term", "error"], rows)
    return {"ratio": result.ratio, "contractive": bool(result.contractive),
            "error_bound": result.error_bound if np.isfinite(result.error_bound) else None,
            "final_error": rows[-1][1]}


RUNNERS = {
    "numrange": run_numrange,
    "riesz": run_riesz,
    "track": run_track,
    "density": run_density,
    "thermal": run_thermal,
    "holocheck": run_holocheck,
    "neumann": run_neumann,
}


def run(config_path: str, output_dir: str | None = None, seed: int | None = None,
        threads: int | None = None) -> int:
    """Execute one config; returns the process exit code."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        sub = _require(cfg, "subcommand")
        if sub not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand '{sub}'")
        tol = cfg.get("tolerances") or {}
        if not isinstance(tol, dict):
            raise ConfigError("'tolerances' must be an object")
        run_seed = int(seed if seed is not None else cfg.get("seed", 0))
        outdir = Path(output_dir if output_dir is not None else cfg.get("output_dir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        summary = RUNNERS[sub](cfg, outdir, tol, run_seed)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    meta = {"subcommand": sub, "seed": run_seed, "threads": threads or 1,
            "config": str(config_path), "summary": summary}
    (outdir / "summary.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sectorial",
                                     description="config-driven spectral experiment runner")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker hint; results are scheduling-independent")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    return run(args.config, output_dir=args.output, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())

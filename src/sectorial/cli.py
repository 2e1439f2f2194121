"""Config-driven experiment runner.

One JSON config per run; subcommands numrange, riesz, track, density,
thermal, holocheck, neumann.  Outputs are CSV tables (one header line,
complex columns split into re_*/im_*) plus a summary JSON with run metadata
and residual maxima.  Identical config and seed produce byte-identical CSVs
at a fixed BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
machine-readable error object goes to stderr).

Every config value is read once, by :func:`_read`, which checks its JSON type
and never converts it: a count is a JSON integer, a real a finite JSON number
(not a bool, NaN or Infinity), a complex value an [re, im] pair of reals, text
a string, and a block that is present an object.  A value of another type, or
below its bound, is a ConfigError naming its key.  So is a key that no reader
of the subcommand takes: each JSON object of the config notes the keys read
from it, and after the run any other key is reported by its dotted path.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import eigenstate, forms, holocheck, numcore, rigging, resolvent, schrodinger, semigroup
from .contour import DEFAULT_CIRCLE_NODES, DEFAULT_GAUSS_ORDER, DEFAULT_PANELS, Circle, Polyline, \
    RightBoundary, low_energy_hamiltonian, rank_of_projection, spectral_pair
from .errors import ConfigError, NumericalFailure, SectorialError
from .forms import DEFAULT_NODES, Sector

SUBCOMMANDS = ("numrange", "riesz", "track", "density", "thermal", "holocheck", "neumann")

DEMO_MATRICES = {
    "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "two_level": np.diag([0.0, 1.0]).astype(complex),
}


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return str(value)
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


_REAL = {int, float}  # the types json gives a number; true and false are bools


def _finite(values: list) -> np.ndarray | None:
    """``values`` as a float array when each is a finite JSON number, else None."""
    if not set(map(type, values)) <= _REAL:
        return None
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer past the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _pairs(values: list) -> np.ndarray | None:
    """``values`` as a complex array when each is an [re, im] pair of finite
    JSON numbers, else None; the bits are those of complex(re, im)."""
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {2}:
        arr = _finite(list(chain.from_iterable(values)))
        if arr is not None:
            return arr.view(complex)
    return None


_KINDS = {  # kind: (the value read, or None for a value of another type; what it must be)
    "count": (lambda v: v if type(v) is int else None, "an integer"),
    "real": (lambda v: None if (a := _finite([v])) is None else a[0].item(), "a finite number"),
    "complex": (lambda v: None if (a := _pairs([v])) is None else a[0].item(),
                "an [re, im] pair of finite numbers"),
    "text": (lambda v: v if type(v) is str else None, "a string"),
    "object": (lambda v: v if isinstance(v, dict) else None, "an object"),
    "real list": (lambda v: _finite(v) if type(v) is list else None, "a list of finite numbers"),
    "complex list": (lambda v: _pairs(v) if type(v) is list else None,
                     "a list of [re, im] pairs of finite numbers"),
}


class _Block(dict):
    """A JSON object of the config, with the keys :func:`_read` took from it."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.taken = set()


def _unread(block: _Block, prefix: str = ""):
    """Dotted paths of the keys of ``block`` and its sub-blocks no reader took."""
    for key, value in block.items():
        if key not in block.taken:
            yield prefix + key
        elif isinstance(value, _Block):
            yield from _unread(value, f"{prefix}{key}.")


def _read(block: dict, key: str, kind: str, default=None, least=None, strict: bool = False):
    """``block[key]`` read as ``kind`` (``default`` when the key is absent;
    required when ``default`` is None), at least ``least`` (above it when
    ``strict``).  The JSON type is checked, never converted: a real is read
    as a float, a pair as a complex, a list as an array.  Otherwise a
    ConfigError naming ``key``.  The key counts as taken from ``block``."""
    if key not in block:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    if isinstance(block, _Block):
        block.taken.add(key)
    read, what = _KINDS[kind]
    value = read(block[key])
    if value is None:
        raise ConfigError(f"'{key}' must be {what}, got {reprlib.repr(block[key])}")
    if least is not None and not (value > least if strict else value >= least):
        raise ConfigError(f"'{key}' = {value} must be {'>' if strict else '>='} {least}")
    return value


def _build(cls, **fields):
    """``cls(**fields)``, with the constructor's rejection as a ConfigError."""
    try:
        return cls(**fields)
    except (ValueError, SectorialError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def parse_matrix(cfg: dict, key: str = "matrix") -> np.ndarray:
    """A demo matrix, or ``{"dim": n, "entries": [[re, im], ...]}`` row-major."""
    block = _read(cfg, key, "object")
    if "demo" in block:
        name = _read(block, "demo", "text")
        if name not in DEMO_MATRICES:
            raise ConfigError(f"unknown demo matrix '{name}'")
        m = DEMO_MATRICES[name].copy()
        if name == "two_level":
            m[1, 1] = _read(block, "delta", "real", 1.0)
        return m
    n = _read(block, "dim", "count", least=1)
    entries = _read(block, "entries", "complex list")
    if entries.size != n * n:
        raise ConfigError(f"'entries': expected {n * n} entries, got {entries.size}")
    return entries.reshape(n, n)


def parse_sector(cfg: dict) -> Sector:
    block = _read(cfg, "sector", "object")
    return _build(Sector, vertex=_read(block, "vertex", "real"),
                  half_angle=_read(block, "half_angle", "real"))


def parse_contour(cfg: dict, default=None):
    if default is not None and "contour" not in cfg:
        return default
    block = _read(cfg, "contour", "object")
    kind = _read(block, "type", "text")
    if kind == "circle":
        return Circle(center=_read(block, "center", "complex"),
                      radius=_read(block, "radius", "real", least=0.0, strict=True),
                      nodes=_read(block, "nodes", "count", DEFAULT_CIRCLE_NODES, least=2))
    if kind == "polyline":
        return _build(Polyline, vertices=tuple(_read(block, "vertices", "complex list").tolist()),
                      order=_read(block, "order", "count", DEFAULT_GAUSS_ORDER, least=1),
                      panels=_read(block, "panels", "count", DEFAULT_PANELS, least=1))
    if kind == "right_boundary":
        return RightBoundary(abscissa=_read(block, "abscissa", "real"), sector=parse_sector(block))
    raise ConfigError(f"unknown contour type '{kind}'")


def parse_grid(cfg: dict):
    block = _read(cfg, "grid", "object")
    grid = _build(schrodinger.Grid, d=_read(block, "d", "count", least=1),
                  n=_read(block, "n", "count", least=1), delta=_read(block, "delta", "real"))
    return grid, _build(schrodinger.ManyBodySpace, grid=grid,
                        particles=_read(block, "particles", "count", 1, least=1))


def parse_fields(cfg: dict, key: str, grid) -> schrodinger.FieldConfig:
    """The fields block ``cfg[key]``; an absent block or field is zero."""
    block = _read(cfg, key, "object", {})

    def pick(name, count, kind="complex list"):
        values = _read(block, name, kind, np.zeros(count))
        if values.size != count:
            raise ConfigError(f"'{name}': expected {count} entries, got {values.size}")
        return values

    return _build(schrodinger.FieldConfig, grid=grid, u=pick("u", grid.sites),
                  a=pick("a", grid.d * grid.sites), v=pick("v", grid.sites),
                  f=pick("f", grid.sites), u0=pick("u0", grid.sites, "real list"),
                  v0=pick("v0", grid.sites, "real list"))


def _beta_list(cfg: dict) -> list[complex]:
    """``beta``: a real, a list of [re, im] pairs, or {start, stop, num}."""
    value = cfg.get("beta")
    if isinstance(value, dict):
        block = _read(cfg, "beta", "object")
        betas = [complex(b) for b in np.linspace(
            _read(block, "start", "real"), _read(block, "stop", "real"),
            _read(block, "num", "count", least=1))]
    elif isinstance(value, list):
        betas = _read(cfg, "beta", "complex list").tolist()
    else:
        betas = [complex(_read(cfg, "beta", "real"))]
    if not betas:
        raise ConfigError("beta block gives no beta values")
    return betas


# -- subcommand implementations -----------------------------------------------

def _input_matrix(cfg) -> np.ndarray:
    """Operating matrix: lattice family when a grid block is present, else the
    matrix block."""
    if "grid" in cfg:
        grid, space = parse_grid(cfg)
        return schrodinger.family(grid, space, parse_fields(cfg, "fields", grid))
    return parse_matrix(cfg)


def run_numrange(cfg, outdir: Path, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    nodes = _read(_read(cfg, "contour", "object", {}), "nodes", "count", DEFAULT_NODES, least=8)
    boundary = forms.numerical_range(matrix, nodes)
    rows = [[th, p.real, p.imag, s]
            for th, p, s in zip(boundary.angles, boundary.points, boundary.support)]
    write_csv(outdir / "numrange.csv", ["angle", "re_point", "im_point", "support"], rows)
    return {
        "max_modulus": float(np.abs(boundary.points).max()),
        "convex": bool(boundary.is_convex()),
        "convexity_margin": boundary.convexity_margin(),
    }


def run_riesz(cfg, outdir: Path, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    contour = parse_contour(cfg)
    if isinstance(contour, RightBoundary):
        p, a_low = low_energy_hamiltonian(matrix, contour)
    else:
        p, a_low = spectral_pair(matrix, contour)
    rows = [[i, j, re, im] for (i, j), re, im in
            zip(np.ndindex(p.shape), p.real.ravel().tolist(), p.imag.ravel().tolist())]
    write_csv(outdir / "projector.csv", ["row", "col", "re_p", "im_p"], rows)
    defect = float(np.linalg.norm(p @ p - p, 2))
    rank = rank_of_projection(p, defect=defect)
    summary = {"trace": float(np.trace(p).real), "rank": rank, "idempotency_defect": defect}
    if rank == 1:
        summary["eigenvalue"] = [float(np.trace(a_low).real), float(np.trace(a_low).imag)]
    return summary


def _lattice_circle(matrix) -> Circle:
    """Default 64-node circle round the lowest eigenvalue, of radius
    RADIUS_GAP_FACTOR times the gap to the next one, from the Schur spectrum,
    so the first contour pass on the matrix reuses its decomposition."""
    spec = numcore.schur_oracle(matrix)[2]
    gap = abs(spec[1] - spec[0]) if len(spec) > 1 else 1.0
    return Circle(center=complex(spec[0]), radius=eigenstate.RADIUS_GAP_FACTOR * gap, nodes=64)


def _track_inputs(cfg):
    path = _read(cfg, "path", "object", {})
    span = _read(path, "s", "object", {"start": 0.0, "stop": 1.0, "num": 11})
    svals = np.linspace(_read(span, "start", "real"), _read(span, "stop", "real"),
                        _read(span, "num", "count", least=1))
    if "demo" in path and _read(path, "demo", "text") != "diag":
        raise ConfigError(f"unknown 'path.demo' {path['demo']!r}; the one demo family is 'diag'")
    if "demo" in path or "grid" not in cfg:
        base = np.diag([0.0, 1.0]).astype(complex)
        step = np.diag([0.1, 0.0]).astype(complex)
        fam = lambda s: base + s * step
        default_contour = Circle(center=0.0, radius=0.3)
        return fam, svals, default_contour
    grid, space = parse_grid(cfg)
    base = parse_fields(cfg, "fields", grid)
    direction = parse_fields(path, "direction", grid)
    fam = lambda s: schrodinger.family(grid, space, base + float(s) * direction)
    return fam, svals, _lattice_circle(fam(svals[0]))


def run_track(cfg, outdir: Path, seed: int) -> dict:
    fam, svals, default_contour = _track_inputs(cfg)
    c0 = parse_contour(cfg, default=default_contour)
    if not isinstance(c0, Circle):
        raise ConfigError("track requires a circle contour")
    points = eigenstate.track_eigenvalue(fam, list(svals), c0, s_values=svals)
    rows = eigenstate.track_to_rows(points)
    write_csv(outdir / "track.csv", list(rows[0]), [list(r.values()) for r in rows])
    drift = abs(points[-1].energy - points[0].energy)
    return {"steps": len(points), "end_start_drift": float(drift),
            "min_gap": float(min(p.gap for p in points))}


def run_density(cfg, outdir: Path, seed: int) -> dict:
    grid, space = parse_grid(cfg)
    fields = parse_fields(cfg, "fields", grid)
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


def run_thermal(cfg, outdir: Path, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    betas = _beta_list(cfg)
    sector = parse_sector(cfg) if "sector" in cfg else semigroup.fitted_sector(matrix)
    zs, fs = semigroup.free_energy_path(betas, matrix, sector)
    rows = [[b.real, b.imag, z.real, z.imag, f.real, f.imag]
            for b, z, f in zip(betas, zs, fs)]
    write_csv(outdir / "thermal.csv",
              ["re_beta", "im_beta", "re_Z", "im_Z", "re_F", "im_F"], rows)
    return {"n_beta": len(betas),
            "sector": {"vertex": sector.vertex, "half_angle": sector.half_angle}}


def run_holocheck(cfg, outdir: Path, seed: int) -> dict:
    matrix = _input_matrix(cfg)
    n = matrix.shape[0]
    path = _read(cfg, "path", "object", {})
    slices = _read(path, "slices", "count", 5, least=1)
    radius = _read(path, "radius", "real", holocheck.DEFAULT_SLICE_RADIUS, least=0.0, strict=True)
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
        res, coeffs = holocheck.residual_and_coefficients(f, matrix, w, r=radius, probe=probe)
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


def run_neumann(cfg, outdir: Path, seed: int) -> dict:
    h = parse_matrix(cfg)
    t = parse_matrix(cfg, "perturbation") if "perturbation" in cfg else 0.4 * h
    n_terms = _read(_read(cfg, "path", "object", {}), "n_terms", "count", 40, least=0)
    rg = rigging.make_h_plus(h)
    result = resolvent.neumann_resolvent(h, t, rg, n_terms)
    direct = numcore.inverse(h + t)
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
        cfg = json.loads(Path(config_path).read_text(), object_hook=_Block)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON
        print(json.dumps({"error": "ConfigError", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("the config must be a JSON object")
        sub = _read(cfg, "subcommand", "text")
        if sub not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand '{sub}'")
        run_seed = _read(cfg, "seed", "count", 0, least=0)
        if seed is not None:
            run_seed = _read({"seed": seed}, "seed", "count", least=0)
        config_dir = _read(cfg, "output_dir", "text", ".")
        outdir = Path(config_dir if output_dir is None else output_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"bad output directory: {exc}") from exc
        summary = RUNNERS[sub](cfg, outdir, run_seed)
        unread = list(_unread(cfg))
        if unread:
            raise ConfigError(f"unknown config key(s) for {sub}: {', '.join(unread)}")
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    blas = numcore.blas_threads()  # the count OpenBLAS ran with; the --threads hint where none is found
    meta = {"subcommand": sub, "seed": run_seed, "threads": (threads or 1) if blas is None else blas,
            "config": str(config_path), "summary": summary}
    (outdir / "summary.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sectorial",
                                     description="config-driven spectral experiment runner")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker hint only, recorded in summary.json where the OpenBLAS "
                             "thread count cannot be read; results are byte-identical at a "
                             "fixed BLAS thread count (OPENBLAS_NUM_THREADS)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    return run(args.config, output_dir=args.output, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())

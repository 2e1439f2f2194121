"""The benchmark's workloads: seeded inputs, one job each, oracle checks.

A *job* is one user-level computation.  ``Workload.job`` is the only part
that is timed; ``make_input`` runs before it and ``check`` after it, both
outside the timed span.  Every input is generated here from the seed; nothing
is imported from the repository's tests.

Why these three workloads (see README.md for the long form):

* ``thermal`` -- the ``thermal`` user path at dim 128: numerical-range sweep,
  sector fit, free energies over four beta on one matrix.  Dominated by the
  sweep, by sector-boundary quadrature (~1000 nodes per beta) and by the
  node batch's memory.
* ``lattice`` -- eigenvalue tracking, Hellmann-Feynman and densities on the
  two-particle lattice (dim 256) with 128-node circles: few nodes, no sweep,
  no sector; repeated resolvent passes over the same matrix.
* ``cli-suite`` -- all seven subcommands through ``sectorial.cli.run`` at
  dim <= 100, where fixed per-call costs, config parsing and CSV writing
  dominate.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from sectorial import cli, eigenstate, forms, numcore, schrodinger, semigroup
from sectorial.contour import Circle
from sectorial.errors import NumericalFailure

# acceptance tolerances (tests/test_acceptance.py pins the same figures)
TOL_Z = 1e-6            # partition function, relative
TOL_EMAP = 1e-6         # e^{-beta T} against expm, relative 2-norm
TOL_ENERGY = 1e-8       # tracked/extracted eigenvalues
TOL_HF = 1e-5           # Hellmann-Feynman against central differences
TOL_CHARGE = 1e-8       # total charge of a density
TOL_IDEM = 1e-8         # projector idempotency and oracle projector
TOL_CAUCHY = 1e-7       # holomorphy residuals and Taylor c_0
TOL_SUPPORT = 1e-10     # numerical-range support values, relative to |T|
TOL_NEUMANN = 1e-10     # perturbed-inverse series, relative


def sectorial_matrix(rng, n: int, angle: float = 0.3, lo: float = 0.5,
                     hi: float = 3.0) -> np.ndarray:
    """Hermitian-dominant matrix with numerical range in a thin wedge.

    The hermitian part has the fixed spectrum linspace(lo, hi, n) in a random
    eigenbasis and the skew part has norm angle * lo, so the wedge (and with
    it the node count of every sector contour) barely moves with the seed.
    """
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    h = (q * np.linspace(lo, hi, n)) @ q.conj().T
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k + k.conj().T) / 2.0
    k *= angle * lo / np.linalg.norm(k, 2)
    return h + 1j * k


def hermitian_matrix(rng, n: int, lo: float, hi: float) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (q * np.linspace(lo, hi, n)) @ q.conj().T


def rel(a, b) -> float:
    """Relative 2-norm (or modulus) distance of a from the oracle value b."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def lattice_background(n: int, delta: float):
    """Criterion-07 style fields: u0 = 1.5 + cos(2 pi x / n), v0 = 0.4 / (1 + r^2)."""
    x = np.arange(n)
    u0 = 1.5 + np.cos(2.0 * np.pi * x / n)
    r = delta * np.minimum(x, n - x)
    v0 = 0.4 / (1.0 + r * r)
    return u0, v0


class Workload:
    """Base: ``make_input(k) -> inp``, ``job(inp) -> out``, ``check(inp, out)``.

    ``check`` returns a list of ``(name, error, tolerance)`` triples; the job
    passes when every error is within its tolerance.
    """

    name = ""

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def rng(self, k: int):
        return np.random.default_rng([self.seed, k])

    def describe(self) -> dict:
        return {}

    def counts(self, inp) -> dict:
        """Counters read from a job's outputs, outside the timed span."""
        return {}

    def note(self, out) -> dict:
        """Per-job facts for the run record (e.g. the beta grid actually used)."""
        return {}

    def derived(self, tracer, traced_jobs: int) -> dict:
        return {}

    def close(self) -> None:
        pass


class Thermal(Workload):
    """Fresh dim-128 matrix per job; sweep, fit, four-beta free-energy path."""

    name = "thermal"
    RANGE_NODES = 128
    MODULI = (0.6, 1.4, 1.0, 1.0)

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        self.dim = 12 if small else 128

    def describe(self):
        return {"dim": self.dim, "range_nodes": self.RANGE_NODES,
                "beta_grid": "moduli 0.6, 1.4 real; 1.0 at arg +-(pi/2 - half_angle)/2"}

    def make_input(self, k):
        return sectorial_matrix(self.rng(k), self.dim)

    def job(self, t):
        boundary = forms.numerical_range(t, self.RANGE_NODES)
        sector = forms.fit_sector(boundary, margin=0.05)
        room = math.pi / 2 - sector.half_angle
        args = (0.0, 0.0, 0.5 * room, -0.5 * room)
        betas = [m * complex(math.cos(a), math.sin(a)) for m, a in zip(self.MODULI, args)]
        zs, fs = semigroup.free_energy_path(betas, t, sector)
        return {"sector": sector, "betas": betas, "z": zs, "f": fs}

    def check(self, t, out):
        lam = numcore.eigvals_oracle(t)
        z_oracle = np.array([np.sum(np.exp(-b * lam)) for b in out["betas"]])
        z_err = max(abs(z - zo) / abs(zo) for z, zo in zip(out["z"], z_oracle))
        beta = out["betas"][1]
        e = semigroup.emap(beta, t, out["sector"], check_range=False)
        e_err = rel(e, numcore.expm_oracle(-beta * t))
        return [("z", z_err, TOL_Z), ("emap", e_err, TOL_EMAP)]

    def note(self, out):
        return {"betas": [[b.real, b.imag] for b in out["betas"]],
                "sector": [out["sector"].vertex, out["sector"].half_angle]}

    def derived(self, tracer, traced_jobs):
        batches = [s for s in tracer.spans if s.name == "contour.resolvent_batch"]
        return {"nodes_per_beta": tracer.logs.get("contour.nodes", []),
                "resolvent_batches_in_emap": tracer.count_under(
                    "contour.resolvent_batch", "semigroup.emap") / traced_jobs,
                "batches": len(batches) / traced_jobs}


class Lattice(Workload):
    """Criterion-07 lattice: track along a 3-point ramp, then HF and density."""

    name = "lattice"
    STEPS = (0.0, 0.5, 1.0)
    RAMP = 0.05      # field amplitude per coordinate at the ramp end
    FD_STEP = 1e-5   # central difference of oracle eigenvalues

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        n = 4 if small else 16
        self.grid = schrodinger.Grid(d=1, n=n, delta=0.5)
        self.space = schrodinger.ManyBodySpace(grid=self.grid, particles=2)
        u0, v0 = lattice_background(n, self.grid.delta)
        self.base = schrodinger.FieldConfig.zero(self.grid, u0=u0, v0=v0)
        self.dirs = [schrodinger.delta_u(self.grid, j) for j in range(n)] \
            + [schrodinger.delta_a(self.grid, 0, (j,)) for j in range(n)]
        self.fam, self.dfam = schrodinger.config_family(self.grid, self.space,
                                                        self.base, self.dirs)
        spec = np.linalg.eigvalsh(self.fam(np.zeros(len(self.dirs))))
        self.c0 = Circle(complex(spec[0]), 0.4 * float(spec[1] - spec[0]))

    def describe(self):
        return {"dim": self.space.dim, "grid": [self.grid.d, self.grid.n, self.grid.delta],
                "particles": self.space.particles, "circle_nodes": self.c0.nodes,
                "ramp_steps": list(self.STEPS)}

    def make_input(self, k):
        rng = self.rng(k)
        x_end = self.RAMP * rng.standard_normal(len(self.dirs)) * (1.0 + 0.3j)
        w = rng.standard_normal(len(self.dirs))
        cfg_end = self.base
        for c, d in zip(x_end, self.dirs):
            cfg_end = cfg_end + c * d
        return {"x_end": x_end, "w": w / np.linalg.norm(w), "cfg_end": cfg_end}

    def job(self, inp):
        path = [s * inp["x_end"] for s in self.STEPS]
        points = eigenstate.track_eigenvalue(self.fam, path, self.c0, s_values=self.STEPS)
        radius = min([self.c0.radius] + [eigenstate.RADIUS_GAP_FACTOR * p.gap for p in points])
        circle = Circle(points[-1].energy, radius, self.c0.nodes)
        hf = eigenstate.hellmann_feynman(self.fam, inp["x_end"], inp["w"], circle,
                                         dfamily=self.dfam)
        rho, _ = eigenstate.eigenstate_density(self.grid, self.space, inp["cfg_end"], circle)
        return {"energies": [p.energy for p in points], "hf": hf, "rho": rho}

    def _ground(self, x) -> complex:
        return complex(numcore.eigvals_oracle(self.fam(x))[0])

    def check(self, inp, out):
        e_err = max(abs(e - self._ground(s * inp["x_end"]))
                    for s, e in zip(self.STEPS, out["energies"]))
        x, w, h = inp["x_end"], inp["w"], self.FD_STEP
        fd = (self._ground(x + h * w) - self._ground(x - h * w)) / (2.0 * h)
        hf_err = abs(out["hf"] - fd) / max(1.0, abs(fd))
        charge = float(out["rho"].real.sum()) * self.grid.delta ** self.grid.d
        return [("energy", e_err, TOL_ENERGY), ("hellmann_feynman", hf_err, TOL_HF),
                ("charge", abs(charge - self.space.particles), TOL_CHARGE)]

    def derived(self, tracer, traced_jobs):
        steps = len(self.STEPS) * traced_jobs
        return {"batches_per_track_step": tracer.count_under(
                    "contour.resolvent_batch", "eigenstate.track_eigenvalue") / steps,
                "eigvals_oracle_per_track_step": tracer.count_under(
                    "numcore.eigvals_oracle", "eigenstate.track_eigenvalue") / steps}


class CliSuite(Workload):
    """One pass of all seven subcommands through ``cli.run``, in process."""

    name = "cli-suite"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        rng = self.rng(0)
        jmat = numcore.matrix_to_json
        nl, nt = (4, 4) if small else (10, 8)
        dims = (8, 6, 4, 6) if small else (48, 24, 12, 32)
        lat = self._lattice(nl, rng)
        self.lat_matrix = schrodinger.family(*lat[1:])
        e = np.linalg.eigvalsh(self.lat_matrix)
        self.matrices = {
            "numrange": sectorial_matrix(rng, dims[0]),
            "thermal": sectorial_matrix(rng, dims[1]),
            "holocheck": sectorial_matrix(rng, dims[2]),
            "neumann": hermitian_matrix(rng, dims[3], 1.0, 4.0),
        }
        pert = hermitian_matrix(rng, dims[3], -0.3, 0.3)
        self.matrices["perturbation"] = pert
        track_lat = self._lattice(nt, rng)
        direction = 0.004 * (rng.standard_normal(nt) + 0.3j * rng.standard_normal(nt))
        self.track = (track_lat, direction)
        self.configs = {
            "numrange": {"matrix": jmat(self.matrices["numrange"]), "contour": {"nodes": 256}},
            "riesz": dict(lat[0], contour={
                "type": "right_boundary", "abscissa": float(e[0] + e[1]) / 2.0,
                "sector": {"vertex": float(e[0]) - 1.0, "half_angle": 0.3}}),
            "track": dict(track_lat[0], path={
                "direction": {"u": [[z.real, z.imag] for z in direction]},
                "s": {"start": 0.0, "stop": 1.0, "num": 4}}),
            "density": lat[0],
            "thermal": {"matrix": jmat(self.matrices["thermal"]),
                        "beta": {"start": 0.5, "stop": 2.0, "num": 16}},
            "holocheck": {"matrix": jmat(self.matrices["holocheck"]),
                          "path": {"slices": 5, "radius": 0.01}},
            "neumann": {"matrix": jmat(self.matrices["neumann"]),
                        "perturbation": jmat(pert), "path": {"n_terms": 40}},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for sub, cfg in self.configs.items():
            path = self.workdir / f"{sub}.json"
            path.write_text(json.dumps(dict(cfg, subcommand=sub, seed=seed)))
            self.paths[sub] = path

    @staticmethod
    def _lattice(n, rng):
        delta = 0.5
        u0, v0 = lattice_background(n, delta)
        u0 = u0 + 0.2 * rng.uniform(size=n)
        block = {"grid": {"d": 1, "n": n, "delta": delta, "particles": 2},
                 "fields": {"u0": u0.tolist(), "v0": v0.tolist()}}
        grid = schrodinger.Grid(d=1, n=n, delta=delta)
        space = schrodinger.ManyBodySpace(grid=grid, particles=2)
        return block, grid, space, schrodinger.FieldConfig.zero(grid, u0=u0, v0=v0)

    def describe(self):
        return {"dims": {k: int(m.shape[0]) for k, m in self.matrices.items()},
                "lattice_dim": int(self.lat_matrix.shape[0]),
                "track_dim": self.track[0][2].dim, "thermal_betas": 16}

    def make_input(self, k):
        out = self.workdir / f"job{k}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def job(self, outdir):
        codes = {}
        for sub, path in self.paths.items():
            codes[sub] = cli.run(str(path), output_dir=str(outdir / sub))
            if codes[sub] == 3:
                raise NumericalFailure(f"cli {sub} exited with code 3")
        return codes

    def check(self, outdir, codes):
        errs = [("exit_codes", float(any(c != 0 for c in codes.values())), 0.0)]
        if errs[0][1]:
            return errs
        summary = {sub: json.loads((outdir / sub / "summary.json").read_text())["summary"]
                   for sub in self.paths}

        def table(sub, name):
            with open(outdir / sub / name, newline="") as fh:
                return list(csv.DictReader(fh))

        # numrange: support values are top eigenvalues of the rotated hermitian part
        t = self.matrices["numrange"]
        rows = table("numrange", "numrange.csv")[::8]
        sup = max(abs(float(r["support"]) - np.linalg.eigvalsh(
            (np.exp(-1j * float(r["angle"])) * t + np.exp(1j * float(r["angle"])) * t.conj().T)
            / 2.0)[-1]) for r in rows) / np.linalg.norm(t, 2)
        errs += [("numrange_support", sup, TOL_SUPPORT),
                 ("numrange_convex", float(not summary["numrange"]["convex"]), 0.0)]

        # riesz (right_boundary): rank-one ground-state projector
        w, v = np.linalg.eigh(self.lat_matrix)
        p = np.zeros_like(self.lat_matrix)
        for r in table("riesz", "projector.csv"):
            p[int(r["row"]), int(r["col"])] = complex(float(r["re_p"]), float(r["im_p"]))
        eig = complex(*summary["riesz"]["eigenvalue"]) if "eigenvalue" in summary["riesz"] \
            else complex("nan")
        errs += [("riesz_projector", float(np.linalg.norm(p - np.outer(v[:, 0], v[:, 0].conj()), 2)),
                  TOL_IDEM),
                 ("riesz_eigenvalue", abs(eig - w[0]), TOL_ENERGY)]

        # track: ground state along the ramp
        (_, grid, space, base), direction = self.track
        step = replace(schrodinger.FieldConfig.zero(grid), u=direction)
        e_err = 0.0
        for r in table("track", "track.csv"):
            s = float(r["s"])
            lam = numcore.eigvals_oracle(schrodinger.family(grid, space, base + s * step))
            e_err = max(e_err, abs(complex(float(r["re_E"]), float(r["im_E"])) - lam[0]))
        errs.append(("track_energy", e_err, TOL_ENERGY))

        # density: charge of the ground state, site by site
        psi = (v[:, 0] * v[:, 0].conj()).real.reshape(int(math.isqrt(len(w))), -1)
        delta = self.configs["density"]["grid"]["delta"]
        rho_oracle = (psi.sum(axis=0) + psi.sum(axis=1)) / delta
        rho = np.array([float(r["re"]) for r in table("density", "density.csv")
                        if r["kind"] == "rho"])
        errs += [("density_rho", float(np.abs(rho - rho_oracle).max()), TOL_CHARGE),
                 ("density_charge", summary["density"]["charge_defect"], TOL_CHARGE)]

        # thermal: Z against the eigenvalue sum
        lam = numcore.eigvals_oracle(self.matrices["thermal"])
        z_err = 0.0
        for r in table("thermal", "thermal.csv"):
            beta = complex(float(r["re_beta"]), float(r["im_beta"]))
            zo = np.sum(np.exp(-beta * lam))
            z_err = max(z_err, abs(complex(float(r["re_Z"]), float(r["im_Z"])) - zo) / abs(zo))
        errs.append(("thermal_z", z_err, TOL_Z))

        # holocheck: residuals, and c_0 = <eta, R(zeta0) phi> against a direct solve
        t = self.matrices["holocheck"]
        spec = numcore.eigvals_oracle(t)
        zeta0 = complex(spec.real.min() - 1.0 - abs(spec.imag).max() * 1j - 1.0j)
        report = json.loads((outdir / "holocheck" / "holocheck_report.json").read_text())
        c0_err = 0.0
        for sl in report["slices"]:
            prng = np.random.default_rng(self.seed + sl["slice"])
            n = t.shape[0]
            eta = prng.standard_normal(n) + 1j * prng.standard_normal(n)
            phi = prng.standard_normal(n) + 1j * prng.standard_normal(n)
            eta, phi = eta / np.linalg.norm(eta), phi / np.linalg.norm(phi)
            c0 = eta.conj() @ np.linalg.solve(t - zeta0 * np.eye(n), phi)
            c0_err = max(c0_err, abs(complex(*sl["coefficients"][0]) - c0) / abs(c0))
        errs += [("holocheck_residual", summary["holocheck"]["max_residual"], TOL_CAUCHY),
                 ("holocheck_c0", c0_err, TOL_CAUCHY)]

        # neumann: contraction ratio |L^-* T H^-1 L^*| and convergence to the inverse
        h, pert = self.matrices["neumann"], self.matrices["perturbation"]
        low = np.linalg.cholesky(h)          # h+ = h here: lambda_min(h) = 1
        ratio = np.linalg.norm(np.linalg.solve(low, pert @ np.linalg.solve(h, low)), 2)
        inv_norm = np.linalg.norm(np.linalg.inv(h + pert), 2)
        errs += [("neumann_ratio", abs(summary["neumann"]["ratio"] - ratio) / ratio, TOL_IDEM),
                 ("neumann_final", summary["neumann"]["final_error"] / inv_norm, TOL_NEUMANN)]
        shutil.rmtree(outdir, ignore_errors=True)
        return errs

    def counts(self, outdir):
        return {"cli.bytes_written": sum(p.stat().st_size for p in outdir.rglob("*")
                                         if p.is_file())}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Thermal, Lattice, CliSuite)}

"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure and runtime (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from sectorial import eigenstate as eg, forms, holocheck as hc, numcore, resolvent, \
    rigging, schrodinger as sch, semigroup
from sectorial.cli import run as cli_run
from sectorial.contour import Circle, riesz_projection, extract_eigenvalue, \
    rank_of_projection

from conftest import exact_hermitian, rand_complex, rand_hermitian, rand_sectorial

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}] {status}: {detail} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_nilpotent_numerical_range():
    with Timer() as t:
        b = forms.numerical_range(NILPOTENT, 256)
        max_mod = float(np.abs(b.points).max())
        ok = abs(max_mod - 0.5) <= 1e-8 and b.is_convex(1e-10)
    report(1, "numrange nilpotent", ok, f"max modulus {max_mod:.12f}", t.elapsed, 1.0)


def test_criterion_02_resolvent_bound():
    rng = np.random.default_rng(2)
    worst = 0.0
    with Timer() as t:
        for _ in range(100):
            n = int(rng.integers(2, 33))
            mat = rand_complex(rng, n)
            boundary = forms.numerical_range(mat, 256)
            top = float(np.abs(boundary.points).max())
            for k in range(10):
                z = (top + 0.3 + 0.3 * k) * np.exp(2j * np.pi * rng.uniform())
                lhs, rhs = resolvent.resolvent_bound_check(mat, complex(z),
                                                           boundary=boundary)
                worst = max(worst, lhs / rhs)
        ok = worst <= 1.0 + 1e-6
    report(2, "resolvent bound", ok, f"max |R|*dist = {worst:.9f}", t.elapsed, 30.0)


def test_criterion_03_riesz_projections():
    rng = np.random.default_rng(3)
    checked = 0
    worst_idem = 0.0
    worst_eig = 0.0
    with Timer() as t:
        while checked < 100:
            n = int(rng.integers(3, 17))
            mat = rand_complex(rng, n)
            if checked % 2:  # strongly non-normal variants
                mat = mat + 3.0 * np.triu(rand_complex(rng, n), 1)
            data = numcore.eig_oracle(mat)
            spec = data.eigenvalues
            k = int(rng.integers(n))
            gap = np.abs(np.delete(spec, k) - spec[k]).min()
            if gap < 1e-3 or data.condition > 1e8:
                continue
            c = Circle(complex(spec[k]), 0.4 * gap, 128)
            p = riesz_projection(mat, c)
            worst_idem = max(worst_idem, float(np.linalg.norm(p @ p - p, 2)))
            inside = int(np.sum(np.abs(spec - spec[k]) < 0.4 * gap))
            assert rank_of_projection(p) == inside
            if inside == 1:
                e = extract_eigenvalue(mat, c)
                worst_eig = max(worst_eig, abs(e - spec[k]))
            checked += 1
        # exactly hermitian input: the diagonal Schur form from eigh
        rng_h = np.random.default_rng(30)
        herm_idem = herm_eig = 0.0
        for _ in range(60):
            n = int(rng_h.integers(3, 17))
            mat = exact_hermitian(rng_h, n)
            spec = numcore.eigvals_oracle(mat)
            k = int(rng_h.integers(n))
            gap = np.abs(np.delete(spec, k) - spec[k]).min()
            c = Circle(complex(spec[k]), 0.4 * gap, 128)
            p = riesz_projection(mat, c)
            herm_idem = max(herm_idem, float(np.linalg.norm(p @ p - p, 2)))
            assert rank_of_projection(p) == 1
            herm_eig = max(herm_eig, abs(extract_eigenvalue(mat, c) - spec[k]))
        ok = max(worst_idem, herm_idem) <= 1e-8 and max(worst_eig, herm_eig) <= 1e-8
    report(3, "riesz projections", ok,
           f"max |P^2-P| = {worst_idem:.2e}, max eig err = {worst_eig:.2e}; "
           f"hermitian {herm_idem:.2e}, {herm_eig:.2e}", t.elapsed, 60.0)


def test_criterion_04_neumann_series():
    rng = np.random.default_rng(4)
    with Timer() as t:
        h = rand_hermitian(rng, 16, lo=1.0, hi=4.0)
        rg = rigging.make_h_plus(h)
        q = np.linalg.qr(rand_complex(rng, 16))[0]
        d = np.concatenate([[0.5], rng.uniform(-0.4, 0.4, 15)])
        t_pert = rg.factor.conj().T @ (q @ np.diag(d) @ q.conj().T) @ rg.factor
        out = resolvent.neumann_resolvent(h, t_pert, rg, 40)
        direct = numcore.inverse(h + t_pert)
        err = np.linalg.norm(out.series - direct, 2) / np.linalg.norm(direct, 2)
        l = rg.factor
        errs = np.array([np.linalg.norm(l @ (p - direct) @ l.conj().T, 2)
                         for p in out.partials])
        ks = np.arange(5, 41)
        fit_ratio = float(np.exp(np.polyfit(ks, np.log(errs[5:41]), 1)[0]))
        ok = err <= 1e-10 and abs(fit_ratio - out.ratio) <= 1e-3
    report(4, "neumann series", ok,
           f"final rel err {err:.2e}, fit ratio {fit_ratio:.6f} vs r={out.ratio:.6f}",
           t.elapsed, 10.0)


def test_criterion_05_emap_vs_oracle_and_semigroup_law():
    rng = np.random.default_rng(5)
    worst_oracle = 0.0
    worst_law = 0.0
    with Timer() as t:
        for trial in range(50):
            n = int(rng.integers(4, 65))
            mat = rand_sectorial(rng, n, angle=0.25, lo=0.4, hi=3.0)
            sec = forms.fit_sector(forms.numerical_range(mat, 128), margin=0.05)
            room = math.pi / 2 - sec.half_angle
            args = [0.0, 0.5 * room, -0.5 * room]
            mods = [0.6, 1.0, 1.7]
            for arg, mod in zip(args, mods):
                beta = mod * np.exp(1j * arg)
                e = semigroup.emap(beta, mat, sec, check_range=False)
                oracle = numcore.expm_oracle(-beta * mat)
                worst_oracle = max(worst_oracle,
                                   np.linalg.norm(e - oracle, 2) / np.linalg.norm(oracle, 2))
            if trial % 10 == 0:
                b1 = 0.5 * np.exp(0.3j * room)
                b2 = 0.8 * np.exp(-0.2j * room)
                lhs = semigroup.emap(b1 + b2, mat, sec, check_range=False)
                rhs = semigroup.emap(b1, mat, sec, check_range=False) \
                    @ semigroup.emap(b2, mat, sec, check_range=False)
                worst_law = max(worst_law,
                                np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))
        # exactly hermitian input: the diagonal Schur form from eigh
        rng_h = np.random.default_rng(50)
        worst_herm = 0.0
        for _ in range(20):
            n = int(rng_h.integers(4, 65))
            mat = exact_hermitian(rng_h, n, lo=0.4, hi=3.0)
            sec = forms.fit_sector(forms.numerical_range(mat, 128), margin=0.05)
            room = math.pi / 2 - sec.half_angle
            for arg, mod in zip([0.0, 0.5 * room, -0.5 * room], [0.6, 1.0, 1.7]):
                beta = mod * np.exp(1j * arg)
                e = semigroup.emap(beta, mat, sec, check_range=False)
                oracle = numcore.expm_oracle(-beta * mat)
                worst_herm = max(worst_herm,
                                 np.linalg.norm(e - oracle, 2) / np.linalg.norm(oracle, 2))
        ok = max(worst_oracle, worst_herm) <= 1e-6 and worst_law <= 1e-8
    report(5, "exponential map", ok,
           f"max oracle err {worst_oracle:.2e} (hermitian {worst_herm:.2e}), "
           f"max law defect {worst_law:.2e}", t.elapsed, 120.0)


def test_criterion_06_thermal_suite():
    rng = np.random.default_rng(6)
    with Timer() as t:
        # two-level closed form
        h2 = np.diag([0.0, 1.0]).astype(complex)
        sec2 = forms.Sector(-0.05, 0.02)
        worst_two = 0.0
        for beta in (0.5, 1.0, 2.0):
            st = semigroup.thermal_state(beta, h2, sec2)
            expect = -math.log(1.0 + math.exp(-beta)) / beta
            worst_two = max(worst_two, abs(st.f - expect))
        # 64-dim hermitian vs eigenvalue-sum oracle
        h64 = rand_hermitian(rng, 64, lo=0.1, hi=5.0)
        sec64 = forms.fit_sector(forms.numerical_range(h64, 128), margin=0.05)
        st64 = semigroup.thermal_state(1.2, h64, sec64)
        lam = numcore.eig_oracle(h64).eigenvalues.real
        f_oracle = -math.log(np.sum(np.exp(-1.2 * lam))) / 1.2
        err64 = abs(st64.f - f_oracle)
        trace_defect = abs(np.trace(st64.rho) - 1.0)
        # Schatten-Hoelder
        hoelder_ok = True
        for p in (2.0, 4.0):
            lhs = numcore.schatten_norm(semigroup.emap(1.0, h64, sec64, check_range=False), 1)
            rhs = numcore.schatten_norm(
                semigroup.emap(1.0 / p, h64, sec64, check_range=False), p) ** p
            hoelder_ok = hoelder_ok and lhs <= rhs * (1 + 1e-9)
        ok = worst_two <= 1e-12 and err64 <= 1e-9 and trace_defect <= 1e-9 and hoelder_ok
    report(6, "thermal suite", ok,
           f"two-level {worst_two:.2e}, 64-dim {err64:.2e}, trace defect {trace_defect:.2e}",
           t.elapsed, 30.0)


def _hf_problem():
    grid = sch.Grid(d=1, n=16, delta=0.5)
    space = sch.ManyBodySpace(grid=grid, particles=2)
    x = np.arange(16)
    u0 = 1.5 + np.cos(2 * np.pi * x / 16)
    v0 = sch.kernel_from_function(grid, lambda r: 0.4 / (1.0 + r @ r)).real
    base = sch.FieldConfig.zero(grid, u0=u0, v0=v0)
    return grid, space, base


def test_criterion_07_hellmann_feynman():
    rng = np.random.default_rng(7)
    with Timer() as t:
        grid, space, base = _hf_problem()
        h0 = sch.family(grid, space, base)
        spec = numcore.eig_oracle(h0).eigenvalues
        gap = abs(spec[1] - spec[0])
        circle = Circle(complex(spec[0]), 0.4 * gap, 64)

        dirs = [sch.delta_u(grid, j) for j in range(grid.sites)] \
            + [sch.delta_a(grid, 0, (j,)) for j in range(grid.sites)]
        fam, dfam = sch.config_family(grid, space, base, dirs)
        x0 = np.zeros(len(dirs))

        worst_dir = 0.0
        eps = 1e-5
        for _ in range(20):
            w = rng.standard_normal(len(dirs))
            w /= np.linalg.norm(w)
            hf = eg.hellmann_feynman(fam, x0, w, circle, dfamily=dfam)
            ep = extract_eigenvalue(fam(eps * w), circle)
            em = extract_eigenvalue(fam(-eps * w), circle)
            fd = (ep - em) / (2 * eps)
            worst_dir = max(worst_dir, abs(hf - fd) / max(1.0, abs(fd)))

        rho, _ = eg.eigenstate_density(grid, space, base, circle)
        flat = rho.reshape(-1)
        charge_defect = abs(flat.real.sum() * grid.delta - 2.0)
        worst_site = 0.0
        for j in range(grid.sites):
            d = sch.delta_u(grid, j)
            ep = extract_eigenvalue(sch.family(grid, space, base + eps * d), circle)
            em = extract_eigenvalue(sch.family(grid, space, base + (-eps) * d), circle)
            fd = (ep - em).real / (2 * eps)
            worst_site = max(worst_site, abs(flat[j].real * grid.delta - fd))

        # a complex field point: H is not hermitian, so the pass takes zgees and
        # the pair path's triangular substitutions
        rng_c = np.random.default_rng(70)
        xc = 0.05 * rng_c.standard_normal(len(dirs)) * (1.0 + 0.3j)
        spec = numcore.eigvals_oracle(fam(xc))
        circle = Circle(complex(spec[0]), 0.4 * abs(spec[1] - spec[0]), 64)
        ws = [w / np.linalg.norm(w) for w in rng_c.standard_normal((10, len(dirs)))]
        # every derivative first: they share one decomposition of H at xc
        hfs = [eg.hellmann_feynman(fam, xc, w, circle, dfamily=dfam) for w in ws]
        worst_complex = 0.0
        for w, hf in zip(ws, hfs):
            fd = (extract_eigenvalue(fam(xc + eps * w), circle)
                  - extract_eigenvalue(fam(xc - eps * w), circle)) / (2 * eps)
            worst_complex = max(worst_complex, abs(hf - fd) / max(1.0, abs(fd)))
        ok = max(worst_dir, worst_complex) <= 1e-5 and charge_defect <= 1e-8 \
            and worst_site <= 1e-6
    report(7, "hellmann-feynman", ok,
           f"max dir err {worst_dir:.2e} (complex point {worst_complex:.2e}), "
           f"charge defect {charge_defect:.2e}, max site err {worst_site:.2e}",
           t.elapsed, 180.0)


def test_criterion_08_duhamel():
    def trial(rng, make_h, make_dt):
        n = int(rng.integers(4, 13))
        h = make_h(rng, n)
        dt = make_dt(rng, n)
        beta = float(rng.uniform(0.5, 1.5))
        out = semigroup.duhamel_first_order(beta, h, dt)
        eps = 1e-5
        fd = (numcore.expm_oracle(-beta * (h + eps * dt))
              - numcore.expm_oracle(-beta * (h - eps * dt))) / (2 * eps)
        return np.linalg.norm(out - fd, 2) / np.linalg.norm(fd, 2)

    rng = np.random.default_rng(8)
    # exactly hermitian H (a diagonal Schur form) and sectorial H with complex
    # T (a triangular one), each from its own generator
    rng_h, rng_s = np.random.default_rng(81), np.random.default_rng(82)
    worst = worst_h = worst_s = 0.0
    with Timer() as t:
        for _ in range(20):
            worst = max(worst, trial(rng, lambda r, n: rand_hermitian(r, n, lo=0.3, hi=2.5),
                                     lambda r, n: rand_hermitian(r, n, lo=-1.0, hi=1.0)))
        for _ in range(20):
            worst_h = max(worst_h, trial(rng_h, lambda r, n: exact_hermitian(r, n, lo=0.3, hi=2.5),
                                         lambda r, n: rand_hermitian(r, n, lo=-1.0, hi=1.0)))
        for _ in range(20):
            worst_s = max(worst_s, trial(rng_s, rand_sectorial, rand_complex))
        ok = max(worst, worst_h, worst_s) <= 1e-5
    report(8, "duhamel first order", ok,
           f"max rel err {worst:.2e} (exactly hermitian {worst_h:.2e}, sectorial {worst_s:.2e})",
           t.elapsed, 30.0)


def test_criterion_09_holomorphy_harness():
    rng = np.random.default_rng(9)
    with Timer() as t:
        worst = {"rmap": 0.0, "emap": 0.0, "family": 0.0, "trackedE": 0.0, "freeF": 0.0}

        # rmap slices in the form argument
        base = rand_sectorial(rng, 8, angle=0.2)
        for k in range(20):
            w = rand_complex(rng, 8)
            w /= np.linalg.norm(w, 2)
            probe = hc.weak_probe(8, seed=100 + k)
            f = lambda z: resolvent.rmap(-2.0 - 0.5j, base + z * w)
            res = hc.cauchy_residual(f, 0.0, 1.0, r=0.05, m=32, probe=probe)
            worst["rmap"] = max(worst["rmap"], res.value)

        # emap slices
        h6 = rand_hermitian(rng, 6, lo=1.0, hi=3.0)
        sec = forms.Sector(vertex=-0.5, half_angle=0.6)
        for k in range(20):
            w = rand_hermitian(rng, 6, lo=-1.0, hi=1.0) \
                + 1j * rand_hermitian(rng, 6, lo=-0.3, hi=0.3)
            w /= np.linalg.norm(w, 2)
            probe = hc.weak_probe(6, seed=200 + k)
            f = lambda z: semigroup.emap(0.9, h6 + z * w, sec, check_range=False)
            res = hc.cauchy_residual(f, 0.0, 1.0, r=0.05, m=32, probe=probe)
            worst["emap"] = max(worst["emap"], res.value)

        # lattice family slices + polynomial cutoff
        grid = sch.Grid(d=1, n=6, delta=1.0)
        space = sch.ManyBodySpace(grid=grid, particles=2)
        u0 = 1.0 + np.cos(2 * np.pi * np.arange(6) / 6)
        fam_base = sch.FieldConfig.zero(grid, u0=u0)
        poly_ok = True
        for k in range(20):
            direction = sch.FieldConfig(
                grid=grid, u=0.4 * rng.standard_normal(6),
                a=0.4 * rng.standard_normal((1, 6)), v=0.2 * rng.standard_normal(6),
                f=0.3 * rng.standard_normal(6))
            probe = hc.weak_probe(space.dim, seed=300 + k)
            f = lambda z: sch.family(grid, space, fam_base + z * direction)
            res = hc.cauchy_residual(f, 0.0, 1.0, r=0.5, m=32, probe=probe)
            worst["family"] = max(worst["family"], res.value)
            coeffs = hc.taylor_coefficients(f, 0.0, 1.0, r=0.5, m=64, k_max=8,
                                            probe=probe)
            scale = np.abs(coeffs).max()
            poly_ok = poly_ok and np.abs(coeffs[3:]).max() <= 1e-9 * scale

        # tracked eigenvalue slices
        h0 = sch.family(grid, space, fam_base)
        spec = numcore.eig_oracle(h0).eigenvalues
        gap = abs(spec[1] - spec[0])
        circle = Circle(complex(spec[0]), 0.4 * gap, 128)
        for k in range(20):
            direction = sch.FieldConfig(
                grid=grid, u=rng.standard_normal(6), a=np.zeros((1, 6)),
                v=np.zeros(6), f=np.zeros(6))
            f = lambda z: extract_eigenvalue(
                sch.family(grid, space, fam_base + z * direction), circle)
            res = hc.cauchy_residual(f, 0.0, 1.0, r=0.02, m=32)
            worst["trackedE"] = max(worst["trackedE"], res.value)

        # free-energy slices
        for k in range(20):
            w = rand_hermitian(rng, 6, lo=-1.0, hi=1.0)
            w /= np.linalg.norm(w, 2)
            f = lambda z: semigroup.thermal_state(1.0, h6 + z * w, sec,
                                                  check_range=False).f
            res = hc.cauchy_residual(f, 0.0, 1.0, r=0.05, m=32)
            worst["freeF"] = max(worst["freeF"], res.value)

        # anti-holomorphic detector fails by orders of magnitude
        det = hc.cauchy_residual(lambda z: np.conj(z), 0.0, 1.0, r=1.0, m=64)
        detector_orders = math.log10(det.value / 1e-7)

        ok = all(v <= 1e-7 for v in worst.values()) and poly_ok and detector_orders >= 6.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(9, "holomorphy harness", ok,
           f"{detail}, detector {detector_orders:.1f} orders", t.elapsed, 120.0)


def test_criterion_10_rank_stability():
    rng = np.random.default_rng(10)
    agree = 0
    with Timer() as t:
        trials = 0
        while trials < 100:
            n = int(rng.integers(4, 13))
            a = rand_complex(rng, n)
            b = rand_complex(rng, n)
            spec = numcore.eig_oracle(a).eigenvalues
            k = int(rng.integers(n))
            gap = np.abs(np.delete(spec, k) - spec[k]).min()
            if gap < 1e-2:
                continue
            c = Circle(complex(spec[k]), 0.4 * gap, 128)
            ds = 0.02 * gap / max(1.0, np.linalg.norm(b, 2))
            p = riesz_projection(a, c)
            q = riesz_projection(a + ds * b, c)
            if np.linalg.norm(p - q, 2) >= 1.0:
                continue
            trials += 1
            if rank_of_projection(p) == rank_of_projection(q):
                agree += 1
        ok = agree == 100
    report(10, "rank stability", ok, f"{agree}/100 pairs agree", t.elapsed, 10.0)


def test_criterion_11_cli_determinism(tmp_path):
    n = 6
    u0 = [1.0 + math.cos(2 * math.pi * k / n) for k in range(n)]
    demo_suite = [
        {"subcommand": "numrange", "matrix": {"demo": "nilpotent"},
         "contour": {"nodes": 256}},
        {"subcommand": "riesz",
         "matrix": numcore.matrix_to_json(np.diag([0.0, 5.0]).astype(complex)),
         "contour": {"type": "circle", "center": [0.0, 0.0], "radius": 1.0,
                     "nodes": 64}},
        {"subcommand": "track",
         "path": {"demo": "diag", "s": {"start": 0.0, "stop": 1.0, "num": 6}}},
        {"subcommand": "density",
         "grid": {"d": 1, "n": n, "delta": 0.5, "particles": 2},
         "fields": {"u0": u0}},
        {"subcommand": "thermal", "matrix": {"demo": "two_level"},
         "beta": {"start": 0.5, "stop": 2.0, "num": 4}},
        {"subcommand": "holocheck",
         "matrix": numcore.matrix_to_json(np.diag([1.0, 2.0, 4.0]) + 0.1j * np.eye(3)),
         "path": {"slices": 3, "radius": 0.01}},
        {"subcommand": "neumann",
         "matrix": numcore.matrix_to_json(2.0 * np.eye(4)),
         "perturbation": numcore.matrix_to_json(0.5 * np.eye(4)),
         "path": {"n_terms": 20}},
    ]
    with Timer() as t:
        mismatches = []
        for k, base in enumerate(demo_suite):
            blobs = []
            for rep in (0, 1):
                outdir = tmp_path / f"demo{k}_rep{rep}"
                cfg = dict(base, seed=42, output_dir=str(outdir))
                cfg_path = tmp_path / f"demo{k}_{rep}.json"
                cfg_path.write_text(json.dumps(cfg))
                assert cli_run(str(cfg_path)) == 0
                blobs.append({p.name: p.read_bytes()
                              for p in sorted(outdir.glob("*.csv"))})
            if blobs[0] != blobs[1]:
                mismatches.append(base["subcommand"])
        ok = not mismatches
    report(11, "cli determinism", ok,
           "byte-identical CSVs" if ok else f"mismatch in {mismatches}",
           t.elapsed, 600.0)

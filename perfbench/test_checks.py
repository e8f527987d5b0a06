"""Negative controls: every check the benchmark applies must reject a wrong output.

    python3 -m pytest -q perfbench/test_checks.py

Each test feeds a check the right output (it must pass) and a deliberately
wrong one (it must fail), so a check that cannot fail is caught.  The
tests use synthetic outputs built from the closed forms and never run the
package's transforms, so they take seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracles
import run
import workloads
from spans import Tracer

POTENTIALS = [(a, b) for _, a, b in workloads.POTENTIALS]
STEP = oracles.X_STEP
HERE = Path(__file__).resolve().parent


def packet_lattice(alpha=0.0, beta=0.0, t=0.0, packet=workloads.PACKET):
    mean, cov = oracles.evolved_moments(*oracles.packet_moments(*packet), alpha, beta, t)
    return oracles.lattice_tomogram(mean, cov), mean, cov


@pytest.mark.parametrize("alpha,beta", POTENTIALS)
def test_classical_flow_matches_integrated_equations_of_motion(alpha, beta):
    t = 1.3
    m, c = oracles.classical_flow(alpha, beta, t)
    for start in ([1.0, 0.5], [-0.7, 2.0]):
        sol = solve_ivp(lambda _, z: [z[1], -alpha - 2 * beta * z[0]], (0, t), start, rtol=1e-12, atol=1e-12)
        assert np.allclose(m @ start + c, sol.y[:, -1], atol=1e-9)


@pytest.mark.parametrize("alpha,beta", POTENTIALS)
def test_moment_check_rejects_shifted_slice_and_wrong_flow(alpha, beta):
    values, mean, cov = packet_lattice(alpha, beta, 0.9)
    assert oracles.passes(oracles.moment_error(values, mean, cov), oracles.MOMENT_TOL)
    shifted = values.copy()
    shifted[37] = np.roll(values[37], 1)
    assert not oracles.passes(oracles.moment_error(shifted, mean, cov), oracles.MOMENT_TOL)
    late, _, _ = packet_lattice(alpha, beta, 0.95)
    assert not oracles.passes(oracles.moment_error(late, mean, cov), oracles.MOMENT_TOL)
    mirrored, _, _ = packet_lattice(-alpha - 0.3, beta, 0.9)
    assert not oracles.passes(oracles.moment_error(mirrored, mean, cov), oracles.MOMENT_TOL)


def test_gaussian_tomogram_is_the_marginal_of_mu_x_plus_nu_p():
    # quadrature of the defining transform for the packet at one frame
    x0, p0, sigma = workloads.PACKET
    y = np.arange(-20.0, 20.0, 1e-3)
    psi = (np.pi * sigma**2) ** -0.25 * np.exp(-((y - x0) ** 2) / (2 * sigma**2) + 1j * p0 * y)
    mean, cov = oracles.packet_moments(x0, p0, sigma)
    for X, mu, nu in [(0.5, 0.6, 0.8), (-1.2, 1.0, 0.2), (0.4, 0.3, -0.95)]:
        chirp = np.exp(0.5j * mu * y**2 / nu - 1j * X * y / nu)
        quad = abs(np.trapezoid(psi * chirp, y)) ** 2 / (2 * np.pi * abs(nu))
        assert abs(oracles.gaussian_tomogram(X, mu, nu, mean, cov) - quad) < 1e-9


def test_ho_ground_check_rejects_shift_and_misnormalization():
    x = oracles.x_lattice()
    exact = np.tile(np.exp(-(x**2)) / np.sqrt(np.pi), (oracles.THETA_COUNT, 1))
    assert oracles.passes(oracles.ho_ground_error(exact), oracles.HO_GROUND_TOL)
    assert not oracles.passes(oracles.ho_ground_error(exact * (1 + 1e-5)), oracles.HO_GROUND_TOL)
    assert not oracles.passes(oracles.ho_ground_error(np.roll(exact, 1, axis=1)), oracles.HO_GROUND_TOL)


def test_slice_norm_check_rejects_misnormalized_slice():
    values, _, _ = packet_lattice(0.0, 0.5, 0.7)
    assert oracles.passes(oracles.slice_norm_error(values, STEP), oracles.SLICE_NORM_TOL)
    bad = values.copy()
    bad[100] *= 1 + 1e-5
    assert not oracles.passes(oracles.slice_norm_error(bad, STEP), oracles.SLICE_NORM_TOL)
    assert not oracles.passes(oracles.slice_norm_error(values[5] * (1 - 3e-6), STEP), oracles.SLICE_NORM_TOL)


def test_homogeneity_check_rejects_wrong_power_of_scale():
    rng = np.random.default_rng(0)
    unit = rng.random(64)
    scale = rng.uniform(0.4, 2.5, 64)
    assert oracles.passes(oracles.homogeneity_error(unit / scale, unit, scale), oracles.HOMOGENEITY_TOL)
    assert not oracles.passes(oracles.homogeneity_error(unit / scale**2, unit, scale), oracles.HOMOGENEITY_TOL)
    assert not oracles.passes(oracles.homogeneity_error(unit, unit, scale), oracles.HOMOGENEITY_TOL)


def synthetic_scans(k1, k2, frame, power=2):
    """Scans of Pi(k; f) = k^power F(k f): the k^2 law holds only for power 2."""
    f = np.asarray(frame)

    def pi(k, fr):
        z = k * fr
        return k**power * np.exp(-z @ z + 1j * (z[0] - z[3]))

    def rows(ks, fr):
        return np.array([[k, *fr, 1.0, 1e-3, pi(k, fr).real, pi(k, fr).imag] for k in ks])

    return rows([k1, k2], f), rows([1.0, k2 / k1], k1 * f)


def test_k2_law_check_rejects_wrong_power_and_flipped_phase():
    frame = [0.3, 0.4, 0.25, 0.7]
    a, b = synthetic_scans(1.6, 0.7, frame)
    assert oracles.passes(oracles.k2_law_error(a, b, 1.6), oracles.K2_LAW_TOL)
    a3, b3 = synthetic_scans(1.6, 0.7, frame, power=3)
    assert not oracles.passes(oracles.k2_law_error(a3, b3, 1.6), oracles.K2_LAW_TOL)
    flipped = b.copy()
    flipped[:, 8] *= -1
    assert not oracles.passes(oracles.k2_law_error(a, flipped, 1.6), oracles.K2_LAW_TOL)


def write_green_csv(path, grid, t, values):
    x, y = np.meshgrid(grid, grid, indexing="ij")
    table = np.column_stack([x.ravel(), y.ravel(), np.full(x.size, t), values.real.ravel(), values.imag.ravel()])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="x,y,t,re,im", comments="")


def test_green_csv_check_rejects_flipped_phase_wrong_branch_and_order(tmp_path):
    grid, t = np.linspace(-12.0, 12.0, 24), 0.9
    rows = np.arange(grid.size**2)
    exact = oracles.oscillator_green(grid[:, None], grid[None, :], t)
    cases = {
        "exact": (exact, True),
        "flipped_phase": (exact.conj(), False),
        "wrong_branch": (exact * 1j, False),
        "free_kernel": (np.exp(0.5j * (grid[:, None] - grid[None, :]) ** 2 / t) / np.sqrt(2j * np.pi * t), False),
    }
    for name, (values, ok) in cases.items():
        write_green_csv(tmp_path / f"{name}.csv", grid, t, values)
        err = oracles.green_csv_error(tmp_path / f"{name}.csv", grid, t, rows)
        assert oracles.passes(err, oracles.GREEN_CSV_TOL) == ok, name
    # y outer instead of x outer: the coordinates no longer match
    write_green_csv(tmp_path / "swapped.csv", grid, t, exact)
    lines = (tmp_path / "swapped.csv").read_text().splitlines()
    swapped = [",".join([r.split(",")[1], r.split(",")[0], *r.split(",")[2:]]) for r in lines[1:]]
    (tmp_path / "swapped.csv").write_text("\n".join([lines[0], *swapped]) + "\n")
    assert not oracles.passes(oracles.green_csv_error(tmp_path / "swapped.csv", grid, t, rows), oracles.GREEN_CSV_TOL)


def write_tomogram_csv(path, values):
    x, th = np.meshgrid(oracles.x_lattice(), oracles.theta_lattice())
    table = np.column_stack([x.ravel(), th.ravel(), values.ravel()])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header="X,theta,w", comments="")


class FakeCliSession(workloads.CliSession):
    """The session's checks, run on files written here instead of by tomoprop."""

    def __init__(self, directory):
        super().__init__(seed=5)
        self.dir = directory
        self.p = self.params(0)

    def write_good_outputs(self):
        p = self.p
        x = oracles.x_lattice()
        ground = np.tile(np.exp(-(x**2)) / np.sqrt(np.pi), (oracles.THETA_COUNT, 1))
        write_tomogram_csv(self.path("ground.csv"), ground)
        write_tomogram_csv(self.path("period.csv"), ground)
        pde, _, _ = packet_lattice(p["alpha"], p["beta"], p["t_pde"], p["packet"])
        write_tomogram_csv(self.path("pde.csv"), pde)
        Path(self.path("compare.json")).write_text(json.dumps({"linf": 0.0, "l2": 0.0, "tol": 1e-6}))
        grid = workloads.GREEN_GRID
        write_green_csv(self.path("green.csv"), grid, p["t_green"], oracles.oscillator_green(grid[:, None], grid[None, :], p["t_green"]))
        a, b = synthetic_scans(p["k1"], p["k2"], p["frame"])
        for name, scan in (("scan_a.csv", a), ("scan_b.csv", b)):
            np.savetxt(self.path(name), scan, fmt="%.17g", delimiter=",", header="k,mu,nu,mu_p,nu_p,t,eps,re,im", comments="")


def corrupt_tomogram(session, name, change):
    path = session.path(name)
    values, _ = oracles.read_tomogram_csv(path)
    write_tomogram_csv(path, change(values))


CLI_CORRUPTIONS = {
    "ho_ground": lambda s: corrupt_tomogram(s, "period.csv", lambda v: np.roll(v, 1, axis=1)),
    "gaussian_moments": lambda s: corrupt_tomogram(s, "pde.csv", lambda v: np.roll(v, 2, axis=1)),
    "slice_norms": lambda s: corrupt_tomogram(s, "pde.csv", lambda v: v * (1 + 1e-5)),
    "compare": lambda s: Path(s.path("compare.json")).write_text(json.dumps({"linf": 2e-6, "l2": 0.0, "tol": 1e-6})),
    "green_csv": lambda s: write_green_csv(
        s.path("green.csv"), workloads.GREEN_GRID, s.p["t_green"],
        oracles.oscillator_green(workloads.GREEN_GRID[:, None], workloads.GREEN_GRID[None, :], s.p["t_green"]).conj(),
    ),
    "k2_law": lambda s: np.savetxt(
        s.path("scan_b.csv"), synthetic_scans(s.p["k1"], s.p["k2"], s.p["frame"], power=3)[1],
        fmt="%.17g", delimiter=",", header="k,mu,nu,mu_p,nu_p,t,eps,re,im", comments="",
    ),
}


def test_cli_session_checks_pass_on_right_files(tmp_path):
    session = FakeCliSession(tmp_path)
    session.write_good_outputs()
    assert session.check(session.p, [0] * 7) == []


@pytest.mark.parametrize("check", sorted(CLI_CORRUPTIONS))
def test_cli_session_check_rejects_wrong_file(tmp_path, check):
    session = FakeCliSession(tmp_path)
    session.write_good_outputs()
    CLI_CORRUPTIONS[check](session)
    assert check in session.check(session.p, [0] * 7)


def test_cli_session_rejects_nonzero_exit(tmp_path):
    session = FakeCliSession(tmp_path)
    assert session.check(session.p, [0, 0, 0, 3, 0, 0, 0]) == ["exit codes [0, 0, 0, 3, 0, 0, 0]"]


class OracleTomogram:
    """Stands in for an evolved tomogram: the Gaussian-moment oracle itself."""

    def __init__(self, mean, cov, scale=1.0):
        self.mean, self.cov = mean, cov
        self.values = oracles.lattice_tomogram(mean, cov) * scale

    def evaluate(self, X, mu, nu):
        return oracles.gaussian_tomogram(X, mu, nu, self.mean, self.cov)


@pytest.mark.parametrize("i", range(5))
def test_green_route_check_rejects_wrong_evolution(i):
    route = workloads.GreenRoute(seed=3)
    p = alpha, beta, t = route.params(i)
    right = oracles.evolved_moments(*route.moments0, alpha, beta, t)
    late = oracles.evolved_moments(*route.moments0, alpha, beta, t + 0.1)
    assert route.check(p, OracleTomogram(*right)) == []
    assert "gaussian_moments" in route.check(p, OracleTomogram(*late))
    assert route.check(p, OracleTomogram(*right, scale=1 + 1e-5)) == ["slice_norms"]


def test_five_consecutive_seeds_start_on_every_potential():
    for first in (1, 6, 38):
        starts = {workloads.GreenRoute(seed).params(0)[:2] for seed in range(first, first + 5)}
        assert starts == set(POTENTIALS)


def frame_query_case():
    queries = workloads.FrameQueries(seed=7)
    i = next(i for i in range(5) if not queries.params(i)["exact"])
    p = queries.params(i)
    mean, cov = oracles.evolved_moments(*queries.moments0, p["alpha"], p["beta"], p["t1"] + p["t2"])
    evolved = OracleTomogram(mean, cov)
    x = oracles.x_lattice()
    optical = oracles.gaussian_tomogram(x, np.cos(p["phi"]), np.sin(p["phi"]), mean, cov)
    return queries, p, evolved, evolved.evaluate(*p["frames"]), optical


def test_frame_query_checks_reject_wrong_frames_and_slices():
    queries, p, evolved, values, optical = frame_query_case()
    assert queries.check(p, (evolved, values, optical)) == []
    assert queries.check(p, (evolved, values * p["scale"], optical)) == ["homogeneity"]
    assert queries.check(p, (evolved, values, np.roll(optical, 3))) == ["gaussian_moments"]
    assert queries.check(p, (evolved, values, optical * (1 + 1e-5))) == ["slice_norms"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "green_route", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


class Meta:
    def __init__(self, **meta):
        self.meta = meta


def test_density_frames_use_the_wrapped_functions_own_mu_step():
    def density_from_tomogram(tomo, target_grid, *, mu_step=0.125):
        return Meta(mu_band=16.0, mu_edge_ratio=1e-12)

    tracer = Tracer()
    traced = tracer._wrap("tomography.density_from_tomogram", density_from_tomogram)
    grid = type("Grid", (), {"count": 10})()
    traced(None, grid)
    traced(None, target_grid=grid, mu_step=0.5)
    assert [s[6]["frames"] for s in tracer.spans] == [(2 * 128 + 1) * 19, (2 * 32 + 1) * 19]


def test_traced_run_fails_when_a_span_never_ran():
    tracer = Tracer()
    tracer.op, tracer.enabled = 0, True
    tracer._wrap("transport.solve_characteristics", lambda: None)()
    # a span that forwards records no count
    tracer.spans.append(["tomography.Tomogram.evaluate", 0.0, 1e-3, 1e-3, None, 0, {}])
    wanted = [{"name": n, "unit": "s"} for n in (
        "transport.solve_characteristics.s",
        "transport.characteristic_flow.s",
        "tomography.Tomogram.evaluate.frames",
    )]
    values = workloads.layer_values(workloads.FrameQueries(seed=1), tracer, 1, [m["name"] for m in wanted], 0.0)
    assert set(values) == {"transport.solve_characteristics.s"}
    result = {"correct": True, "attempted": 1, "failed": 0}
    with pytest.raises(ValueError, match="characteristic_flow.s.*evaluate.frames"):
        run.report(result, values, wanted)
    assert run.report(result, values, wanted[:1])["metrics"]["transport.solve_characteristics.s"]["unit"] == "s"

import json

import numpy as np
import pytest

from tomoprop import io as tio
from tomoprop.cli import (
    BYTES_PER_LATTICE_POINT,
    BYTES_PER_MATRIX_ENTRY,
    EXIT_DOMAIN,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TOLERANCE,
    MAX_LATTICE_POINTS,
    MAX_POS_COUNT,
    MEMORY_BUDGET,
    RunConfig,
    build_parser,
    main,
    parse_potential,
)
from tomoprop.errors import InvalidInputError
from tomoprop.greens import FREE, OSCILLATOR
from tomoprop.grids import MAX_FINE
from tomoprop.tomography import density_from_tomogram

FAST = ["--theta-count", "48", "--x-count", "101"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_potential():
    assert parse_potential("free") == FREE
    assert parse_potential("harmonic") == OSCILLATOR
    p = parse_potential("alpha=1,beta=0.3")
    assert p.alpha == 1.0 and p.beta == 0.3
    with pytest.raises(InvalidInputError):
        parse_potential("gamma=2")


def test_config_validation():
    with pytest.raises(InvalidInputError):
        RunConfig(x_count=4).validate()
    with pytest.raises(InvalidInputError):
        RunConfig(route="teleport").validate()
    # the pullback serves every quadratic potential
    RunConfig(route="pullback", potential="alpha=1,beta=0.3").validate()
    RunConfig(route="pullback", potential="harmonic").validate()


def test_config_refuses_grids_past_the_memory_budget():
    # validate only reads the counts, so the bounds themselves are checked without allocating
    assert MAX_LATTICE_POINTS * BYTES_PER_LATTICE_POINT == MEMORY_BUDGET
    assert MAX_POS_COUNT**2 * BYTES_PER_MATRIX_ENTRY <= MEMORY_BUDGET
    RunConfig(x_count=MAX_LATTICE_POINTS // 1024, theta_count=1024, pos_count=MAX_POS_COUNT).validate()
    RunConfig(pos_count=MAX_POS_COUNT).validate_matrices()
    with pytest.raises(InvalidInputError, match="lattice points exceed"):
        RunConfig(x_count=MAX_LATTICE_POINTS // 1024 + 1, theta_count=1024).validate()
    with pytest.raises(InvalidInputError, match="lattice points exceed"):
        RunConfig(x_count=10**9, theta_count=10**9).validate()
    # only green and reconstruct build pos_count^2 matrices; the rest hold vectors
    RunConfig(pos_count=MAX_POS_COUNT + 1).validate()
    with pytest.raises(InvalidInputError, match=f"pos_count {MAX_POS_COUNT + 1} exceeds"):
        RunConfig(pos_count=MAX_POS_COUNT + 1).validate_matrices()
    RunConfig(pos_count=MAX_FINE).validate()
    with pytest.raises(InvalidInputError, match=f"pos_count {MAX_FINE + 1} exceeds MAX_FINE"):
        RunConfig(pos_count=MAX_FINE + 1).validate()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["tomogram"], EXIT_OK),
        (["evolve", "--state", "gaussian:1,0.5,1", "--potential", "harmonic", "--t", "0.5"], EXIT_OK),
        (["green", "--t", "1"], EXIT_INVALID),
        (["reconstruct", "missing.csv"], EXIT_INVALID),
    ],
    ids=["tomogram", "evolve", "green", "reconstruct"],
)
def test_pos_count_past_the_matrix_bound_is_refused_only_where_matrices_are_built(tmp_path, capsys, argv, code):
    # 6000 points hold 6000^2 matrices past the memory budget, but a tomogram
    # of them needs only vectors: 0.2 s and a 3 MB tracemalloc peak
    out = tmp_path / "out.csv"
    got, _, err = run(argv + ["--pos-count", "6000", "-o", str(out)] + FAST, capsys)
    assert got == code
    if code == EXIT_OK:
        assert out.exists()
    else:
        assert "memory budget" in json.loads(err.strip())["message"]
        assert not out.exists()


def test_green_route_stays_within_the_lattice_memory_budget(tmp_path, capsys):
    # the bound RunConfig.validate applies per X-theta point, held by the
    # route that needs the most: about 250 B a point on the default lattice,
    # mostly the inverse transform's table, which the tomogram keeps
    import tracemalloc

    argv = ["evolve", "--state", "gaussian:1,0.5,1", "--potential", "harmonic", "--route", "green",
            "--t", "0.7", "-o", str(tmp_path / "e.csv")]
    tracemalloc.start()
    try:
        code, _, _ = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    config = RunConfig()
    assert peak < BYTES_PER_LATTICE_POINT * config.x_count * config.theta_count


@pytest.mark.parametrize(
    "argv",
    [
        ["tomogram", "--x-count", "70000", "--theta-count", "70000"],
        ["evolve", "--route", "green", "--x-count", "4097", "--theta-count", "1025"],
        ["green", "--pos-count", "100000"],
        ["reconstruct", "missing.csv", "--pos-count", "4097"],
    ],
    ids=["tomogram", "evolve", "green", "reconstruct"],
)
def test_cli_refuses_grids_past_the_memory_budget_before_numerics(tmp_path, capsys, argv):
    import tracemalloc

    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code, _, err = run(argv + ["-o", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INVALID
    assert "memory budget" in json.loads(err.strip())["message"]
    assert peak < 1 << 20  # refused from the counts alone
    assert not out.exists()


def test_tomogram_subcommand_writes_files(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(["tomogram", "--state", "ho_ground", "-o", str(out)] + FAST, capsys)
    assert code == EXIT_OK
    assert out.exists() and tio.meta_path_for(out).exists()
    meta = json.loads(tio.meta_path_for(out).read_text())
    assert meta["state_spec"] == {"kind": "ho", "n": 0}


def test_oscillator_period_identity(tmp_path, capsys):
    base = tmp_path / "base.csv"
    per = tmp_path / "per.csv"
    assert run(["tomogram", "--state", "ho_ground", "-o", str(base)] + FAST, capsys)[0] == EXIT_OK
    code, _, _ = run(
        ["evolve", "--state", "ho_ground", "--potential", "harmonic", "--route", "pullback",
         "--t", "6.283185307179586", "-o", str(per)] + FAST,
        capsys,
    )
    assert code == EXIT_OK
    code, out, _ = run(["compare", str(base), str(per), "--tol", "1e-6"], capsys)
    assert code == EXIT_OK
    assert json.loads(out.strip())["linf"] < 1e-6


def test_compare_failure_exits_3(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["tomogram", "--state", "ho:0", "-o", str(a)] + FAST, capsys)
    run(["tomogram", "--state", "ho:1", "-o", str(b)] + FAST, capsys)
    code, _, err = run(["compare", str(a), str(b), "--tol", "1e-6"], capsys)
    assert code == EXIT_TOLERANCE
    payload = json.loads(err.strip())
    assert payload["code"] == EXIT_TOLERANCE and "message" in payload and "context" in payload


def test_compare_of_different_lattices_exits_2(tmp_path, capsys):
    # both files hold 351 x 180 values, over X in [-14, 14] and [-10, 10]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["tomogram", "--state", "ho_ground", "-o", str(a)], capsys)[0] == EXIT_OK
    assert run(["tomogram", "--state", "ho_ground", "--x-lower", "-10", "--x-upper", "10", "-o", str(b)], capsys)[0] == EXIT_OK
    out = tmp_path / "c.json"
    code, _, err = run(["compare", str(a), str(b), "-o", str(out)], capsys)
    assert code == EXIT_INVALID
    assert "must share a grid" in json.loads(err.strip())["message"]
    assert not out.exists()


def test_pullback_of_general_potential_matches_pde(tmp_path, capsys):
    outputs = {}
    for route in ("pullback", "pde"):
        outputs[route] = tmp_path / f"{route}.csv"
        code, _, _ = run(
            ["evolve", "--state", "gaussian:1,0.5,1", "--route", route, "--potential", "alpha=1,beta=0.3",
             "--t", "0.9", "-o", str(outputs[route])] + FAST,
            capsys,
        )
        assert code == EXIT_OK
    code, out, _ = run(["compare", str(outputs["pullback"]), str(outputs["pde"]), "--tol", "1e-10"], capsys)
    assert code == EXIT_OK
    assert json.loads(out.strip())["linf"] < 1e-10


def test_caustic_green_exits_4(tmp_path, capsys):
    code, _, err = run(
        ["green", "--kind", "oscillator", "--t", "3.14159265", "--pos-count", "16",
         "-o", str(tmp_path / "g.csv")],
        capsys,
    )
    assert code == EXIT_DOMAIN
    assert json.loads(err.strip())["code"] == EXIT_DOMAIN


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--potential", "free", "--t", "1e-300"],
        ["kernel", "--potential", "alpha=1,beta=0.3", "--t", "1e-200"],
        ["kernel", "--potential", "harmonic", "--t=-1e-6"],
        ["green", "--kind", "free", "--t", "1e-300", "--pos-count", "16"],
        ["green", "--kind", "sliced", "--potential", "alpha=1,beta=0.3", "--t", "1e-9", "--pos-count", "16"],
        ["evolve", "--route", "green", "--potential", "free", "--t", "1e-7"] + FAST,
    ],
    ids=["kernel-free", "kernel-van-fleck", "kernel-oscillator", "green-free", "green-sliced", "evolve-green"],
)
def test_near_zero_time_exits_4(tmp_path, capsys, argv):
    # every kind's amplitude grows like |t|^(-1/2) and its phase like 1/t
    code, _, err = run(argv + ["-o", str(tmp_path / "out.csv")], capsys)
    assert code == EXIT_DOMAIN
    assert "singular" in json.loads(err.strip())["message"]
    assert not (tmp_path / "out.csv").exists()


def test_green_route_near_a_caustic_exits_4_before_allocating(tmp_path, capsys):
    # at t = pi - 1e-4 the oscillator kernel's phase rate over the packet's
    # grids needs about 3.7e5 fine samples, past MAX_FINE = 2^18; the route
    # refuses before the inverse transform, so nothing near the 6 MB each
    # upsampled component would take is ever allocated
    import tracemalloc

    argv = ["evolve", "--state", "gaussian:1,0.5,1", "--potential", "harmonic", "--route", "green",
            "--t", repr(np.pi - 1e-4), "-o", str(tmp_path / "e.csv")]
    tracemalloc.start()
    try:
        code, _, err = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DOMAIN
    message = json.loads(err.strip())["message"]
    assert "373724 fine samples" in message and "MAX_FINE = 262144" in message
    assert peak < 262144 * 16
    assert not (tmp_path / "e.csv").exists()


def test_tomogram_on_a_wide_position_grid(tmp_path, capsys):
    # read from the position samples alone, the oscillatory slices of this
    # grid needed 46239548 fine samples and the command exited 4; the
    # momentum samples need at most the grid's own 4096
    out = tmp_path / "wide.csv"
    argv = ["tomogram", "--state", "ho_ground", "--pos-lower", "-1000", "--pos-upper", "1000",
            "--pos-count", "4096", "-o", str(out)]
    assert run(argv, capsys)[0] == EXIT_OK
    tomo = tio.read_tomogram(out)
    X = tomo.x_grid.points
    # every slice of the oscillator's ground state is exp(-X^2)/sqrt(pi);
    # the state's step 0.49 limits it to 2.8e-10
    assert np.abs(tomo.values - np.exp(-(X**2)) / np.sqrt(np.pi)).max() < 1e-9


def test_overflowing_kernel_exits_4(tmp_path, capsys):
    # k^2 = 1e400 overflows a double
    code, _, err = run(["kernel", "--t", "1", "--k", "1e200", "-o", str(tmp_path / "s.csv")], capsys)
    assert code == EXIT_DOMAIN
    assert "non-finite" in json.loads(err.strip())["message"]


def test_aliased_green_route_names_the_cause(tmp_path, capsys):
    # at X step 0.4 a slice characteristic is known only out to pi/h = 7.85,
    # where the ground state's is still at 2e-7 of its peak, so the band
    # stops there and the route refuses
    code, _, err = run(
        ["evolve", "--state", "ho_ground", "--potential", "harmonic", "--route", "green",
         "--t", "0.5", "-o", str(tmp_path / "e.csv"), "--theta-count", "48", "--x-count", "71"],
        capsys,
    )
    assert code == EXIT_INVALID
    message = json.loads(err.strip())["message"]
    for part in ("unresolved", "cap 7.85", "pi/h = 7.85", "h = 0.4", "2 pi/h = 15.7", "finer X grid"):
        assert part in message
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("spec", ["gaussian:0,0,0.3", "gaussian:0,0,0.5"])
def test_green_route_refuses_a_band_capped_at_pi_over_h(tmp_path, capsys, spec):
    # FAST's X step 0.28 resolves slice characteristics out to pi/h = 11.2;
    # these narrow packets' are still above MU_EDGE_THRESHOLD there
    code, _, err = run(
        ["evolve", "--state", spec, "--potential", "harmonic", "--route", "green",
         "--t", "0.5", "-o", str(tmp_path / "e.csv")] + FAST,
        capsys,
    )
    assert code == EXIT_INVALID
    assert "pi/h = 11.2" in json.loads(err.strip())["message"]


@pytest.mark.parametrize(
    "spec, lattice",
    [("ho_ground", FAST), ("ho:3", ["--theta-count", "48", "--x-count", "201"])],
    ids=["ground-101", "ho3-201"],
)
def test_green_route_on_a_coarse_lattice_matches_the_pullback(tmp_path, capsys, spec, lattice):
    # the band (8.6 and 10.7) lies inside pi/h (11.2 and 22.4), and frames
    # past that radius read 0 rather than the table's periodic images, which
    # left ho:3 a spurious component and 2.4e-3; the oscillator leaves these
    # tomograms unchanged, so the pullback is exact here
    paths = {}
    for route in ("green", "pullback"):
        paths[route] = tmp_path / f"{route}.csv"
        argv = ["evolve", "--state", spec, "--potential", "harmonic", "--route", route,
                "--t", "0.5", "-o", str(paths[route])]
        assert run(argv + lattice, capsys)[0] == EXIT_OK
    green, pullback = (tio.read_tomogram(paths[route]) for route in ("green", "pullback"))
    assert np.abs(green.values - pullback.values).max() < 1e-9


def test_green_subcommand_values(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run(
        ["green", "--kind", "free", "--t", "1.0", "--pos-lower", "-1", "--pos-upper", "1",
         "--pos-count", "9", "-o", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    header, data = tio.read_grid_csv(out)
    assert header == ["x", "y", "t", "re", "im"]
    from tomoprop.greens import green_free

    row = data[0]
    expected = green_free(row[0], row[1], row[2])
    assert abs(complex(row[3], row[4]) - expected) < 1e-12


def test_kernel_subcommand(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        ["kernel", "--potential", "free", "--t", "1.0", "--k", "0.5,1.0",
         "--frame", "0.3,0.4,0.25,0.7", "-o", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    header, data = tio.read_grid_csv(out)
    assert data.shape[0] == 2 and data[0, 0] == 0.5


def test_reconstruct_subcommand(tmp_path, capsys):
    # reconstruction accuracy needs a denser tomogram than the other tests
    base = tmp_path / "t.csv"
    run(
        ["tomogram", "--state", "ho_ground", "-o", str(base),
         "--theta-count", "96", "--x-count", "201"],
        capsys,
    )
    code, out, _ = run(
        ["reconstruct", str(base), "-o", str(tmp_path / "rho.csv"), "--pos-count", "64",
         "--pos-lower", "-6", "--pos-upper", "6"],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out.strip())
    assert report["trace"] == pytest.approx(1.0, abs=1e-2)
    rho = tio.read_density(tmp_path / "rho.real.csv")
    x = rho.grid.points
    expected = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2)) / np.sqrt(np.pi)
    assert np.abs(rho.values - expected).max() < 1e-3


def test_reconstruct_sidecar_carries_inverse_diagnostics(tmp_path, capsys):
    sidecars = {}
    for spec in ("ho_ground", "gaussian:1,0.5,0.3"):
        base = tmp_path / f"{spec}.csv"
        assert run(["tomogram", "--state", spec, "-o", str(base)] + FAST, capsys)[0] == EXIT_OK
        out = tmp_path / f"rho-{spec}.csv"
        code, _, err = run(["reconstruct", str(base), "-o", str(out), "--pos-count", "32"], capsys)
        rho = density_from_tomogram(tio.read_tomogram(base), RunConfig(pos_count=32).position_grid())
        sidecars[spec] = (code, err, out, rho)
    # the ground state's band, 8.6, lies inside FAST's pi/h = 11.2
    code, _, out, rho = sidecars["ho_ground"]
    assert code == EXIT_OK
    meta = json.loads(tio.meta_path_for(out.with_name(out.stem + ".real.csv")).read_text())
    assert rho.meta["accuracy_warning"] is False and rho.meta["mu_edge_ratio"] <= 1e-8
    for key in ("mu_band", "mu_edge_ratio", "accuracy_warning"):
        assert meta[key] == rho.meta[key]
    # the width-0.3 packet outruns pi/h, so the band stops there and the
    # command refuses as the Green route does, writing nothing; it once wrote
    # the unresolved matrix and exited 0
    code, err, out, rho = sidecars["gaussian:1,0.5,0.3"]
    assert rho.meta["mu_band"] == pytest.approx(np.pi / 0.28, rel=1e-12)
    assert rho.meta["accuracy_warning"] is True and rho.meta["mu_edge_ratio"] > 1e-8
    assert code == EXIT_INVALID
    message = json.loads(err.strip())["message"]
    for part in ("unresolved", "cap 11.2", "pi/h = 11.2", "h = 0.28", "finer X grid"):
        assert part in message
    assert not list(tmp_path.glob("rho-gaussian*"))


def test_green_evolve_sidecar_carries_diagnostics(tmp_path, capsys):
    # at FAST's X step 0.28 the slice characteristic repeats within the frames
    # the inverse reads, so the Green route's reconstruction needs a finer X grid
    grids = ["--theta-count", "48", "--x-count", "201"]
    sidecars = {}
    for route in ("green", "pullback", "pde"):
        out = tmp_path / f"{route}.csv"
        argv = ["evolve", "--state", "ho_ground", "--potential", "harmonic", "--route", route, "--t", "0.5", "-o", str(out)]
        assert run(argv + grids, capsys)[0] == EXIT_OK
        sidecars[route] = json.loads(tio.meta_path_for(out).read_text())
    green = sidecars["green"]
    diagnostics = {
        "components", "weight_kept", "weight_dropped", "mu_band", "mu_edge_ratio", "accuracy_warning",
        "input_grid", "output_grid",
    }
    assert set(green) - set(sidecars["pullback"]) == diagnostics
    assert set(sidecars["pde"]) == set(sidecars["pullback"])
    assert green["components"] >= 1 and green["weight_kept"] == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= green["weight_dropped"] < 1e-4
    # the ground state's slice characteristics fall to 1e-8 of their peak by |mu| = 8.6
    assert 8.5 < green["mu_band"] < 8.7 and 0.0 <= green["mu_edge_ratio"] <= 1e-8
    assert green["accuracy_warning"] is False
    for key in ("input_grid", "output_grid"):
        lower, upper, count = green[key]
        assert lower < 0.0 < upper and count >= 8


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"state": "ho:1", "theta_count": 48, "x_count": 101}))
    out = tmp_path / "t.csv"
    code, _, _ = run(["tomogram", "--config", str(conf), "--state", "ho:2", "-o", str(out)], capsys)
    assert code == EXIT_OK
    meta = json.loads(tio.meta_path_for(out).read_text())
    assert meta["state_spec"]["n"] == 2
    assert meta["config"]["theta_count"] == 48


def test_unknown_config_key_exits_2(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"statee": "ho:1"}))
    code, _, err = run(["tomogram", "--config", str(conf)], capsys)
    assert code == EXIT_INVALID


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["tomogram", "--state", "gaussian:1,0.5,1"] + FAST
    run(args + ["-o", str(a)], capsys)
    run(args + ["-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["green", "--kind", "van-fleck", "--pos-count", "32"],
        ["kernel", "--k", "1"],
    ],
    ids=["green", "kernel"],
)
def test_general_potential_accepted_outside_evolve(tmp_path, capsys, args):
    # the default route is pullback, but only `evolve` follows a route
    code, _, err = run(
        args + ["--potential", "alpha=1,beta=0.3", "--t", "0.7", "-o", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == EXIT_OK, err
    assert (tmp_path / "o.csv").exists()


def test_malformed_state_number_exits_2(tmp_path, capsys):
    code, _, err = run(["tomogram", "--state", "ho:abc", "-o", str(tmp_path / "t.csv")], capsys)
    assert code == EXIT_INVALID
    assert json.loads(err.strip())["code"] == EXIT_INVALID


def test_default_route_evolve_serves_general_potential(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, _ = run(["evolve", "--potential", "alpha=1,beta=0.3", "--t", "0.5", "-o", str(out)] + FAST, capsys)
    assert code == EXIT_OK
    assert json.loads(tio.meta_path_for(out).read_text())["route"] == "pullback"


@pytest.mark.parametrize("text", ["alpha=abc", "beta=1.2.3", "alpha=nan", "alpha=1,beta=inf", "beta=-inf"])
def test_parse_potential_rejects_malformed_and_non_finite(text):
    with pytest.raises(InvalidInputError):
        parse_potential(text)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), "0.5"])
def test_config_rejects_non_finite_or_non_numeric_t(t):
    with pytest.raises(InvalidInputError):
        RunConfig(route="pde", t=t).validate()


@pytest.mark.parametrize(
    "flags",
    [
        ["--potential", "alpha=nan,beta=0.1", "--t", "0.5"],
        ["--potential", "alpha=abc", "--t", "0.5"],
        ["--potential", "harmonic", "--t", "nan"],
        ["--potential", "harmonic", "--t", "inf"],
    ],
    ids=["nan_potential", "malformed_potential", "nan_t", "inf_t"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "f.csv"
    code, _, err = run(["evolve", "--route", "pde", *flags, "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    assert json.loads(err.strip())["code"] == EXIT_INVALID
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        "gaussian:nan,0,1",
        "gaussian:0,0,inf",
        "gaussian:0,-inf,1",
        "super:nan*ho:0+1*ho:1",
        "super:1e200*ho:0+1e200*ho:1",  # finite spec whose norm overflows
    ],
)
def test_non_finite_states_exit_2(tmp_path, capsys, spec):
    out = tmp_path / "t.csv"
    code, _, err = run(["tomogram", "--state", spec, "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    message = json.loads(err.strip())["message"]
    assert spec in message or "non-finite norm" in message
    assert not out.exists()


def test_non_finite_tomogram_file_exits_2(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    assert run(["tomogram", "--state", "ho_ground", "-o", str(good)] + FAST, capsys)[0] == EXIT_OK
    lines = good.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:2] + ["nan"])
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(["compare", str(good), str(bad)], capsys)
    assert code == EXIT_INVALID
    assert "non-finite" in json.loads(err.strip())["message"]


@pytest.mark.parametrize("value, code", [("-5e-10", EXIT_OK), ("-2e-9", EXIT_INVALID)])
def test_small_negative_file_values_read_as_zero(tmp_path, capsys, value, code):
    good, spoilt = tmp_path / "good.csv", tmp_path / "spoilt.csv"
    assert run(["tomogram", "--state", "ho_ground", "-o", str(good)] + FAST, capsys)[0] == EXIT_OK
    lines = good.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:2] + [value])  # X = -14 at theta = 0, where w is ~1e-33
    spoilt.write_text("\n".join(lines) + "\n")
    result, out, err = run(["compare", str(good), str(spoilt)], capsys)
    assert result == code
    if code == EXIT_OK:
        # the spoilt value reads as 0, so the only difference is the good value there
        assert tio.read_tomogram(spoilt).values[0, 0] == 0.0
        assert json.loads(out.strip())["linf"] == tio.read_tomogram(good).values[0, 0]
    else:
        assert "negative" in json.loads(err.strip())["message"]


def assert_not_an_option(tmp_path, capsys, flag, key, value):
    out = tmp_path / "t.csv"
    code, _, _ = run(["tomogram", flag, str(value), "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    code, _, err = run(["tomogram", "--config", str(conf), "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    assert key in json.loads(err.strip())["message"]
    assert not out.exists()


def test_eps_theta_is_not_an_option(tmp_path, capsys):
    # the transform has no nu -> 0 switch; neither a flag nor a config key
    # may be accepted and then ignored
    assert_not_an_option(tmp_path, capsys, "--eps-theta", "eps_theta", 0.2)


def test_output_format_is_not_an_option(tmp_path, capsys):
    # every output is CSV; a json choice was accepted and then ignored
    assert_not_an_option(tmp_path, capsys, "--output-format", "output_format", "json")


@pytest.mark.parametrize("width", ["1e-200", "1e200"])
def test_packet_width_without_an_amplitude_exits_2(tmp_path, capsys, width):
    # the width's square underflows to 0 or overflows, so (pi sigma^2)^(-1/4) has no value
    out = tmp_path / "t.csv"
    code, _, err = run(["tomogram", "--state", f"gaussian:0,0,{width}", "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    assert "width" in json.loads(err.strip())["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "conf",
    [{"x_count": "abc"}, {"x_count": 351.0}, {"t": True}, {"state": 3}, ["x_count"]],
    ids=["str-for-int", "float-for-int", "bool-for-float", "int-for-str", "not-an-object"],
)
def test_config_file_values_are_type_checked(tmp_path, capsys, conf):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "t.csv"
    code, _, err = run(["tomogram", "--config", str(path), "-o", str(out)] + FAST, capsys)
    assert code == EXIT_INVALID
    if isinstance(conf, dict):
        assert next(iter(conf)) in json.loads(err.strip())["message"]
    assert not out.exists()


def test_valid_config_file_runs(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"state": "ho:1", "t": 1, "x_lower": -10, "x_count": 101, "theta_count": 48}))
    out = tmp_path / "t.csv"
    code, _, _ = run(["tomogram", "--config", str(path), "-o", str(out)], capsys)
    assert code == EXIT_OK
    config = json.loads(tio.meta_path_for(out).read_text())["config"]
    assert (config["state"], config["x_lower"], config["x_count"]) == ("ho:1", -10, 101)


def test_config_file_and_flags_write_identical_sidecars(tmp_path, capsys):
    # a JSON int for a float field is stored as a float, as the flag's value is
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"t": 1, "x_lower": -10, "eps": 1, "x_count": 101, "theta_count": 48}))
    out = tmp_path / "t.csv"
    sidecars = []
    for args in (
        ["--config", str(path)],
        ["--t", "1", "--x-lower", "-10", "--eps", "1", "--x-count", "101", "--theta-count", "48"],
    ):
        assert run(["tomogram", *args, "-o", str(out)], capsys)[0] == EXIT_OK
        sidecars.append(tio.meta_path_for(out).read_bytes())
    assert sidecars[0] == sidecars[1]
    assert json.loads(sidecars[0])["config"]["x_lower"] == -10.0


def test_config_float_out_of_range_exits_2(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text('{"x_lower": 1' + "0" * 400 + "}")
    code, _, err = run(["tomogram", "--config", str(path), "-o", str(tmp_path / "t.csv")], capsys)
    assert code == EXIT_INVALID
    assert "x_lower" in json.loads(err.strip())["message"]


def test_every_config_key_is_a_flag():
    # a key that only a config file could set would be a hidden setting
    (subparsers,) = [a for a in build_parser()._actions if a.choices and hasattr(a, "add_parser")]
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions if a.option_strings}
    assert set(RunConfig.__dataclass_fields__) <= dests


@pytest.mark.parametrize("key", ["kernel_points", "kernel_half_width"])
def test_kernel_grid_is_not_a_config_key(tmp_path, capsys, key):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({key: 101}))
    out = tmp_path / "scan.csv"
    code, _, err = run(["kernel", "--config", str(path), "-o", str(out)], capsys)
    assert code == EXIT_INVALID
    assert key in json.loads(err.strip())["message"]
    assert not out.exists()


def _foreign_convention(path):
    meta = json.loads(tio.meta_path_for(path).read_text())
    meta["convention_version"] = "tomoprop-conventions-0"
    tio.meta_path_for(path).write_text(json.dumps(meta))


def _foreign_theta_lattice(path):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    n = 48
    body = ["%s,%.17g,%s" % (x, float(th) * n / (n - 1), w) for x, th, w in rows]
    path.write_text("\n".join(lines[:1] + body) + "\n")


def _malformed_number(path):
    lines = path.read_text().splitlines()
    lines[2] = "1,0,x"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "spoil", [_foreign_convention, _foreign_theta_lattice, _malformed_number], ids=["convention", "theta", "number"]
)
@pytest.mark.parametrize("command", ["compare", "reconstruct"])
def test_untrusted_tomogram_files_exit_2(tmp_path, capsys, spoil, command):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    for path in (good, bad):
        assert run(["tomogram", "--state", "ho_ground", "-o", str(path)] + FAST, capsys)[0] == EXIT_OK
    spoil(bad)
    if command == "compare":
        argv = ["compare", str(good), str(bad)]
    else:
        argv = ["reconstruct", str(bad), "--pos-count", "16", "-o", str(tmp_path / "rho.csv")]
    code, _, err = run(argv, capsys)
    assert code == EXIT_INVALID
    assert "bad.csv" in json.loads(err.strip())["message"]


@pytest.mark.parametrize(
    "flags", [["--k", "1,abc"], ["--k", "nan"], ["--frame", "1,0,x,0"], ["--frame", "1,0,1"]]
)
def test_malformed_kernel_flags_exit_2(tmp_path, capsys, flags):
    code, _, err = run(["kernel", *flags, "-o", str(tmp_path / "s.csv")], capsys)
    assert code == EXIT_INVALID
    assert json.loads(err.strip())["code"] == EXIT_INVALID


def test_numerical_value_error_is_not_reported_as_invalid_input(monkeypatch, tmp_path):
    # a ValueError from inside the numerics is a bug, not a bad argument
    import tomoprop.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "tomogram_from_wavefunction", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["tomogram", "-o", str(tmp_path / "t.csv")] + FAST)


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only oracle
    import subprocess
    import sys

    code = (
        "import sys, tomoprop.cli; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(loaded); sys.exit(1 if loaded else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr

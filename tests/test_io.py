import csv
import io
import json

import numpy as np
import pytest

from tomoprop import io as tio
from tomoprop.errors import InvalidInputError
from tomoprop.grids import UniformGrid
from tomoprop.greens import GreenFunction
from tomoprop.states import density_from_wavefunction, make_state
from tomoprop.tomography import tomogram_from_wavefunction

X_GRID = UniformGrid(-8.0, 8.0, 81)
THETA_COUNT = 24


@pytest.fixture()
def tomo():
    return tomogram_from_wavefunction(make_state("ho_ground"), X_GRID, THETA_COUNT)


def test_tomogram_roundtrip(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo, {"state": "ho_ground"})
    back = tio.read_tomogram(path)
    assert np.array_equal(back.values, tomo.values)
    assert back.x_grid == tomo.x_grid
    assert back.theta_count == tomo.theta_count
    meta = json.loads(tio.meta_path_for(path).read_text())
    assert meta["state"] == "ho_ground"
    assert "convention_version" in meta


def test_tomogram_write_deterministic(tmp_path, tomo):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    tio.write_tomogram(a, tomo)
    tio.write_tomogram(b, tomo)
    assert a.read_bytes() == b.read_bytes()


def test_tomogram_header_and_order(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)
    lines = path.read_text().splitlines()
    assert lines[0] == "X,theta,w"
    first = lines[1].split(",")
    assert float(first[0]) == X_GRID.lower and float(first[1]) == 0.0
    # theta outer: second row advances X, not theta
    second = lines[2].split(",")
    assert float(second[1]) == 0.0 and float(second[0]) > float(first[0])


def test_read_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidInputError):
        tio.read_tomogram(bad)


def test_density_roundtrip(tmp_path):
    rho = density_from_wavefunction(make_state("ho:1", UniformGrid(-6.0, 6.0, 64)))
    real_path, imag_path = tio.write_density(tmp_path / "rho.csv", rho)
    assert real_path.name == "rho.real.csv" and imag_path.name == "rho.imag.csv"
    back = tio.read_density(real_path)
    assert np.abs(back.values - rho.values).max() < 1e-15
    assert back.grid == rho.grid
    meta = json.loads(tio.meta_path_for(real_path).read_text())
    assert meta["trace"] == pytest.approx(1.0, abs=1e-8)


def test_kernel_scan_format(tmp_path):
    rows = [(1.0, 0.3, 0.4, 0.25, 0.7, 1.0, 1e-3, 0.5 - 0.25j)]
    path = tmp_path / "scan.csv"
    tio.write_kernel_scan(path, rows)
    header, data = tio.read_grid_csv(path)
    assert header == ["k", "mu", "nu", "mu_p", "nu_p", "t", "eps", "re", "im"]
    assert data[0, 7] == 0.5 and data[0, 8] == -0.25


def test_atomic_write_leaves_no_temp_files(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# --- byte identity against a csv-module writer ---------------------------------


def csv_module_text(header, rows):
    """Reference CSV text: each value printed with %.17g by the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows([["%.17g" % float(v) for v in row] for row in rows])
    return buf.getvalue()


def test_tomogram_bytes_match_csv_module(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)
    x, theta = tomo.x_grid.points, tomo.theta_grid.points
    rows = [(x[i], theta[j], tomo.values[j, i]) for j in range(theta.size) for i in range(x.size)]
    assert path.read_text() == csv_module_text(["X", "theta", "w"], rows)


def test_green_grid_bytes_match_csv_module(tmp_path):
    x = np.linspace(-3.0, 3.0, 97)  # 9409 rows: more than one formatting block
    t = 0.7
    signed_zeros = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, 0.25)])
    cases = [
        (x, x[::2], GreenFunction.oscillator()(x[:, None], x[None, ::2], t)),
        # x and y on different grids, with -0.0 among the coordinates and values
        (np.array([-0.0, 0.0, 1e-300, -2.5, 1 / 3]), np.array([-0.0, 7.0, -1e-17, 0.1]), np.tile(signed_zeros, (5, 1))),
    ]
    for case, (xs, y, values) in enumerate(cases):
        path = tmp_path / f"g{case}.csv"
        tio.write_green_grid(path, xs, y, t, values)
        rows = [
            (xs[i], y[j], t, values[i, j].real, values[i, j].imag)
            for i in range(xs.size)
            for j in range(y.size)
        ]
        assert path.read_text() == csv_module_text(["x", "y", "t", "re", "im"], rows)
    assert (tmp_path / "g1.csv").read_text().startswith(
        "x,y,t,re,im\n-0,-0,0.69999999999999996,0,-0\n-0,7,0.69999999999999996,-0,0\n"
    )


def test_kernel_scan_bytes_match_csv_module(tmp_path):
    rows = [
        (1.0, 0.3, 0.4, 0.25, 0.7, 1.0, 1e-3, 0.5 - 0.25j),
        (2.5, -1e-300, 3.0, 0.1, 1 / 3, 0.9, 1e-3, complex(np.float64(1e-17), -7.0)),
    ]
    path = tmp_path / "scan.csv"
    tio.write_kernel_scan(path, rows)
    expected = [(*row[:7], row[7].real, row[7].imag) for row in rows]
    assert path.read_text() == csv_module_text(["k", "mu", "nu", "mu_p", "nu_p", "t", "eps", "re", "im"], expected)


def test_density_bytes_match_csv_module(tmp_path):
    rho = density_from_wavefunction(make_state("gaussian:0.5,1,0.8", UniformGrid(-6.0, 6.0, 64)))
    real_path, imag_path = tio.write_density(tmp_path / "rho.csv", rho)
    grid_line = "# x: %.17g %.17g %d\n" % (rho.grid.lower, rho.grid.upper, rho.grid.count)
    assert real_path.read_text() == grid_line + csv_module_text(None, rho.values.real)
    assert imag_path.read_text() == grid_line + csv_module_text(None, rho.values.imag)


# --- files that cannot be trusted ----------------------------------------------


def rewrite_rows(path, edit):
    """Apply edit(rows) to the float rows of a tomogram CSV, keeping its header."""
    header, data = tio.read_grid_csv(path)
    path.write_text(csv_module_text(header, edit(data)))


def test_read_rejects_foreign_theta_lattice(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)

    def half_circle(data):
        data[:, 1] *= THETA_COUNT / (THETA_COUNT - 1)  # theta_j = pi j / (n - 1), ending on pi
        return data

    rewrite_rows(path, half_circle)
    with pytest.raises(InvalidInputError, match="angle_grid"):
        tio.read_tomogram(path)


def test_read_rejects_non_uniform_x(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)

    def warp(data):
        data[:, 0] = data[:, 0] ** 3 / 64.0
        return data

    rewrite_rows(path, warp)
    with pytest.raises(InvalidInputError, match="uniform X grid"):
        tio.read_tomogram(path)


def test_read_rejects_rows_out_of_order(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo)
    rewrite_rows(path, lambda data: data[np.lexsort((data[:, 1], data[:, 0]))])  # X outer
    with pytest.raises(InvalidInputError):
        tio.read_tomogram(path)


def test_read_rejects_other_convention_version(tmp_path, tomo):
    path = tmp_path / "t.csv"
    tio.write_tomogram(path, tomo, {"convention_version": "tomoprop-conventions-0"})
    with pytest.raises(InvalidInputError, match="convention version"):
        tio.read_tomogram(path)


@pytest.mark.parametrize("reader", ["tomogram", "grid", "density"])
def test_readers_reject_malformed_numbers_naming_the_file(tmp_path, tomo, reader):
    if reader == "density":
        rho = density_from_wavefunction(make_state("ho:1", UniformGrid(-6.0, 6.0, 16)))
        path, _ = tio.write_density(tmp_path / "rho.csv", rho)
        read = tio.read_density
    else:
        path = tmp_path / "t.csv"
        tio.write_tomogram(path, tomo)
        read = tio.read_tomogram if reader == "tomogram" else tio.read_grid_csv
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["x"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match=path.name):
        read(path)


def test_read_rejects_empty_tomogram(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("X,theta,w\n")
    with pytest.raises(InvalidInputError, match="no data rows"):
        tio.read_tomogram(path)


def test_read_density_rejects_shape_mismatch(tmp_path):
    rho = density_from_wavefunction(make_state("ho:1", UniformGrid(-6.0, 6.0, 16)))
    real_path, _ = tio.write_density(tmp_path / "rho.csv", rho)
    lines = real_path.read_text().splitlines()
    real_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(InvalidInputError, match="does not match the grid"):
        tio.read_density(real_path)

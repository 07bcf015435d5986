"""Command line behavior: outputs, determinism, and exit code mapping."""

import numpy as np
import pytest

import catqed as cq
from catqed.cli import main
from catqed.config import parse_config, serialize_config

SMOKE = """\
[model]
n_qubits = 2
gamma = 0.2

[photonic]
kind = even_cat
alpha = 1

[propagation]
t_max = 2
"""


def write_config(tmp_path, text=SMOKE, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_config_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE + "\n[model2]\nx = 1\n")
    assert main(["simulate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_writes_series(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "qfi_density" in text
    csv = out / "run_series.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "time,qfi_density,photon_number"


def test_simulate_without_monitors_writes_the_times_alone(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE + "\n[monitors]\nnames =\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert "columns: time)" in capsys.readouterr().out
    csv = out / "run_series.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "time" and all("," not in line for line in lines)
    times = np.loadtxt(str(csv), skiprows=1)
    assert times.shape == (2001,) and times[0] == 0.0 and times[-1] == 2.0


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path)
    main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", path, "--out", str(tmp_path / "b")])
    capsys.readouterr()
    first = (tmp_path / "a" / "run_series.csv").read_bytes()
    second = (tmp_path / "b" / "run_series.csv").read_bytes()
    assert first == second


def test_truncation_failure_exit_code(tmp_path, capsys):
    text = SMOKE.replace("alpha = 1", "alpha = 3")
    text = text.replace("t_max = 2", "t_max = 2\nn_max = 12")
    path = write_config(tmp_path, text)
    assert main(["simulate", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_wigner_writes_grids(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "w"
    code = main(["wigner", "--config", path, "--times", "1.0,0",
                 "--parity", "even", "--n-theta", "41", "--n-phi", "24",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    for stamp in ("t0", "t1"):
        target = out / f"run_wigner_even_{stamp}.dat"
        assert target.exists()
        assert target.read_text().startswith("# J=1 n_theta=41 n_phi=24")


@pytest.mark.parametrize("kind", ["even_cat", "kitten"])
def test_wigner_files_read_back_to_the_grids(tmp_path, capsys, kind):
    # both t = 0 grids (emitters down) have column period 1; at t = 1.5 the
    # even cat's has n_phi / 2 and the kitten's none, so every branch of
    # the writer is read back
    text = SMOKE.replace("kind = even_cat", f"kind = {kind}")
    path = write_config(tmp_path, text)
    out = tmp_path / "w"
    assert main(["wigner", "--config", path, "--times", "0,1.5", "--n-theta", "19",
                 "--n-phi", "24", "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = parse_config(text)
    states = cq.snapshots(cfg.initial_state(), cfg.model_params(), [0.0, 1.5], cfg.dt)
    for state in states:
        grid = cq.wigner_function(cq.reduce_to_electron(state), n_theta=19, n_phi=24)
        data = np.loadtxt(out / f"run_wigner_none_t{state.time:g}.dat")
        assert np.array_equal(data[:, 2].reshape(19, 24), grid.values)


def test_wigner_impossible_outcome_exit_code(tmp_path, capsys):
    # the even cat has strictly zero odd-parity weight at t = 0
    path = write_config(tmp_path)
    code = main(["wigner", "--config", path, "--times", "0",
                 "--parity", "odd", "--out", str(tmp_path / "w")])
    assert code == 4
    assert "validation failure" in capsys.readouterr().err


def test_wigner_beyond_the_kernel_range_exit_code(tmp_path, capsys):
    # N = 60 is far past where a factorial-sum Clebsch-Gordan loses digits
    text = SMOKE.replace("n_qubits = 2", "n_qubits = 60")
    path = write_config(tmp_path, text)
    code = main(["wigner", "--config", path, "--times", "0", "--n-theta", "19",
                 "--n-phi", "12", "--out", str(tmp_path / "w")])
    assert code == 0
    capsys.readouterr()
    target = tmp_path / "w" / "run_wigner_none_t0.dat"
    assert target.read_text().startswith("# J=30 n_theta=19 n_phi=12")


@pytest.mark.parametrize("flag, value", [("--n-phi", "0"), ("--n-theta", "-1"),
                                         ("--n-theta", "0"), ("--n-theta", "1")])
def test_wigner_bad_grid_size_is_usage_error(tmp_path, capsys, flag, value):
    path = write_config(tmp_path)
    out = tmp_path / "w"
    assert main(["wigner", "--config", path, "--times", "0", flag, value,
                 "--out", str(out)]) == 2
    assert "n_theta >= 2" in capsys.readouterr().err
    assert not list(out.glob("*.dat"))


def test_wigner_bad_grid_size_is_refused_before_propagating(tmp_path, capsys,
                                                            monkeypatch):
    def no_snapshots(*args, **kwargs):
        raise AssertionError("snapshots ran before the grid size was checked")

    monkeypatch.setattr(cq.cli, "snapshots", no_snapshots)
    path = write_config(tmp_path)
    assert main(["wigner", "--config", path, "--times", "0,20000",
                 "--n-theta", "0", "--out", str(tmp_path / "w")]) == 2
    assert "n_theta >= 2" in capsys.readouterr().err


def test_wigner_huge_sample_interval_is_numerical_failure(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["wigner", "--config", path, "--times", "1e30",
                 "--out", str(tmp_path / "w")]) == 3
    assert "sample that interval more finely" in capsys.readouterr().err


def test_wigner_times_sharing_a_file_name_are_usage_error(tmp_path, capsys):
    # t{time:g} keeps six significant digits: 1234.5678 and 1234.5679 are
    # distinct snapshots on a 1e-4 grid but would write one file
    path = write_config(tmp_path, SMOKE + "dt = 1e-4\n")
    out = tmp_path / "w"
    assert main(["wigner", "--config", path, "--times", "1234.5678,1234.5679",
                 "--out", str(out)]) == 2
    assert "share a file name" in capsys.readouterr().err
    assert not list(out.glob("*.dat"))
    # one time requested twice is one snapshot and one file
    assert main(["wigner", "--config", path, "--times", "1,1", "--n-theta", "5",
                 "--n-phi", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert [p.name for p in out.glob("*.dat")] == ["run_wigner_none_t1.dat"]


def test_window_convergence_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cq.measurement, "WINDOW_RHO_ATOL", -1.0)
    text = SMOKE + "\n[measurement]\ndelta_x = 0.5\n\n[monitors]\nquadrature = true\n"
    path = write_config(tmp_path, text)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "node doublings" in capsys.readouterr().err


def test_wigner_bad_times_argument(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["wigner", "--config", path, "--times", "1.0;2.0",
                 "--out", str(tmp_path / "w")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("times", ["inf", "nan", "0,inf"])
def test_wigner_non_finite_times_are_usage_errors(tmp_path, capsys, times):
    path = write_config(tmp_path)
    code = main(["wigner", "--config", path, "--times", times,
                 "--out", str(tmp_path / "w")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_removed_mu_key_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE.replace("gamma = 0.2", "gamma = 0.2\nmu = 1"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'mu'" in capsys.readouterr().err


def test_non_finite_config_value_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE.replace("t_max = 2", "t_max = nan"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_writes_table(tmp_path, capsys):
    text = SMOKE.replace("t_max = 2", "t_max = 15") \
        + "\n[sweep]\nn_qubits = 1 2\n"
    path = write_config(tmp_path, text)
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "run_sweep.csv").read_text().splitlines()
    assert lines[0] == "n_qubits,alpha,t_peak,peak_qfi_density,fwhm,status"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")


def test_sweep_requires_sweep_section(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", path]) == 2
    capsys.readouterr()


def test_every_command_refuses_a_bare_sweep_section(tmp_path, capsys):
    # a [sweep] section asks for a sweep, so it must say over which sizes
    path = write_config(tmp_path, SMOKE + "\n[sweep]\n")
    out = ["--out", str(tmp_path / "o")]
    for argv in (["echo-config"], ["simulate", *out], ["sweep", *out]):
        assert main([*argv, "--config", path]) == 2
        assert capsys.readouterr().err == "config error: [sweep] requires n_qubits\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    path = write_config(tmp_path, SMOKE + "\n[sweep]\nn_qubits = 1 2\n")
    assert main(["sweep", "--config", path, "--workers", workers,
                 "--out", str(tmp_path / "s")]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_sweep_pool_is_capped_at_the_sizes(tmp_path, capsys, monkeypatch):
    # a fork pool starts every worker up front; this stand-in records the
    # pool size and maps in-process, so no process is ever started
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = write_config(tmp_path, SMOKE + "\n[sweep]\nn_qubits = 1 2\n")
    for workers in ("5000", "2", "1"):
        assert main(["sweep", "--config", path, "--workers", workers,
                     "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert sizes == [2, 2]


def test_validate_all_green(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert "wigner_kernel_weights" in out and "FAIL" not in out


def test_validate_flags_broken_block(monkeypatch, capsys):
    monkeypatch.setattr(cq.wigner, "kernel_weights", lambda n: np.zeros(n + 1))
    assert main(["validate"]) == 4
    out = capsys.readouterr().out
    assert "wigner_kernel_weights" in out and "FAIL" in out


def test_echo_config_is_canonical(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["echo-config", "--config", path]) == 0
    printed = capsys.readouterr().out
    assert printed == serialize_config(parse_config(SMOKE))
    assert "\nmu =" not in printed
    reparsed = parse_config(printed)
    assert reparsed == parse_config(SMOKE)


@pytest.mark.parametrize("old,new", [
    ("gamma = 0.2", "gamma = -1"),
    ("gamma = 0.2", "gamma = 0.2\ndelta = 0"),
    ("t_max = 2", "t_max = 1\ndt = 5"),
], ids=["gamma", "delta", "dt-above-t_max"])
def test_echo_config_refuses_what_simulate_refuses(tmp_path, capsys, old, new):
    path = write_config(tmp_path, SMOKE.replace(old, new))
    assert main(["echo-config", "--config", path]) == 2
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2

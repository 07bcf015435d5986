"""Config parsing: strict schema, auto resolution, canonical round trip."""

import configparser
import math

import pytest

import catqed as cq
from catqed.config import _SCHEMA, parse_config, load_config, serialize_config

MINIMAL = """\
[model]
n_qubits = 8
gamma = 0.01

[photonic]
kind = even_cat
alpha = 2

[propagation]
t_max = 50
"""


def test_minimal_config_resolves_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model == cq.ModelParams(8, 0.01)
    assert cfg.photonic == cq.PhotonicSpec("even_cat", 2.0 + 0.0j)
    assert cfg.propagation == cq.PropagationPlan(
        t_max=50.0, dt=1e-3, monitors=("qfi_density", "photon_number"))
    assert cfg.measurement == cq.QuadratureSpec(phase_tracking=True)
    assert cfg.n_max == cq.required_n_max(2.0, 8)
    assert cfg.quadrature is False
    assert cfg.out_dir == "." and cfg.prefix == "run"
    assert cfg.sweep_qubits == () and cfg.sweep_alpha is None


def test_large_amplitude_gets_fine_step():
    text = MINIMAL.replace("alpha = 2", "alpha = 30")
    assert parse_config(text).dt == 1e-4
    text = MINIMAL.replace("alpha = 2", "alpha = 29.9")
    assert parse_config(text).dt == 1e-3


def test_serialize_parse_round_trip():
    full = MINIMAL + """
[measurement]
x = 0.25
delta_x = 0.1
track = false
phi = 1.5707963267948966

[monitors]
names = qfi_density prob_even photon_number
quadrature = true

[output]
directory = out
prefix = catrun

[sweep]
n_qubits = 4 8 16
alpha = 2+1j
"""
    cfg = parse_config(full)
    assert parse_config(serialize_config(cfg)) == cfg


EVERY_KEY = """\
[model]
n_qubits = 4
gamma = 0.05
delta = 1.25
omega = 0.75
rwa = false

[photonic]
kind = general_cat
alpha = 2
beta = -2+0.5j
phi_cat = 0.3

[propagation]
t_max = 10
dt = 0.01
n_max = 60
sample_stride = 5

[measurement]
x = 0.25
delta_x = 0.1
track = false
phi = 1.5

[monitors]
names = qfi_density prob_even
quadrature = true

[output]
directory = out
prefix = every

[sweep]
n_qubits = 2 4
alpha = 1.5
"""


def _keys(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return {sec: set(cp.options(sec)) for sec in cp.sections()}


def test_every_schema_key_serializes_and_parses_back():
    # drift guard: a key the schema gains must reach the canonical form
    # and come back from it unchanged
    assert _keys(EVERY_KEY) == {sec: set(keys) for sec, keys in _SCHEMA.items()}
    cfg = parse_config(EVERY_KEY)
    text = serialize_config(cfg)
    assert _keys(text) == _keys(EVERY_KEY)
    assert parse_config(text) == cfg
    # a kind without beta still prints every other key, phi_cat included
    kitten = EVERY_KEY.replace("kind = general_cat", "kind = kitten") \
        .replace("beta = -2+0.5j\n", "").replace("phi_cat = 0.3", "phi_cat = 0")
    cfg = parse_config(kitten)
    text = serialize_config(cfg)
    assert "\nphi_cat = 0\n" in text and "beta" not in text
    assert _keys(text) == _keys(kitten)
    assert parse_config(text) == cfg


def test_round_trip_preserves_general_cat_fields():
    text = MINIMAL.replace("kind = even_cat\nalpha = 2",
                           "kind = general_cat\nalpha = 2\nbeta = -2\nphi_cat = 3.14")
    cfg = parse_config(text)
    assert cfg.photonic == cq.PhotonicSpec("general_cat", 2.0, beta=-2.0, phi_cat=3.14)
    assert parse_config(serialize_config(cfg)) == cfg


def test_complex_values_tolerate_spaces():
    text = MINIMAL.replace("alpha = 2", "alpha = 1.5 + 0.5j")
    assert parse_config(text).alpha == 1.5 + 0.5j


@pytest.mark.parametrize("mangle,fragment", [
    (lambda s: s + "\n[extta]\nfoo = 1\n", "unknown section"),
    (lambda s: s + "\n[output]\ncolor = red\n", "unknown key"),
    (lambda s: s.replace("gamma = 0.01", "gamma = 0.01\nmu = 1"), "unknown key 'mu'"),
    (lambda s: s.replace("[model]\nn_qubits = 8\ngamma = 0.01\n\n", ""),
     "missing required section"),
    (lambda s: s.replace("n_qubits = 8\n", ""), "requires n_qubits"),
    (lambda s: s.replace("gamma = 0.01", "gamma = small"), "real number"),
    (lambda s: s.replace("alpha = 2", "alpha = two"), "number like"),
    (lambda s: s + "\n[monitors]\nquadrature = maybe\n", "boolean"),
    (lambda s: s.replace("t_max = 50", "t_max = -1"), "t_max must be positive"),
    (lambda s: s.replace("t_max = 50", "t_max = 50\ndt = 0"), r"dt must lie in \(0, t_max\]"),
    (lambda s: s.replace("t_max = 50", "t_max = 1\ndt = 5"), r"dt must lie in \(0, t_max\]"),
    (lambda s: s.replace("gamma = 0.01", "gamma = -1"), "gamma must be nonnegative"),
    (lambda s: s.replace("gamma = 0.01", "gamma = 0.01\ndelta = 0"),
     "delta and omega must be positive"),
    (lambda s: s.replace("gamma = 0.01", "gamma = 0.01\nomega = 0"),
     "delta and omega must be positive"),
    (lambda s: s.replace("t_max = 50", "t_max = 50\nn_max = 0"), "n_max"),
    (lambda s: s.replace("t_max = 50", "t_max = 50\nsample_stride = 0"),
     "sample_stride"),
    (lambda s: s + "\n[monitors]\nnames = qfi_density bogus\n", "unknown monitor"),
    (lambda s: s + "\n[monitors]\nnames = qfi_density qfi_density\n",
     "duplicate monitor names"),
    (lambda s: s.replace("kind = even_cat", "kind = dog"), "unknown photonic kind"),
    (lambda s: s + "\n[measurement]\ndelta_x = -0.5\n", "delta_x"),
    (lambda s: s + "\n[output]\nprefix =\n", "prefix"),
    (lambda s: s + "\n[sweep]\nalpha = 2\n", "requires n_qubits"),
    (lambda s: s + "\n[sweep]\n", r"\[sweep\] requires n_qubits"),
    (lambda s: s + "\n[sweep]\nn_qubits = 4 4\n", "distinct"),
    (lambda s: "garbage without a section\n" + s, "malformed"),
    (lambda s: s.replace("t_max = 50", "t_max = nan"), "finite"),
    (lambda s: s.replace("t_max = 50", "t_max = 50\ndt = inf"), "finite"),
    (lambda s: s.replace("gamma = 0.01", "gamma = -inf"), "finite"),
    (lambda s: s.replace("alpha = 2", "alpha = nan+1j"), "finite"),
    (lambda s: s.replace("alpha = 2", "alpha = 2+infj"), "finite"),
], ids=["section", "key", "mu", "missing-section", "missing-key", "bad-float",
        "bad-complex", "bad-bool", "t_max", "dt", "dt-above-t_max", "gamma",
        "delta", "omega", "n_max", "stride",
        "monitor", "monitor-dupes", "kind", "delta_x", "prefix", "sweep-missing",
        "sweep-empty", "sweep-dupes", "malformed", "t_max-nan", "dt-inf", "gamma-inf",
        "alpha-nan", "alpha-infj"])
def test_rejects_bad_input(mangle, fragment):
    with pytest.raises(cq.ConfigError, match=fragment):
        parse_config(mangle(MINIMAL))


@pytest.mark.parametrize("field", [
    lambda bad: cq.ModelParams(n_qubits=2, gamma=bad),
    lambda bad: cq.ModelParams(n_qubits=2, gamma=0.1, delta=bad),
    lambda bad: cq.ModelParams(n_qubits=2, gamma=0.1, omega=bad),
    lambda bad: cq.PhotonicSpec("coherent", bad),
    lambda bad: cq.PhotonicSpec("kitten", complex(1.0, bad)),
    lambda bad: cq.PhotonicSpec("general_cat", 1.0, beta=bad),
    lambda bad: cq.PhotonicSpec("general_cat", 1.0, beta=-1.0, phi_cat=bad),
    lambda bad: cq.QuadratureSpec(x=bad),
    lambda bad: cq.QuadratureSpec(phi=bad),
    lambda bad: cq.QuadratureSpec(delta_x=bad),
], ids=["gamma", "delta", "omega", "alpha", "alpha-imag", "beta", "phi_cat",
        "x", "phi", "delta_x"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_types_reject_non_finite_fields(field, bad):
    # the library API refuses what the INI parser refuses, instead of
    # failing later in propagation or readout
    with pytest.raises(cq.ConfigError, match="finite"):
        field(bad)


def test_builder_methods():
    text = MINIMAL + """
[measurement]
x = 0.3
delta_x = 0.05
track = false
phi = 0.7

[monitors]
names = qfi_density
"""
    cfg = parse_config(text)
    params = cfg.model_params()
    assert params == cq.ModelParams(n_qubits=8, gamma=0.01)
    assert cfg.model_params(n_qubits=16).n_qubits == 16
    spec = cfg.photonic_spec()
    assert spec == cq.PhotonicSpec("even_cat", 2.0 + 0.0j)
    assert cfg.photonic_spec(alpha=3.0).alpha == 3.0
    plan = cfg.plan()
    assert plan.t_max == 50.0 and plan.dt == 1e-3
    assert plan.monitors == ("qfi_density",)
    qspec = cfg.quadrature_spec()
    assert qspec.x == 0.3 and qspec.delta_x == 0.05
    assert qspec.phase_tracking is False and qspec.phi == 0.7


def test_initial_state_matches_prepare():
    cfg = parse_config(MINIMAL)
    state = cfg.initial_state()
    assert state.dicke.n_qubits == 8
    assert state.fock.n_max == cfg.n_max


def test_sweep_auto_alpha():
    cfg = parse_config(MINIMAL + "\n[sweep]\nn_qubits = 4 8 16\n")
    assert cfg.sweep_qubits == (4, 8, 16)
    assert cfg.sweep_alpha is None


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    assert load_config(str(path)) == parse_config(MINIMAL)

"""Fast structural self-checks, runnable from the command line.

Each check exercises one numerical building block against a value known in
closed form.  The functions are resolved through their modules at call
time, so a broken (or monkeypatched) implementation is caught by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measurement, operators, propagator, qfi, semiclassical
from . import stateprep, wigner
from .hilbert import DickeSpace, FockSpace, product_state
from .operators import ModelParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_kernel_weights() -> tuple[bool, str]:
    # D for J = 1 in ascending m; a sign error in any p_K moves an entry
    # while the trace stays 1
    got = wigner.kernel_weights(2)
    r2, r10 = math.sqrt(2.0), math.sqrt(10.0)
    want = np.array([1 / 3 - 1 / r2 + r10 / 6, 1 / 3 - r10 / 3, 1 / 3 + 1 / r2 + r10 / 6])
    err = float(np.max(np.abs(got - want)))
    return err < 1e-12, f"J = 1 kernel weights off by {err:.2e}"


def _check_kernel_trace() -> tuple[bool, str]:
    total = float(wigner.kernel_weights(4).sum())
    err = abs(total - 1.0)
    return err < 1e-10, f"kernel trace 1{total - 1.0:+.2e}"


def _check_rotation_unitary() -> tuple[bool, str]:
    r = wigner.rotation_matrix(8, 0.7, 1.3)
    err = float(np.max(np.abs(r @ r.conj().T - np.eye(9))))
    return err < 1e-12, f"R R^dag deviates from identity by {err:.2e}"


def _check_hermite_norm() -> tuple[bool, str]:
    x = np.linspace(-12.0, 12.0, 4001)
    psi = measurement.hermite_functions(x, 6)
    w = np.trapezoid(psi[:, 4] * psi[:, 4], x)
    err = abs(w - 1.0)
    return err < 1e-8, f"psi_4 squared integrates to 1{w - 1.0:+.2e}"


def _check_parity_completeness() -> tuple[bool, str]:
    spec = stateprep.PhotonicSpec(kind="even_cat", alpha=1.5)
    state = stateprep.prepare_initial(spec, 2)
    p_even, p_odd = measurement.parity_probabilities(state)
    err = abs(p_even + p_odd - 1.0)
    return err < 1e-12, f"p_even + p_odd = 1{p_even + p_odd - 1.0:+.2e}"


def _check_qfi_ghz() -> tuple[bool, str]:
    n = 4
    dim = n + 1
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    got = qfi.qfi_pure(psi, n).value
    err = abs(got - n * n)
    return err < 1e-9, f"GHZ information off by {err:.2e}"


def _check_propagation_norm() -> tuple[bool, str]:
    params = ModelParams(n_qubits=2, gamma=0.05)
    spec = stateprep.PhotonicSpec(kind="coherent", alpha=1.0)
    # small-amplitude runs need extra headroom over the auto cutoff to keep
    # the static Poisson tail out of the 10-wide watch window
    state = stateprep.prepare_initial(spec, 2, n_max=30)
    plan = propagator.PropagationPlan(t_max=0.05, dt=1e-3,
                                      monitors=("norm_drift",))
    series = propagator.run(state, params, plan)
    worst = float(np.max(series.column("norm_drift")))
    return worst < 1e-10, f"per-interval norm drift {worst:.2e}"


def _check_rabi_consistency() -> tuple[bool, str]:
    # one qubit, so the closed form and the Floquet full drive share no
    # arithmetic; at gamma = 0.01 the counter-rotating terms only dress the
    # rotation (pi/4 here) with small 2 omega micromotion
    alpha, t = 5.0, 5.0 * math.pi
    closed = semiclassical.rabi_solution(ModelParams(n_qubits=1, gamma=0.01), alpha, t)
    driven = semiclassical.classically_driven_state(
        ModelParams(n_qubits=1, gamma=0.01, rwa=False), alpha, t)
    overlap = float(abs(np.vdot(closed, driven)))
    return overlap > 0.999, f"closed form vs full drive overlap {overlap:.6f}"


def _check_excitation_conserved() -> tuple[bool, str]:
    params = ModelParams(n_qubits=2, gamma=0.1)
    dicke = DickeSpace(2)
    # cutoff must leave the 10-wide tail window above any reachable level
    fock = FockSpace(30)
    down = np.zeros(dicke.dim)
    down[0] = 1.0
    photons = np.zeros(fock.dim)
    photons[3] = 1.0
    state = product_state(down, photons, dicke, fock)
    before = operators.expectation(state, "excitation_number", params)
    evolved = propagator.propagate(state, params, 0.5)
    after = operators.expectation(evolved, "excitation_number", params)
    err = abs(after - before)
    return err < 1e-9, f"excitation number drifts by {err:.2e}"


_CHECKS = (
    ("wigner_kernel_weights", _check_kernel_weights),
    ("wigner_kernel_trace", _check_kernel_trace),
    ("rotation_unitarity", _check_rotation_unitary),
    ("hermite_normalization", _check_hermite_norm),
    ("parity_completeness", _check_parity_completeness),
    ("qfi_ghz", _check_qfi_ghz),
    ("propagation_norm", _check_propagation_norm),
    ("rabi_consistency", _check_rabi_consistency),
    ("excitation_conservation", _check_excitation_conserved),
)


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _CHECKS)


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results

"""Self-check harness: all green on a healthy build, loud on a broken one."""

import catqed as cq
from catqed import validation


EXPECTED_NAMES = (
    "wigner_kernel_weights",
    "wigner_kernel_trace",
    "rotation_unitarity",
    "hermite_normalization",
    "parity_completeness",
    "qfi_ghz",
    "propagation_norm",
    "rabi_consistency",
    "excitation_conservation",
)


def test_check_names():
    assert validation.check_names() == EXPECTED_NAMES


def test_all_checks_pass():
    results = validation.run_checks()
    assert tuple(r.name for r in results) == EXPECTED_NAMES
    bad = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert not bad, "\n".join(bad)


def test_broken_building_block_is_named(monkeypatch):
    # weights reflected about their mean keep the trace at 1, so only the
    # value check can name the breakage
    healthy = cq.wigner.kernel_weights
    monkeypatch.setattr(cq.wigner, "kernel_weights", lambda n: -healthy(n) + 2.0 / (n + 1))
    results = {r.name: r for r in validation.run_checks()}
    assert not results["wigner_kernel_weights"].ok
    assert results["wigner_kernel_trace"].ok
    assert results["qfi_ghz"].ok  # unrelated checks stay green


def test_crashed_check_counts_as_failure(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setattr(cq.wigner, "kernel_weights", boom)
    results = {r.name: r for r in validation.run_checks()}
    assert not results["wigner_kernel_trace"].ok
    assert "RuntimeError" in results["wigner_kernel_trace"].detail

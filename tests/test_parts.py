"""States read through their two photon-parity parts.

Under the RWA the evolver hands out each block of samples as the parts u_o
of the live window (``CompositeState.sampled``) instead of the zero-filled
(m, n) grid; a state made from a grid holds views of its even and odd
columns as its parts.  Every readout must be the grid's bit for bit.  The
grid path here is a state holding the same amplitudes as a grid, and the
grid reference (``grid_readouts``) is the arithmetic on the whole grid that
read grid states before every state was read through its parts.
"""

import numpy as np
import pytest

import catqed as cq
from catqed import hilbert, propagator
from catqed.monitors import MONITORS
from catqed.propagator import _Chebyshev, _evolve
from catqed.stateprep import coherent_matrix


def on_grid(state):
    """The same samples as a grid state, which decides its parity afresh."""
    return cq.CompositeState(state.amplitudes, state.dicke, state.fock, time=state.time,
                             copy=False)


def grid_path(monkeypatch):
    """Make the evolver hand out grid states from here on."""
    real = _Chebyshev._state
    monkeypatch.setattr(_Chebyshev, "_state",
                        lambda self, times, rows: on_grid(real(self, times, rows)))


def grid_readouts(grid, fock, m):
    """Parity, photon distribution, jz column weights, tail and the two
    photon-parity weights and Grams of the (m, n) ``grid``, read on the grid
    itself: the parity from the checkerboard of its cells, the column
    weights and tail over its whole rows, and u_o = grid[..., rows, o::2]."""
    odd = (grid[..., 0::2, 1::2], grid[..., 1::2, 0::2])
    even = (grid[..., 0::2, 0::2], grid[..., 1::2, 1::2])
    parity = None
    if not any(cells.any() for cells in odd):
        parity = 0
    elif not any(cells.any() for cells in even):
        parity = 1
    out = {"parity": parity, "photon_distribution": hilbert.column_weights(grid),
           "jz_weights": hilbert.column_weights(grid, m),
           "tail_population": hilbert.squared_norm(grid[..., fock.tail_start:])}
    for offset in (0, 1):
        rows = slice(None) if parity is None else slice((offset + parity) % 2, None, 2)
        u = grid[..., rows, offset::2]
        out[f"rows_{offset}"] = rows
        out[f"weight_{offset}"] = hilbert.squared_norm(u)
        out[f"gram_{offset}"] = hilbert.gram(u)
    return out


def readouts(state):
    """The readouts of ``grid_readouts``, read through the state's parts."""
    out = {"parity": state.parity, "photon_distribution": state.photon_distribution(),
           "jz_weights": state.column_weights(state.dicke.m_values()),
           "tail_population": state.tail_population()}
    for offset in (0, 1):
        out[f"rows_{offset}"], out[f"gram_{offset}"] = state.photon_parity_gram(offset)
        out[f"weight_{offset}"] = state.photon_parity_weight(offset)
    return out


def flagship():
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    return params, cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)


def headline():
    params = cq.ModelParams(n_qubits=24, gamma=0.01)
    return params, cq.prepare_initial(cq.PhotonicSpec("even_cat", 30.0), 24)


def small(kind, alpha=2.0):
    params = cq.ModelParams(n_qubits=4, gamma=0.3, delta=1.2)
    return params, cq.prepare_initial(cq.PhotonicSpec(kind, alpha), 4, n_max=56)


def odd_cat():
    params = cq.ModelParams(n_qubits=4, gamma=0.3, delta=1.2)
    rows = coherent_matrix([2.5, -2.5], 40)
    c = np.zeros((5, 41), dtype=complex)
    c[0] = rows[0] - rows[1]
    return params, cq.CompositeState(c / np.linalg.norm(c), cq.DickeSpace(4), cq.FockSpace(40))


CASES = {
    "flagship": (flagship, cq.PropagationPlan(t_max=10.0, sample_stride=100,
                                             monitors=tuple(MONITORS))),
    "headline": (headline, cq.PropagationPlan(t_max=0.1, dt=1e-4, sample_stride=250,
                                             monitors=tuple(MONITORS))),
    "odd-cat": (odd_cat, cq.PropagationPlan(t_max=6.0, dt=0.01, sample_stride=20,
                                           monitors=tuple(MONITORS))),
    "kitten": (lambda: small("kitten"), cq.PropagationPlan(t_max=6.0, dt=0.01, sample_stride=20,
                                                            monitors=tuple(MONITORS))),
    "coherent": (lambda: small("coherent"), cq.PropagationPlan(t_max=6.0, dt=0.01,
                                                                sample_stride=20,
                                                                monitors=tuple(MONITORS))),
}


GRAM_READOUTS = ("qfi_density", "qfi_density_even", "qfi_density_odd")


def full_even_cat():
    params = cq.ModelParams(n_qubits=4, gamma=0.3, delta=1.2, rwa=False)
    return params, cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 4, n_max=56)


def full_kitten():
    params = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=False)
    return params, cq.prepare_initial(cq.PhotonicSpec("kitten", 6.0), 8, n_max=96)


FULL = {
    "full-even-cat": (full_even_cat, cq.PropagationPlan(t_max=2.0, dt=0.01, sample_stride=7)),
    "full-kitten": (full_kitten, cq.PropagationPlan(t_max=0.4, dt=0.01)),
}


@pytest.mark.parametrize("case", [*CASES, *FULL])
def test_readouts_are_the_grid_arithmetic_bit_for_bit(case):
    # every block of the case, a strided and a masked sub-stack and its last
    # sample, each in the form the evolver hands out (parts of the window
    # under the RWA, a grid in the full model) and as a grid state; only a
    # headline window's Grams may differ from the whole grid's, in the last
    # bits (see test_run_readouts_are_the_grid_paths_bit_for_bit)
    make, plan = {**CASES, **FULL}[case]
    params, initial = make()
    steps = range(0, plan.n_steps + 1, plan.stride())
    for block, _ in _evolve(initial, params, steps, plan.dt):
        indices = [slice(None), slice(None, None, 2), np.arange(block.time.size) % 3 != 1, -1]
        states = [block] + [block[index] for index in indices[1:]]
        read = [readouts(state) for state in states]
        for index, state, got in zip(indices, states, read):
            grid = state.amplitudes
            assert np.array_equal(grid, block.amplitudes[index])
            want = grid_readouts(grid, state.fock, state.dicke.m_values())
            for form, values in (("sampled", got), ("grid", readouts(on_grid(state)))):
                for name, value in values.items():
                    if case == "headline" and form == "sampled" and name.startswith("gram"):
                        assert np.allclose(value, want[name], rtol=1e-14, atol=0.0), name
                    else:
                        assert np.array_equal(value, want[name]), (form, name)


def test_the_norm_is_read_from_the_photon_parity_weights():
    # a sampled block's norm builds no grid, and is the grid's to rounding
    for make in (flagship, odd_cat, lambda: small("kitten")):
        params, initial = make()
        block = next(_evolve(initial, params, [0, 40, 300, 900], 1e-2))[0]
        norm = block.norm()
        assert block._grid is None
        assert np.allclose(norm, np.linalg.norm(block.amplitudes, axis=(1, 2)),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(initial.norm(), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("case", CASES)
def test_run_readouts_are_the_grid_paths_bit_for_bit(case, monkeypatch):
    # every named monitor, the parity readouts of impossible outcomes (the
    # odd outcome of an even cat at t = 0) read on masked sub-stacks
    # included; the kitten and the coherent state hold parts on every row.
    # Sums over rows add them in order and sums over columns run on the
    # grid's columns, so the zeros outside the parts change no bit.  The
    # Grams are BLAS products: at headline a part's 295 columns and the
    # grid's 573 are split into different panels, so the readouts built on
    # them agree to rounding there
    make, plan = CASES[case]
    params, initial = make()
    parts = cq.run(initial, params, plan)
    grid_path(monkeypatch)
    grids = cq.run(initial, params, plan)
    for name, values in parts.columns.items():
        want = grids.column(name)
        if case == "headline" and name in GRAM_READOUTS:
            assert np.allclose(values, want, rtol=1e-14, atol=0.0, equal_nan=True), name
        else:
            assert np.array_equal(values, want, equal_nan=True), name


@pytest.mark.parametrize("case", ["flagship", "odd-cat", "kitten"])
def test_masked_sub_stacks_read_as_the_grids_do(case):
    params, initial = CASES[case][0]()
    block = next(_evolve(initial, params, [0, 40, 300, 900, 2000], 1e-2))[0]
    grid = on_grid(block)
    assert block.parity == grid.parity
    for index in ([True, False, True, True, False], slice(1, 4), 2):
        part, ref = block[index], grid[index]
        assert part.parity == ref.parity
        assert np.array_equal(part.amplitudes, ref.amplitudes)
        for offset in (0, 1):
            assert np.array_equal(part.photon_parity_weight(offset),
                                  ref.photon_parity_weight(offset))
            rows, gram = part.photon_parity_gram(offset)
            assert rows == ref.photon_parity_gram(offset)[0]
            assert np.array_equal(gram, ref.photon_parity_gram(offset)[1])
        assert np.array_equal(part.tail_population(), ref.tail_population())
        assert np.array_equal(part.photon_distribution(), ref.photon_distribution())


def test_a_sub_stack_of_parts_on_every_row_decides_its_parity_from_the_parts():
    # an even-cat and an odd-cat sample stacked as parts on every row have no
    # parity together; the even sample alone decides parity 0 from its parts,
    # without building a grid, and reads its half-size Grams
    params = cq.ModelParams(n_qubits=4, gamma=0.3, delta=1.2)
    rows = coherent_matrix([2.5, -2.5], 40)
    grids = np.zeros((2, 5, 41), dtype=complex)
    grids[0, 0], grids[1, 0] = rows[0] + rows[1], rows[0] - rows[1]
    grids /= np.linalg.norm(grids, axis=(1, 2))[:, None, None]
    grids = np.stack([next(_evolve(cq.CompositeState(g, cq.DickeSpace(4), cq.FockSpace(40)),
                                   params, [300], 1e-2))[0].amplitudes[0] for g in grids])
    stack = cq.CompositeState.sampled([grids[..., 0::2], grids[..., 1::2]], cq.DickeSpace(4),
                                      cq.FockSpace(40), np.array([3.0, 3.0]), None,
                                      first_column=0)
    assert stack.parity is None
    even = stack[[True, False]]
    assert even.parity == 0 and even._grid is None
    ref = cq.CompositeState(grids[:1], cq.DickeSpace(4), cq.FockSpace(40), time=[3.0])
    for offset in (0, 1):
        rows, gram = even.photon_parity_gram(offset)
        assert rows == ref.photon_parity_gram(offset)[0] == slice(offset, None, 2)
        assert np.array_equal(gram, ref.photon_parity_gram(offset)[1])
        assert np.array_equal(even.photon_parity_weight(offset),
                              ref.photon_parity_weight(offset))
    assert even._grid is None
    assert np.array_equal(even.amplitudes, grids[:1])


def test_amplitudes_built_from_the_parts_are_the_scattered_grid():
    # the grid scatter the parts replace: each band row turned by its
    # sectors' phases and written onto the grid cells of the band's real cells
    rng = np.random.default_rng(7)
    for make in (flagship, odd_cat, lambda: small("kitten")):
        params, initial = make()
        evolver = _Chebyshev(initial, params, 1e-3)
        count, size = 3, evolver.action.cells.size
        rows = np.zeros((count, size + 1), dtype=complex)
        rows[:, :size] = rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))
        times = np.array([0.0, 0.37, 2.9])
        phases = np.exp(np.multiply.outer(-1j * times, evolver._omega_k))
        bands = rows[:, :size].reshape((count,) + evolver.action.shape) * phases[:, :, None]
        scattered = np.zeros((count,) + initial.amplitudes.shape, dtype=complex)
        scattered.reshape(count, -1)[:, evolver._grid_cells] = \
            bands.reshape(count, -1)[:, evolver._band_cells]
        built = evolver._state(times, rows).amplitudes
        assert np.array_equal(built, scattered)
        assert not built.flags.writeable


@pytest.mark.parametrize("case", ["flagship", "headline", "odd-cat", "kitten", "coherent"])
def test_the_window_holds_every_nonzero_cell(case):
    # every real cell of the band lies in exactly one part, and the parts
    # of the initial state hold every cell of its live sectors (the band
    # leaves out the rest, below LIVE_SECTOR_POPULATION a sector)
    params, initial = CASES[case][0]()
    evolver = _Chebyshev(initial, params, 1e-3)
    zero = evolver.action.cells.size
    gathered = np.concatenate([source.ravel() for source in evolver._gather])
    assert np.array_equal(np.sort(gathered[gathered != zero]), evolver._band_cells)
    state = next(_evolve(initial, params, [0], 1e-3))[0]
    live = np.zeros(initial.amplitudes.size, dtype=bool)
    live[evolver._grid_cells] = True
    assert np.array_equal(state.amplitudes.ravel(), np.where(live, initial.amplitudes.ravel(), 0))


def test_check_tail_refuses_at_the_same_sample_as_the_grid(monkeypatch):
    # emitters up feed photons into the mode, so the tail grows; the window
    # of the live sectors reaches the cutoff, and the tolerance is put
    # between the tails of the third and fourth samples
    params = cq.ModelParams(n_qubits=2, gamma=0.3)
    p = coherent_matrix([2.0], 20)[0]
    state = cq.product_state(np.array([0.0, 0.0, 1.0]), p / np.linalg.norm(p),
                             cq.DickeSpace(2), cq.FockSpace(20))
    evolver = _Chebyshev(state, params, 0.5)
    assert max(evolver._gather[0].max(), evolver._gather[1].max()) == evolver.action.cells.size
    plan = cq.PropagationPlan(t_max=4.0, dt=0.5, monitors=("tail_population",))
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 1.0)
    tails = cq.run(state, params, plan).column("tail_population")
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 0.5 * (tails[2] + tails[3]))
    with pytest.raises(cq.TruncationError, match=r"at t = 1\.5 for n_max = 20") as parts:
        cq.run(state, params, plan)
    grid_path(monkeypatch)
    with pytest.raises(cq.TruncationError) as grids:
        cq.run(state, params, plan)
    assert str(parts.value) == str(grids.value)


def test_a_flagship_run_never_builds_a_grid(monkeypatch):
    built = []
    amplitudes = hilbert.CompositeState.amplitudes.fget

    def spied(state):
        if state._grid is None:
            built.append(np.shape(state.time))
        return amplitudes(state)

    monkeypatch.setattr(hilbert.CompositeState, "amplitudes", property(spied))
    params, initial = flagship()
    names = ("qfi_density", "qfi_density_even", "qfi_density_odd", "prob_even", "prob_odd",
             "photon_number", "jz", "excitation_number", "tail_population", "norm_drift")
    series = cq.run(initial, params, cq.PropagationPlan(t_max=10.0, sample_stride=100,
                                                        monitors=names))
    assert series.times.size == 101
    assert built == []
    # a reader of the grid builds it once per block
    cq.run(initial, params, cq.PropagationPlan(t_max=10.0, sample_stride=100,
                                               monitors=("jx", "jy")))
    assert built == [(19,)] * 5 + [(6,)]


def test_a_block_holds_the_parts_of_its_samples_within_the_budget():
    # 256 KiB holds 19 flagship samples of 842 amplitudes in parts (9 of the
    # 1701-cell grid) and 2 headline samples (1 of the grid); the full model
    # keeps its grid blocks
    assert propagator.SAMPLE_BLOCK_BYTES == 1 << 18
    for make, block in ((flagship, 19), (headline, 2)):
        params, initial = make()
        assert _Chebyshev(initial, params, 1e-3).block == block
    params = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=False)
    kitten = cq.prepare_initial(cq.PhotonicSpec("kitten", 6.0), 8, n_max=96)
    assert _Chebyshev(kitten, params, 1e-3).block == 18

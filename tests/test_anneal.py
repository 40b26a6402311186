"""The annealing chain's stencil state, its swap log and its pinned seeded results.

A chain's start sums, 4-neighbour counts and transition counts, read
off one stencil, must equal 2-D references bit for bit.  Each swap is
priced from the chain's flat Crofton stencil without touching the grid
(``oracles.price``). The property tests compare the priced counts with
transition counts recomputed from scratch after the swap, the kept
stencil sums with a rebuild after a run of committed swaps, and the
kept 4-neighbour counts and the boundary lists read off them with
recounts along short seeded chains.  The chain's exact counts,
energies, trace and best state come from a swap log priced in batches;
its counts must equal recounts after every swap and its energies the
one-swap pricing bit for bit, wherever the batches end.  The golden
tests pin whole seeded runs, so any change to the move sequence, the
RNG draws or the float expressions shows up as a changed hash, and the
chain must equal the reference that prices every proposal.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve

import oracles
from conftest import SQUARE, ellipse_polygon
from isoperim import oracle as orc
from isoperim.errors import ScheduleInvalidError
from isoperim.geometry import validate_polygon

DIRS = [(int(a), int(b)) for a, b in orc._CROFTON_DIRS]
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _random_grid(draw, ny, nx):
    # one draw of packed bytes, not one boolean per cell
    size = (ny * nx + 7) // 8
    packed = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=np.uint8)
    return np.unpackbits(packed, count=ny * nx).astype(bool).reshape(ny, nx)


@st.composite
def any_swaps(draw):
    """(grid, p, q): in-cell p leaves and out-cell q joins, anywhere."""
    ny, nx = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    assume(ny * nx >= 2)
    p = (draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1)))
    q = (draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1)))
    assume(p != q)
    grid = _random_grid(draw, ny, nx)
    grid[p], grid[q] = True, False
    return grid, p, q


@st.composite
def coupled_swaps(draw, direction, sign, place):
    """(grid, p, q) with q = p + sign * (a, b), the Crofton direction's step.

    ``place`` "border" puts p or q on the first or last row or column,
    where stencil reads reach into the margin; "interior" keeps both off
    the edges.
    """
    a, b = DIRS[direction]
    sa, sb = sign * a, sign * b
    inset = 1 if place == "interior" else 0
    ny = draw(st.integers(abs(b) + 1 + 2 * inset, abs(b) + 9))
    nx = draw(st.integers(abs(a) + 1 + 2 * inset, abs(a) + 9))
    rows = (inset + max(0, -sb), ny - 1 - inset - max(0, sb))
    cols = (inset + max(0, -sa), nx - 1 - inset - max(0, sa))
    j, i = draw(st.integers(*rows)), draw(st.integers(*cols))
    if place == "border":
        # the ends of p's range put p or q on an edge
        side = draw(st.sampled_from(["top", "bottom", "left", "right"]))
        j = {"top": rows[0], "bottom": rows[1]}.get(side, j)
        i = {"left": cols[0], "right": cols[1]}.get(side, i)
    p, q = (j, i), (j + sb, i + sa)
    grid = _random_grid(draw, ny, nx)
    grid[p], grid[q] = True, False
    return grid, p, q


@st.composite
def start_grids(draw):
    """Grids of 1 x 1 to 9 x 9: random, empty, full, or random with an
    in-cell on each edge."""
    ny, nx = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["random", "empty", "full", "edges"]))
    if kind in ("empty", "full"):
        return np.full((ny, nx), kind == "full")
    grid = _random_grid(draw, ny, nx)
    if kind == "edges":
        grid[0, draw(st.integers(0, nx - 1))] = grid[-1, draw(st.integers(0, nx - 1))] = True
        grid[draw(st.integers(0, ny - 1)), 0] = grid[draw(st.integers(0, ny - 1)), -1] = True
    return grid


_CROSS = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@settings(PROPERTY, max_examples=60)
@given(start_grids())
@example(np.zeros((1, 1), dtype=bool))
@example(np.ones((1, 1), dtype=bool))
@example(np.array([[True, False, True, True, False, True, False, False, True]]))
@example(np.array([[True], [True], [False], [True], [False], [False], [True], [True], [False]]))
def test_start_state_reads_one_stencil(grid):
    # margin cells included: the sums and neighbour counts cover the whole buffer
    h = 0.125
    chain = oracles.chain(grid, h)
    cells = oracles.chain_cells(chain)
    assert chain.buf == oracles.padded(grid)[0]
    assert np.array(chain.sums).tobytes() == oracles.stencil_sums(cells, chain.coef).tobytes()
    assert chain.counts.tolist() == [oracles.transition_count(grid, a, b) for a, b in DIRS]
    nin = np.frombuffer(chain.nin, dtype=np.uint8).reshape(cells.shape)
    assert np.array_equal(nin, convolve(cells.astype(int), _CROSS, mode="constant"))
    assert chain.energy == oracles.crofton_perimeter(grid, h)


def _is_valid_swap(grid, p, q):
    buf, cells = oracles.padded(grid)
    mask_buf, _ = oracles.padded(np.ones_like(grid))
    width = cells.shape[1]
    p, q = ((j + orc._PAD) * width + i + orc._PAD for j, i in (p, q))
    return oracles._valid_swap(buf, mask_buf, (1, -1, width, -width), p, q)


def _check_priced_swap(grid, p, q):
    h = 0.125
    chain = oracles.chain(grid, h)
    pi, qi = oracles.index(chain, *p), oracles.index(chain, *q)
    before = oracles.flat_counts(chain)

    counts, after = oracles.price(chain, before, pi, qi)

    swapped = grid.copy()
    swapped[p] = False
    swapped[q] = True
    assert counts == [oracles.transition_count(swapped, a, b) for a, b in DIRS]
    assert after == oracles.crofton_perimeter(swapped, h)
    # pricing leaves the state alone
    assert np.array_equal(oracles.chain_grid(chain), grid)
    assert oracles.flat_counts(chain) == before
    chain.swap(pi, qi)
    assert np.array_equal(oracles.chain_grid(chain), swapped)
    assert oracles.flat_counts(chain) == counts
    chain.flush()
    assert chain.counts.tolist() == counts
    assert chain.energy == after


@pytest.mark.parametrize("place", ["border", "interior"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("direction", range(len(DIRS)))
@PROPERTY
@given(data=st.data())
def test_stencil_price_coupled_along_direction(direction, sign, place, data):
    swap = data.draw(coupled_swaps(direction, sign, place))
    assume(_is_valid_swap(*swap))
    _check_priced_swap(*swap)


@settings(PROPERTY, max_examples=200)
@given(any_swaps())
def test_stencil_price_any_swap(swap):
    assume(_is_valid_swap(*swap))
    _check_priced_swap(*swap)


@pytest.mark.parametrize("corner", [(0, 0), (0, 4), (4, 0), (4, 4)])
def test_stencil_price_at_corners(corner):
    # every stencil read of a corner cell beyond the grid lands in the margin
    grid = np.ones((5, 5), dtype=bool)
    q = (2, 2)
    grid[q] = False
    assert _is_valid_swap(grid, corner, q)
    _check_priced_swap(grid, corner, q)


def test_counter_flip_matches_price():
    rng = np.random.default_rng(5)
    grid = rng.random((12, 10)) < 0.5
    grid[3, 4], grid[4, 5] = True, False
    flipped = oracles.chain(grid, 0.1)
    counts = oracles.flip(flipped, oracles.flat_counts(flipped), 3, 4)
    counts = oracles.flip(flipped, counts, 4, 5)
    priced = oracles.chain(grid, 0.1)
    want, _ = oracles.price(priced, oracles.flat_counts(priced),
                            oracles.index(priced, 3, 4), oracles.index(priced, 4, 5))
    assert counts == want == oracles.flat_counts(flipped)


def _check_kept_sums(chain, swaps):
    """The kept stencil sums match a rebuild, and price each valid swap as
    ``oracles.price`` does."""
    rebuilt = oracles.stencil_sums(oracles.chain_cells(chain), chain.coef).ravel()
    kept = np.array(chain.sums)
    assert np.max(np.abs(kept - rebuilt)) <= 1e-12 * np.max(rebuilt)
    counts = oracles.flat_counts(chain)
    current = oracles.perimeter(chain, counts)
    for p, q in swaps:
        _, after = oracles.price(chain, counts, p, q)
        assert abs(oracles.delta(chain, p, q) - (after - current)) <= 1e-12 * current


@pytest.mark.parametrize("direction", range(len(DIRS)))
@PROPERTY
@given(data=st.data())
def test_kept_sums_follow_commits(direction, data):
    # a coupled swap, then random valid swaps committed one after another
    sign = data.draw(st.sampled_from([1, -1]))
    place = data.draw(st.sampled_from(["border", "interior"]))
    grid, p, q = data.draw(coupled_swaps(direction, sign, place))
    chain = oracles.chain(grid, 0.125)
    mask_buf, _ = oracles.padded(np.ones_like(grid))
    swaps = [(oracles.index(chain, *p), oracles.index(chain, *q))]
    assume(oracles._valid_swap(chain.buf, mask_buf, chain.n4, *swaps[0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    counts = oracles.flat_counts(chain)
    for _ in range(data.draw(st.integers(1, 12))):
        _check_kept_sums(chain, swaps)
        counts = oracles.price(chain, counts, *swaps[0])[0]
        chain.swap(*swaps[0])
        cells = [oracles.index(chain, j, i) for j, i in
                 zip(rng.integers(grid.shape[0], size=16), rng.integers(grid.shape[1], size=16))]
        swaps = [m for m in zip(cells[::2], cells[1::2])
                 if oracles._valid_swap(chain.buf, mask_buf, chain.n4, *m)]
        if not swaps:
            break
    _check_kept_sums(chain, swaps)
    chain.flush()
    assert counts == chain.counts.tolist() == oracles.flat_counts(chain) == [
        oracles.transition_count(oracles.chain_grid(chain), a, b) for a, b in DIRS]


TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


class _CheckedChain(orc._Chain):
    """The chain, checking its kept 4-neighbour counts at every sweep's
    boundary lists and every swap against fresh recounts, and its lists
    and swaps against the grid-byte reference on a mask padded apart."""

    def __init__(self, grid, mask, cell, trace):
        super().__init__(grid, mask, cell, trace)
        self.ref_mask_buf, self.ref_mask_cells = oracles.padded(mask)
        self.touched, self.adjacent_swaps = False, 0

    def check_counts(self):
        cells = oracles.chain_cells(self)
        recount = convolve(cells.astype(int), _CROSS, mode="constant")
        assert np.array_equal(np.frombuffer(self.nin, dtype=np.uint8).reshape(cells.shape),
                              recount)

    def boundaries(self):
        self.check_counts()
        bd_in, bd_out = super().boundaries()
        cells, mask_cells = oracles.chain_cells(self), self.ref_mask_cells
        ref_in, ref_out = oracles._boundaries(cells, mask_cells)
        assert np.array_equal(bd_in, ref_in) and np.array_equal(bd_out, ref_out)
        # an in-cell beside a cell outside the mask: the set touches the mask's edge
        self.touched |= bool(np.any(cells & (convolve(
            ~mask_cells, np.ones((3, 3), bool), mode="constant") > 0)))
        return bd_in, bd_out

    def swap(self, p, q):
        assert oracles._valid_swap(self.buf, self.ref_mask_buf, self.n4, p, q)
        self.adjacent_swaps += (q - p) in self.n4
        super().swap(p, q)
        self.check_counts()


@PROPERTY
@given(shape=st.sampled_from(["square", "triangle"]), grid_n=st.integers(4, 12),
       fill=st.floats(0.3, 0.9), seed=st.integers(0, 2**16))
def test_kept_neighbour_counts_follow_the_chain(shape, grid_n, fill, seed):
    # the chain runs checking itself; fill is a share of the area
    domain = validate_polygon(SQUARE if shape == "square" else TRIANGLE)
    v = fill * (1.0 if shape == "square" else 0.5)
    _, mask, _, _, _ = orc._anneal_start(domain, v, grid_n, seed)
    chains = []

    def checked(grid, chain_mask, cell, trace):
        assert np.array_equal(chain_mask, mask)
        chains.append(_CheckedChain(grid, chain_mask, cell, trace))
        return chains[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(orc, "_Chain", checked)
        res = orc.anneal_discrete(domain, v, grid_n, orc.AnnealSchedule(sweeps=40), seed=seed)
    (chain,) = chains
    assert res.accepted > 0
    assert chain.touched and chain.adjacent_swaps > 0


def _run_log(monkeypatch, grid, mask, h, swaps, ends, cap):
    """Feed swaps (flat index pairs) to a ``_Chain`` flushing every ``cap``
    swaps, marking a sweep end after the swaps counted in ``ends``; check it
    against one-swap pricing and recounts, and return the chain with the
    grid bytes after each swap (the start first)."""
    monkeypatch.setattr(orc, "CHUNK_ENTRIES", 64 * cap)
    mask_buf, _ = oracles.padded(mask)
    trace = np.full(len(ends), np.nan)
    chain = orc._Chain(grid, mask, h, trace)
    assert chain.cap == cap
    priced = []

    def spy():
        priced.append(orc._Chain.priced(chain))
        return priced[-1]

    chain.priced = spy

    counts = oracles.flat_counts(chain)
    assert chain.counts.tolist() == counts
    energies, states = [oracles.perimeter(chain, counts)], [bytes(chain.buf)]
    recounts, want_trace = [], []
    best, best_energy = states[0], energies[0]
    sweep = 0
    for n, (p, q) in enumerate(swaps):
        while sweep < len(ends) and ends[sweep] == n:
            chain.end_sweep(sweep)
            want_trace.append(energies[-1])
            sweep += 1
        assert oracles._valid_swap(chain.buf, mask_buf, chain.n4, p, q)
        counts, energy = oracles.price(chain, counts, p, q)
        chain.swap(p, q)
        recounts.append([oracles.transition_count(oracles.chain_grid(chain), a, b)
                         for a, b in DIRS])
        assert counts == recounts[-1]
        energies.append(energy)
        states.append(bytes(chain.buf))
        if energy < best_energy:
            best, best_energy = states[-1], energy
    for sweep in range(sweep, len(ends)):
        chain.end_sweep(sweep)
        want_trace.append(energies[-1])
    chain.flush()

    # one batch per cap swaps, the last one maybe short
    assert [len(e) for _, e in priced] == [min(cap, len(swaps) - i)
                                           for i in range(0, len(swaps), cap)]
    if priced:
        assert np.concatenate([c for c, _ in priced]).tolist() == recounts
        assert np.concatenate([e for _, e in priced]).tobytes() == np.array(energies[1:]).tobytes()
    assert chain.counts.tolist() == oracles.flat_counts(chain) == (recounts or [counts])[-1]
    assert chain.energy == energies[-1]
    assert chain.best == best and chain.best_energy == best_energy
    assert trace.tobytes() == np.array(want_trace).tobytes()
    assert not (chain.ps or chain.qs or chain.windows or chain.marks)
    return chain, states


@st.composite
def swap_chains(draw):
    """(grid, mask, h, swaps, ends): a chain of valid swaps from a random set
    in a square or triangle mask, with random sweep ends, some empty.  Every
    other swap is the best of 8 random ones, so the energy rises and falls."""
    domain = validate_polygon(SQUARE if draw(st.booleans()) else TRIANGLE)
    grid_n, seed = draw(st.integers(4, 10)), draw(st.integers(0, 2**16))
    _, mask, _, h, _ = orc._anneal_start(domain, domain.area / 2, grid_n, seed)
    rng = np.random.default_rng(seed)
    grid = mask & (rng.random(mask.shape) < draw(st.floats(0.2, 0.8)))
    chain = orc._Chain(grid, mask, h, None)
    swaps = []
    for _ in range(draw(st.integers(1, 30))):
        bd_in, bd_out = chain.boundaries()
        if not (len(bd_in) and len(bd_out)):
            break
        moves = zip(rng.choice(bd_in, 8).tolist(), rng.choice(bd_out, 8).tolist())
        swaps.append(min(moves, key=lambda m: oracles.delta(chain, *m)) if len(swaps) % 2
                     else next(moves))
        chain.swap(*swaps[-1])
    ends = np.sort(rng.integers(0, len(swaps) + 1, size=rng.integers(0, 8))).tolist()
    return grid, mask, h, swaps, ends


@pytest.mark.parametrize("cap", [1, 2, 7])
@settings(PROPERTY, max_examples=25)
@given(chain=swap_chains())
def test_swap_log_matches_one_swap_pricing(cap, chain):
    # flushes fall every cap swaps, mid-sweep or not
    with pytest.MonkeyPatch.context() as m:
        _run_log(m, *chain, cap)


def _line_chain(cells, moves):
    """(grid, mask, swaps): in-cells on an 8 x 8 grid, all masked, and moves as
    flat index pairs of the padded buffer."""
    grid = np.zeros((8, 8), dtype=bool)
    grid[tuple(zip(*cells))] = True
    width = 8 + 2 * orc._PAD
    flat = [(j + orc._PAD) * width + i + orc._PAD for move in moves for j, i in move]
    return grid, np.ones_like(grid), list(zip(flat[::2], flat[1::2]))


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_swap_log_keeps_the_start_without_improvement(monkeypatch, cap):
    # 2 x 2 block -> L -> T -> the block moved one cell right: equal, not lower
    grid, mask, swaps = _line_chain([(2, 2), (2, 3), (3, 2), (3, 3)],
                                    [((3, 3), (2, 4)), ((3, 2), (3, 3)), ((2, 2), (3, 4))])
    chain, states = _run_log(monkeypatch, grid, mask, 0.125, swaps, [0, 3], cap)
    assert chain.energy == chain.best_energy
    assert chain.best == states[0] != states[-1]


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_swap_log_keeps_the_first_of_equal_minima(monkeypatch, cap):
    # two singles -> a domino, moved right twice: three equal minima
    grid, mask, swaps = _line_chain([(2, 1), (2, 5)],
                                    [((2, 5), (2, 2)), ((2, 1), (2, 3)), ((2, 2), (2, 4))])
    chain, states = _run_log(monkeypatch, grid, mask, 0.125, swaps, [1, 1, 2], cap)
    assert chain.energy == chain.best_energy < oracles.crofton_perimeter(grid, 0.125)
    assert chain.best == states[1] and len(set(states[1:])) == 3


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_swap_log_best_on_the_last_swap_of_a_batch(monkeypatch, cap):
    # a single moves away at equal energy, then joins the other: the best is
    # swap 2, the last of a batch at caps 1 and 2; the domino then moves left
    grid, mask, swaps = _line_chain([(2, 1), (2, 5)],
                                    [((2, 5), (2, 6)), ((2, 6), (2, 2)), ((2, 2), (2, 0))])
    chain, states = _run_log(monkeypatch, grid, mask, 0.125, swaps, [2], cap)
    assert chain.best == states[2] != states[3]
    assert chain.best_energy == chain.energy


def test_anneal_memory_is_bounded_by_the_log_cap(square):
    # the log holds at most cap = CHUNK_ENTRIES // 64 swaps: two stencil
    # windows of 2 reach + 1 bytes each, and a kilobyte a swap for a
    # flush's arrays.  With 64 bytes a padded cell for the chain's state and
    # the mask, that bounds the chain's peak by the grid width alone
    grid_n = 128
    width = grid_n + 2 * orc._PAD
    window = 2 * (3 * width + 3) + 1
    bound = 64 * width * width + orc.CHUNK_ENTRIES // 64 * (2 * window + 1024)
    orc.anneal_discrete(square, 0.5, 8, orc.AnnealSchedule(sweeps=2))  # one-time costs
    tracemalloc.start()
    try:
        res = orc.anneal_discrete(square, 0.5, grid_n, orc.AnnealSchedule(sweeps=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    # the windows of every accepted swap would not fit
    assert res.accepted * 2 * window > bound


# Results of anneal_discrete with each sweep's moves drawn at once and
# proposals decided on the kept stencil sums.
GOLDEN = [
    ("square", 0.9, 16, None, 1, "3.374763350800708",
     "0da7d42e71aa55945bdabedbaf44ca8e07ea325cb76fac530a8dda30a5d55d20",
     "e62108c612a551c22d0674124b0e3a6def1c046049f34a80d62e18f004b064c5"),
    ("square", 0.9, 16, None, 2, "3.374763350800708",
     "49d96244f1b8e69ca0372fb21d53ce0ca5c0e0098aeeb8c16d134e563a412093",
     "121d68b24a88c64a018cd58b38ee801eb5829b126d4c6b74f83410d295ba2797"),
    ("square", 0.9, 32, None, 3, "3.3982596788822996",
     "002e6e196d200c4bd774de210b6e302959c4574a0be48bf122ae95ccef4f652f",
     "5529b5ffc520c2039cd290db6ac2e9388ea5a31a3d643f47fbdffb8ae407a12d"),
    ("square", np.pi / 4, 32, None, 0, "3.1335099322042708",
     "b6503a0ce81fd7a184d37df325522dbf4c3ebaab2e5e0fabafafb1dbc7c53ec2",
     "a6b6441b5de823a92fe5138432f3f5a505543c4b721e635cdc8f10f84e99c454"),
    ("rect21", 1.9, 48, 200, 0, "5.383995287128024",
     "6e67d5447b58f4661b8ae943f8aea7b63dc27d8ba7ab6b0f1fe4f5b11bd81db7",
     "71d4638c4aebef87f0680a8d95a1b3b71a0390b0099afeec6f2c4aafc837ee7c"),
]
GOLDEN_IDS = [f"{g[0]}-{g[2]}-seed{g[4]}" for g in GOLDEN]


def _golden_run(request, domain, v, grid_n, sweeps, seed, anneal=orc.anneal_discrete):
    poly = request.getfixturevalue(domain)
    schedule = orc.AnnealSchedule(sweeps=sweeps) if sweeps else None
    return anneal(poly, v, grid_n, schedule, seed=seed)


@pytest.mark.parametrize("domain,v,grid_n,sweeps,seed,perimeter,grid_sha,trace_sha",
                         GOLDEN, ids=GOLDEN_IDS)
def test_anneal_golden(request, domain, v, grid_n, sweeps, seed, perimeter,
                       grid_sha, trace_sha):
    res = _golden_run(request, domain, v, grid_n, sweeps, seed)
    assert repr(res.perimeter) == perimeter
    assert _sha(res.grid) == grid_sha
    assert _sha(res.energy_trace) == trace_sha
    assert res.grid.dtype == bool and res.grid.flags.c_contiguous


@pytest.mark.parametrize("domain,v,grid_n,sweeps,seed", [g[:5] for g in GOLDEN],
                         ids=GOLDEN_IDS)
def test_anneal_matches_priced_chain(request, domain, v, grid_n, sweeps, seed):
    res = _golden_run(request, domain, v, grid_n, sweeps, seed)
    ref = _golden_run(request, domain, v, grid_n, sweeps, seed, oracles.priced_anneal)
    assert np.array_equal(res.grid, ref.grid)
    assert res.energy_trace.tobytes() == ref.energy_trace.tobytes()
    assert res.perimeter == ref.perimeter
    assert (res.proposals, res.accepted) == (ref.proposals, ref.accepted)
    # the energy of record is the perimeter of exact counts
    assert res.perimeter == oracles.crofton_perimeter(res.grid, res.cell)
    assert 0 < res.accepted <= res.proposals


@pytest.mark.parametrize("grid_n", [0, -3, 2.5, 16.0, True, orc.ANNEAL_MAX_GRID + 1, "16"])
def test_anneal_rejects_bad_grid_width(square, grid_n):
    with pytest.raises(ScheduleInvalidError, match="grid_n must be an integer from 1 to 256"):
        orc.anneal_discrete(square, 0.5, grid_n, seed=0)


@pytest.mark.parametrize("v,grid_n", [(2.0, 16), (1e-4, 4)])
def test_anneal_rejects_infeasible_area(square, v, grid_n):
    # more cells than the mask holds, or none at all
    with pytest.raises(ScheduleInvalidError, match="target area infeasible on this grid"):
        orc.anneal_discrete(square, v, grid_n, seed=0)


def test_anneal_accepts_numpy_grid_width(square):
    res = orc.anneal_discrete(square, 0.5, np.int64(6), orc.AnnealSchedule(sweeps=5), seed=0)
    assert res.in_count == 18


@pytest.mark.parametrize("vertices", [SQUARE, [(0.0, 0.0), (1.0, 0.1), (0.3, 0.8)],
                                      ellipse_polygon(4, 64), ellipse_polygon(9, 7, 1.3)],
                         ids=["square", "triangle", "ellipse-64", "heptagon"])
def test_anneal_mask_is_contains_point_at_every_centre(vertices):
    # the start mask, read off contains_lattice, is bitwise contains_point at
    # the cell centres: scales 1e-6 to 1e6, offsets up to 1e9 sizes, widths 1 to 256
    for scale, offset, grid_n in itertools.product((1e-6, 1.0, 1e6), (0.0, 1e3, 1e9),
                                                   (1, 3, 32, 256)):
        shift = offset * scale * np.array([0.37, -0.61])
        domain = validate_polygon(np.asarray(vertices) * scale + shift)
        lo, hi = domain.vertices.min(axis=0), domain.vertices.max(axis=0)
        h = float(np.max(hi - lo)) / grid_n
        xs, ys = (lo[i] + (np.arange(int(np.ceil((hi[i] - lo[i]) / h - 1e-9))) + 0.5) * h
                  for i in (0, 1))
        want = domain.contains_point(np.stack(np.meshgrid(xs, ys), axis=-1))
        try:
            mask = orc._anneal_start(domain, h * h, grid_n, 0)[1]
        except ScheduleInvalidError:
            assert not want.any()
        else:
            assert mask.shape == want.shape and np.array_equal(mask, want)

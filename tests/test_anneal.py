"""The annealing oracle's stencil pricing and its pinned seeded results.

Each swap is priced from the counter's flat Crofton stencil without
touching the grid. The property tests compare the priced counts with
transition counts recomputed from scratch after the swap; the golden
tests pin whole seeded runs, so any change to the move sequence, the
RNG draws or the float expressions shows up as a changed hash.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from isoperim import oracle as orc

DIRS = [(int(a), int(b)) for a, b in orc._CROFTON_DIRS]
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _random_grid(draw, ny, nx):
    bits = draw(st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx))
    return np.array(bits, dtype=bool).reshape(ny, nx)


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


def _is_valid_swap(grid, p, q):
    counter = orc._CroftonCounter(grid, 1.0)
    mask_buf, _ = orc._padded_buffer(np.ones_like(grid))
    return orc._valid_swap(counter.buf, mask_buf, counter.n4,
                           counter.index(*p), counter.index(*q))


def _check_priced_swap(grid, p, q):
    h = 0.125
    counter = orc._CroftonCounter(grid, h)
    pi, qi = counter.index(*p), counter.index(*q)
    before = list(counter.counts)

    counts, after = counter.price(pi, qi)

    swapped = grid.copy()
    swapped[p] = False
    swapped[q] = True
    assert counts == [orc._transition_count(swapped, a, b) for a, b in DIRS]
    assert after == orc.crofton_perimeter(swapped, h)
    # pricing leaves the state alone
    assert np.array_equal(counter.g, grid)
    assert counter.counts == before
    counter.commit(pi, qi, counts)
    assert np.array_equal(counter.g, swapped)
    assert counter.perimeter() == after


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
    flipped = orc._CroftonCounter(grid, 0.1)
    flipped.flip(3, 4)
    flipped.flip(4, 5)
    priced = orc._CroftonCounter(grid, 0.1)
    counts, _ = priced.price(priced.index(3, 4), priced.index(4, 5))
    assert flipped.counts == counts


# Results of anneal_discrete before the move pricing used the stencil
# (each move then applied and undid trial flips on a 2-D array).
GOLDEN = [
    ("square", 0.9, 16, None, 1, "3.374763350800708",
     "27c321e280874077b9557215511a71ace012e61986852efb5af3b65d5ccd303a",
     "3ba6605b40930878f69ee3fb55190a2d5b3951940bee28e66271a5c4090b82c2"),
    ("square", 0.9, 16, None, 2, "3.374763350800708",
     "f3712cdf45806db8f24d06f7c57df202be6851b7fba53cea1ae7a4648e1df457",
     "345472a7aa28f8ba003c7251ce4ebcc6b685a4fe89051f9aeab3527e1ff15d82"),
    ("square", 0.9, 32, None, 3, "3.4015145083204197",
     "194cbe7bfd5452233cb6d55dbc60f4f8ae7e0ddf9861651f13f7eb4756bb9a73",
     "a9aff91b7a9f621967c02307da3009237c7105ccbcfb6bb316edefb49cb6bbed"),
    ("square", np.pi / 4, 32, None, 0, "3.1336501330594153",
     "30eded1049bba3daa9766e8c3cbb2994104a900dc2f714cedc00246286ec6cbb",
     "cf5bd8a291c7875d41806e009aa81c5e73b6a1a3b97e93fe668ba81ec3ff30d9"),
    ("rect21", 1.9, 48, 200, 0, "5.391389606537464",
     "5531cd51bd944e90ad8417097474d3ebe5d2b11e658e9640d44d988fae2359f9",
     "1bb4a9b50dd31ecdb527089edc2615c99100b46834a058a0716289026c08ac0e"),
]


@pytest.mark.parametrize("domain,v,grid_n,sweeps,seed,perimeter,grid_sha,trace_sha",
                         GOLDEN, ids=[f"{g[0]}-{g[2]}-seed{g[4]}" for g in GOLDEN])
def test_anneal_golden(request, domain, v, grid_n, sweeps, seed, perimeter,
                       grid_sha, trace_sha):
    poly = request.getfixturevalue(domain)
    schedule = orc.AnnealSchedule(sweeps=sweeps) if sweeps else None
    res = orc.anneal_discrete(poly, v, grid_n, schedule, seed=seed)
    assert repr(res.perimeter) == perimeter
    assert _sha(res.grid) == grid_sha
    assert _sha(res.energy_trace) == trace_sha
    assert res.grid.dtype == bool and res.grid.flags.c_contiguous

"""CSV float cells: cli._format_e16 against Python's format(x, ".16e").

The kernel computes 17 significant digits in numpy and leaves only the cells
it cannot prove to Python's formatter; every cell must come out with the
bytes Python gives it.
"""

import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fdpowerctl import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _texts(values) -> list[str]:
    rows = cli._format_e16(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def _assert_python_bytes(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    wrong = [
        (v, got, format(v, ".16e"))
        for v, got in zip(values, _texts(values))
        if got != format(v, ".16e")
    ]
    assert not wrong, wrong[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
@example([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0])
@example([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308])
@example([1.7976931348623157e308, -1e280, 1e-280, 9.999999999999999e279])
def test_any_float_has_the_bytes_of_python_format(values):
    _assert_python_bytes(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(18070).integers(0, 2**64, 100_000, dtype=np.uint64)
    _assert_python_bytes(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    # log10 of a power of ten's neighbour can land in the wrong decade
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    _assert_python_bytes(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
    ]))


def _exact_ties(rng, per_decade=200) -> list[float]:
    """m 2^-j with m odd is m 5^j 10^-j: for j = 17 - E and a value in
    [10^E, 10^(E+1)) that is 18 significant digits ending in 5."""
    ties = []
    for e in range(-8, 16):
        j = 17 - e
        low = math.ceil(Fraction(10) ** e * 2**j)
        high = min(math.ceil(Fraction(10) ** (e + 1) * 2**j), 2**53)
        if low // 2 < high // 2:    # odd m in [low, high)
            odd = rng.integers(low // 2, high // 2, per_decade) * 2 + 1
            ties += [int(m) / 2**j for m in odd]
    return ties


def test_exact_ties_round_half_to_even():
    ties = _exact_ties(np.random.default_rng(5))
    digits = [Decimal(tie).as_tuple().digits for tie in ties]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    # half to even rounds about half of them down, where half up would not
    assert sum(d[16] % 2 == 0 for d in digits) > len(ties) // 3
    _assert_python_bytes(ties + [-t for t in ties])


def test_values_whose_18th_digit_is_5():
    rng = np.random.default_rng(11)
    mantissas = rng.integers(10**16, 10**17, 20_000)
    exponents = rng.integers(-290, 290, 20_000)
    _assert_python_bytes([
        float(f"{m}5e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())
    ])


def test_millisecond_steps():
    _assert_python_bytes(np.arange(1, 10_001) * 1e-3)


def test_only_cells_the_kernel_cannot_prove_reach_pythons_formatter(monkeypatch):
    tie = 1 + 2.0**-17          # 1.00000762939453125
    special = [math.nan, math.inf, -math.inf, 5e-324, -1e-281, 1e281, tie]
    # log10(1e23) rounds up to 23; the kernel moves the exponent down itself
    values = [1.5, *special, 0.0, -0.0, 1e-280, -1e280, 1e23]
    _assert_python_bytes(values)
    sent = []
    formatter = cli._python_e16
    monkeypatch.setattr(cli, "_python_e16", lambda values: sent.extend(values) or formatter(values))
    cli._format_e16(np.array(values))
    assert [repr(v) for v in sent] == [repr(v) for v in special]


def _golden_float_cells() -> list[str]:
    """Every float cell of the mobility and snapshot goldens: the cells with
    an exponent (step counts and feasibility flags have none)."""
    paths = sorted(GOLDEN.glob("mobility_*/*.csv")) + sorted(GOLDEN.glob("snapshot_*/*.csv"))
    assert len(paths) >= 18
    return [
        cell
        for path in paths
        for line in path.read_text().splitlines()[1:]
        for cell in line.split(",")
        if "e" in cell
    ]


def test_golden_cells_take_the_fast_path(monkeypatch):
    # a kernel that sent its cells to Python's formatter would write the same
    # bytes; it must format these itself
    def refuse(values):
        raise AssertionError(f"sent to Python's formatter: {values[:5]}")

    monkeypatch.setattr(cli, "_python_e16", refuse)
    cells = [cell for cell in _golden_float_cells() if float(cell) != 0.0]
    assert len(cells) > 20_000
    assert all(math.isfinite(float(cell)) for cell in cells)
    assert _texts([float(cell) for cell in cells]) == cells

"""The CSV writers spell every float cell as `repr` does. The block
formatter computes each cell's shortest round-trip digits with integer
arithmetic on whole arrays (Schubfach) and lays them out by repr's rules;
it leaves the rare cells repr writes in scientific notation, and
subnormals, to repr itself. These tests hold the written text to repr:
over raw bit patterns, at the switch points of repr's notation, over 1M
seeded doubles, and with numpy's AVX-512 code paths off."""

import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from padland.harness import REPLAY_COLUMNS, REPLAY_HEADER
from padland.reporting import _shortest, write_replay_csv

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FLOATS = 8  # u_hat to e_z, the replay CSV's float columns
assert REPLAY_COLUMNS[-FLOATS:] == ("u_hat", "v_hat", "w_hat", "h_hat", "e_x", "e_y", "A", "e_z")


def replay_text(path: Path, values: np.ndarray) -> tuple[str, str]:
    """The replay CSV write_replay_csv writes with values in its float
    columns, FLOATS to a row, the last row padded with 0.0; and the same
    file spelled with repr, each row's `frame` its number."""
    floats = np.zeros(-(-len(values) // FLOATS) * FLOATS)
    floats[: len(values)] = values
    rows = np.zeros((len(floats) // FLOATS, len(REPLAY_COLUMNS)))
    rows[:, -FLOATS:] = floats.reshape(-1, FLOATS)
    write_replay_csv(rows, path)
    cells = list(map(repr, floats.tolist()))
    starts = range(0, len(cells), FLOATS)
    lines = [f"{k},,0," + ",".join(cells[i : i + FLOATS]) + "\n" for k, i in enumerate(starts)]
    return path.read_text(), REPLAY_HEADER + "\n" + "".join(lines)


def test_every_notation_edge_is_written_as_repr(tmp_path):
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, math.nextafter(2.0**-1022, 0.0), 2.0**-1022, -(2.0**-1022)],
        [1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4],
        [1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -1e16],
        [0.1, 0.3, 2.0 / 3.0, 123456.789, 9007199254740993.0, 1.7976931348623157e308],
        powers, -powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf), tens * 0.5,
    ])
    text, expected = replay_text(tmp_path / "replay.csv", values[np.isfinite(values)])
    assert text == expected


def seeded_doubles(seed: int, n: int, low: int, high: int) -> np.ndarray:
    """n doubles of random significand and sign, with binary exponents
    from low to high, drawn as integers (the same on every CPU)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(1023 + low, 1023 + high + 1, n).astype(np.uint64) << 52
    bits |= rng.integers(0, 2, n).astype(np.uint64) << 63
    return bits.view(np.float64)


def test_a_million_seeded_doubles_are_written_as_repr(tmp_path):
    # binary exponents from -15 to 54, so that 1 cell in 20 is in repr's
    # scientific notation, on either side
    values = seeded_doubles(2018, 1_000_000, -15, 54)
    text, expected = replay_text(tmp_path / "replay.csv", values)
    assert text == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_finite_double_is_written_as_repr(tmp_path_factory, patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    path = tmp_path_factory.getbasetemp() / "bits.csv"
    text, expected = replay_text(path, values[np.isfinite(values)])
    assert text == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 2046), min_size=1, max_size=64), st.randoms(use_true_random=False))
def test_shortest_digits_are_repr_s_at_every_exponent(exponents, random):
    # most raw patterns are in scientific notation, which the writers leave
    # to repr, so this holds the digits themselves to repr's at every
    # binary exponent of a normal double
    bits = np.array([e << 52 | random.getrandbits(52) for e in exponents], np.uint64)
    bits[::3] &= ~np.uint64(2**52 - 1)  # a power of two: the narrower gap below it
    f, k = _shortest(bits.view(np.int64))
    for x, digits, exponent in zip(bits.view(np.float64).tolist(), f.tolist(), k.tolist()):
        assert Decimal(digits).scaleb(exponent) == Decimal(repr(x)), x
        assert 10**15 <= digits < 10**17


CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from test_float_text import replay_text, seeded_doubles
text, expected = replay_text(Path(sys.argv[2]), seeded_doubles(7, 100_000, -18, 58))
print(text == expected, hashlib.sha256(text.encode()).hexdigest())
"""


def test_the_written_bytes_do_not_depend_on_numpy_s_simd_paths(tmp_path):
    # NPY_DISABLE_CPU_FEATURES acts on the child process only: there numpy
    # takes its AVX2 loops where the other child may take its AVX-512 ones
    outputs = []
    for disabled in ("", "AVX512_SPR AVX512_ICL X86_V4"):
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled, "PYTHONPATH": str(SRC)}
        child = subprocess.run(
            [sys.executable, "-W", "error", "-c", CHILD, str(TESTS), str(tmp_path / "replay.csv")],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(child.stdout.split())
    assert outputs[0] == outputs[1] and outputs[0][0] == "True"

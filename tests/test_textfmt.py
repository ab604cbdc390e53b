"""``textfmt.format_rows`` writes the bytes Python's ``%`` writes, row by row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec.textfmt import format_rows

# the line formats of post.export_fields and mesh.mesh_text_chunks
FORMATS = ["%.17g %.17g 0\n", "%.17g\n", "%.17g %.17g 0\n%.17g %.17g 0\n0 0 0\n", "node %d %r %r\n"]


def by_percent(line_format, columns):
    lists = [np.asarray(c).tolist() for c in columns]
    return "".join(line_format % row for row in zip(*lists))


def check(line_format, *columns):
    assert format_rows(line_format, list(columns)) == by_percent(line_format, columns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_floats_as_percent(values):
    v = np.array(values, dtype=float)
    check("%.17g\n", v)
    check("%r|\n", v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
def test_integers_as_percent(values):
    check("id %d;\n", np.array(values, dtype=np.int64))


@pytest.mark.parametrize("conversion", ["%.17g", "%r"])
def test_random_bit_patterns(conversion):
    # any 64 bits (most are left to %), then any mantissa under a binary exponent
    # of +-100, where the fast path formats nearly all
    rng = np.random.default_rng(5)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 10 ** 5, dtype=np.int64)
    near = bits[:, None] & ~(0x7FF << 52) | (rng.integers(923, 1123, (10 ** 5, 3)) << 52)
    values = np.concatenate([bits, near.ravel()]).view(np.float64)
    for start in range(0, values.size, 1 << 16):
        check(conversion + "\n", values[start:start + (1 << 16)])


@pytest.mark.parametrize("line_format", FORMATS)
def test_the_writers_formats(line_format):
    rng = np.random.default_rng(8)
    n = 3000
    columns = [rng.uniform(-60, 60, n) * 10.0 ** rng.integers(-7, 7, n) for _ in range(4)]
    columns[0][::7] = np.round(columns[0][::7], 3)
    columns[1][::5] = 0.0
    columns[2][::11] = -0.0
    if line_format.startswith("node"):
        columns = [np.arange(n) - 5, *columns[:2]]
    check(line_format, *columns[:line_format.count("%")])


@pytest.mark.parametrize("log10_towards", [None, -np.inf, np.inf])
def test_powers_of_ten_and_neighbours(monkeypatch, log10_towards):
    # the exponent estimate from log10 may be one off either way at a power of ten;
    # moving log10 by an ulp takes both the estimate and its correction
    powers = 10.0 ** np.arange(-31, 32)
    values = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    if log10_towards is not None:
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), log10_towards))
    for conversion in ("%.17g", "%r"):
        check(conversion + "\n", values)
        check(conversion + "\n", -values)


def test_zero_rows():
    assert format_rows("node %d %r %r\n", [np.zeros(0, int), np.zeros(0), np.zeros(0)]) == ""


@pytest.mark.parametrize("line_format, value", [
    ("%r\n", 2.0 ** 60), ("%r\n", 1e16), ("%r\n", 0.5), ("%.17g\n", 1e31), ("%r\n", -1e31),
    ("%.17g\n", float("nan")), ("%r\n", float("-inf")), ("%d\n", 10 ** 16), ("%d\n", -2 ** 63)])
def test_fallback_values_keep_percent_text(line_format, value):
    # a value the fast path leaves to % amid ones it formats itself
    column = np.array([1.25, value, -3.5] if "d" not in line_format else [7, value, -3],
                      dtype=int if "d" in line_format else float)
    check(line_format, column)


@pytest.mark.parametrize("line_format, columns", [
    ("%.17g %.17g\n", [np.zeros(2)]), ("%.17g %s\n", [np.zeros(2), np.zeros(2)]),
    ("100%% %.17g\n", [np.zeros(2)])])
def test_unsupported_formats_refused(line_format, columns):
    with pytest.raises(ValueError):
        format_rows(line_format, columns)

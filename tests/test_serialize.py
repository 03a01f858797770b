"""Series serializers against the plain formulations they replace.

``cli._csv`` and ``cli._json_text`` format a precess/bmt series in bulk.
Their output must equal, byte for byte, a per-row ``%.17g`` join and
``json.dumps(..., indent=2)`` of the column lists, for every float64 value
including NaN, the infinities, signed zero, subnormals and the ends of the
range.  Both convert each distinct bit pattern of a column once, so the
tables also hold constant columns and columns of a few repeated values.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinprec.cli import _csv, _json_text

SPECIAL = [
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
    0.1,
    1e16,
    -1e-7,
]


#: bit patterns of 0.0, -0.0, a quiet NaN with a payload, the infinities and 0.1
CONSTANT_BITS = [0, 1 << 63, 0x7FF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                 0x3FB999999999999A]
#: a pool of repeated values: 0.0 beside -0.0, and NaNs with two payloads, one negative
POOL_BITS = np.array([0, 1 << 63, 0x7FF8000000000001, 0xFFF80000DEADBEEF, 0x3FF0000000000000],
                     dtype=np.uint64)


def columns_of_bits(*patterns):
    return [np.array(p, dtype=np.uint64).view(np.float64) for p in patterns]


def reference_csv(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def reference_json(header, columns):
    return json.dumps({k: c.tolist() for k, c in zip(header, columns)}, indent=2) + "\n"


@st.composite
def series(draw):
    """(header, columns): 1-8 float64 columns of 1 to a few thousand rows.

    The bulk comes from random bit patterns, which span every exponent and
    hold NaNs with payloads, or from values of ordinary size; hypothesis
    then plants its own floats and the special values at chosen cells.
    Some columns are then made constant, or are drawn from a small pool.
    """
    width = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 3000))
    header = draw(st.lists(st.text(min_size=1, max_size=6), min_size=width, max_size=width,
                           unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        table = rng.integers(0, 2**64, size=(rows, width), dtype=np.uint64).view(np.float64)
    else:
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 20, (rows, width))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, width - 1),
                      st.floats() | st.sampled_from(SPECIAL))
    for r, c, value in draw(st.lists(cells, max_size=40)):
        table[r, c] = value
    bits = table.view(np.uint64)
    for c in range(width):
        kind = draw(st.sampled_from(["drawn", "constant", "pool"]))
        if kind == "constant":
            bits[:, c] = draw(st.sampled_from(CONSTANT_BITS))
        elif kind == "pool":
            bits[:, c] = POOL_BITS[rng.integers(0, len(POOL_BITS), rows)]
    return header, [table[:, j].copy() for j in range(width)]


EVERY_SPECIAL = (["t", "ä\"x"], [np.array(SPECIAL), np.arange(len(SPECIAL), dtype=float)])
NO_ROWS = (["t", "x"], [np.array([]), np.array([])])
ONE_ROW = (["t", "x", "y"], columns_of_bits([1 << 63], [0x7FF8000000000001], [0x3FB999999999999A]))
#: columns equal as floats, or all NaN, that differ in their bits
ZEROS_AND_NANS = (["z", "n"], columns_of_bits(
    [0, 1 << 63, 0], [0x7FF8000000000001, 0xFFF80000DEADBEEF, 0x7FF8000000000001]))
ALL_CONSTANT = ([f"c{i}" for i in range(len(CONSTANT_BITS))],
                columns_of_bits(*([b] * 5 for b in CONSTANT_BITS)))


@settings(max_examples=40, deadline=None)
@given(series())
@example(EVERY_SPECIAL)
@example(NO_ROWS)
@example(ONE_ROW)
@example(ALL_CONSTANT)
@example(ZEROS_AND_NANS)
def test_csv_matches_per_row_join(data):
    header, columns = data
    assert _csv(header, columns) == reference_csv(header, columns)


@settings(max_examples=40, deadline=None)
@given(series())
@example(EVERY_SPECIAL)
@example(NO_ROWS)
@example(ONE_ROW)
@example(ALL_CONSTANT)
@example(ZEROS_AND_NANS)
def test_json_matches_json_dumps_and_round_trips(data):
    header, columns = data
    text = _json_text(dict(zip(header, columns)))
    assert text == reference_json(header, columns)
    loaded = json.loads(text)
    assert list(loaded) == header
    for name, col in zip(header, columns):
        back = np.array(loaded[name], dtype=np.float64)
        nan = np.isnan(col)
        # NaN comes back as NaN; every other value keeps all its bits, -0.0 too
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64), col[~nan].view(np.uint64))

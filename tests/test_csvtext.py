"""CSV number text: every value written as ``repr`` or ``str`` would write it."""

import numpy as np
import pytest

from fiberbundle import csvtext


def write_rows(path, header, rows):
    """The row-at-a-time writer that the column writer replaced, kept as its oracle."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def _float_column(size, seed):
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    col[:6] = [0.0, -0.0, 1.0, 1e16, 5e-324, 0.1 + 0.2]
    return col


def _edge_columns():
    """Every power of two with its neighbours, the switch points of plain and
    exponent notation, the largest subnormal and finite doubles, values of
    1 to 17 shortest digits, NaN and inf of both signs; beside them the int64
    extremes, 0 and -1."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    digits = [float("1." + "2345678912345678"[:k]) for k in range(16)] + [0.1 + 0.2]
    assert sorted(len(repr(v).replace(".", "").strip("0")) for v in digits) == list(range(1, 18))
    floats = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [1e-05, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16],
        [np.nextafter(np.finfo(float).smallest_normal, 0.0), np.finfo(float).max], digits,
        [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf],
    ])
    ints = np.resize(np.array([-2**63, 2**63 - 1, 0, -1], dtype=np.int64), floats.size)
    return [floats, ints]


class TestWriter:
    @pytest.mark.parametrize("columns", [
        lambda: [_float_column(70_000, 0)],  # more than one 2^16-row block
        lambda: [np.random.default_rng(1).integers(-2**62, 2**62, 70_000)],
        lambda: [np.arange(300), np.bitwise_count(np.arange(300)).astype(np.int64),
                 _float_column(300, 2), _float_column(300, 3)],
        lambda: [np.array([np.nan, np.inf, -np.inf]), np.array([1.5, 2.5, 3.5])],
        lambda: [np.empty(0), np.empty(0)],
        _edge_columns,
    ], ids=["float", "int64", "mixed", "non-finite", "empty", "edges"])
    def test_bytes_equal_row_writer(self, tmp_path, columns):
        cols = columns()
        header = [f"c{i}" for i in range(len(cols))]
        csvtext.write_csv(tmp_path / "cols.csv", header, [cols])
        write_rows(tmp_path / "rows.csv", header, zip(*cols))
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("floats", [1, 2, 5])
    def test_float_columns_across_block_boundaries(self, tmp_path, floats):
        # blocks of _CSV_BLOCK // floats rows; int columns first, inside and last
        size = 2 * (csvtext._CSV_BLOCK // floats) + 3
        ints = [np.arange(size) - 77, np.arange(size, dtype=np.uint16), np.full(size, -2**63)]
        cols = [ints[0], *[_float_column(size, s) for s in range(floats)], ints[1]]
        cols.insert(2, ints[2])
        header = [f"c{i}" for i in range(len(cols))]
        csvtext.write_csv(tmp_path / "cols.csv", header, [cols])
        write_rows(tmp_path / "rows.csv", header, zip(*cols))
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_column_blocks_equal_whole_columns(self, tmp_path):
        # uneven blocks, an empty one among them, re-split at the writer's own size
        size = csvtext._CSV_BLOCK + 17
        cols = [np.arange(size) - 5, _float_column(size, 4), _float_column(size, 5)]
        cuts = [0, 3, 3, csvtext._CSV_BLOCK + 9, size]
        blocks = ([c[lo:hi] for c in cols] for lo, hi in zip(cuts, cuts[1:]))
        csvtext.write_csv(tmp_path / "whole.csv", list("abc"), [cols])
        csvtext.write_csv(tmp_path / "blocks.csv", list("abc"), blocks)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_one_float_call_per_block(self, tmp_path, monkeypatch):
        calls = []

        def counted(x, real=csvtext._float_text):
            calls.append(x.size)
            return real(x)

        monkeypatch.setattr(csvtext, "_float_text", counted)
        cols = [_float_column(100, s) for s in range(5)]
        csvtext.write_csv(tmp_path / "t.csv", list("abcde"), [cols])
        assert calls == [500]

    def test_random_bit_patterns_read_as_repr(self, tmp_path):
        # 10^6 uint64 draws viewed as float64: both signs, every exponent,
        # subnormals; the few NaN and infinite patterns are dropped
        bits = np.random.default_rng(7).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert (values < 0).sum() > 4 * 10**5 and (values > 0).sum() > 4 * 10**5
        csvtext.write_csv(tmp_path / "bits.csv", ["x"], [(values,)])
        lines = (tmp_path / "bits.csv").read_text().splitlines()
        assert lines == ["x", *map(repr, values.tolist())]

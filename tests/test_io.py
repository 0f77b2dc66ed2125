import csv
import io
import os
import re
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazesim.io import (_BLOCK_ROWS, QUALITY_HEADER, RECORDING_HEADER, ManifestEntry,
                        _parse_lines_c, _parse_rows, _read_columns, _table_rows,
                        atomic_write_text, format_float, read_manifest, read_quality_table,
                        read_recording, write_manifest,
                        write_quality_table, write_recording)
from gazesim.metrics import temporal_precision
from gazesim.types import QualityTable, QualityVector

from conftest import blank_missing_gaze, canonical_text, make_recording, with_bom


def qv(acc_h=0.1, prec_h=0.02, prec_v=0.03, temporal=0.5, n=10):
    return QualityVector(acc_h=acc_h, acc_v=0.2, acc_c=max(acc_h, 0.2) + 0.05,
                         prec_h=prec_h, prec_v=prec_v,
                         prec_c=float(np.hypot(prec_h, prec_v)),
                         temporal_prec_ms=temporal, n_fixations_used=n)


class TestCanonicalRecording:
    def test_three_row_parse(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2,0.3,0,0\n")
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.n_samples == 3
        assert rec.gaze_x.tolist() == [0.1, 0.15, 0.2]
        assert rec.recording_id == "r"

    def test_rate_is_required(self, tmp_path):
        # no rate is assumed: a file's metrics depend on its nominal rate
        path = tmp_path / "r.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,0.1,0.2,0,0\n4,0.15,0.25,0,0\n")
        with pytest.raises(TypeError, match="nominal_rate_hz"):
            read_recording(path, "canonical")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = make_recording(np.arange(50) * 1.0, rng.normal(size=50),
                             rng.normal(size=50), rng.normal(size=50),
                             rng.normal(size=50))
        path = tmp_path / "rt.csv"
        write_recording(rec, path)
        back = read_recording(path, "canonical", rec.nominal_rate_hz,
                              recording_id=rec.recording_id)
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            np.testing.assert_allclose(getattr(back, name), getattr(rec, name),
                                       atol=1e-9, rtol=0)
            assert np.array_equal(getattr(back, name), getattr(rec, name))

    def test_missing_cells_round_trip(self, tmp_path):
        gx = np.array([0.1, np.nan, 0.3, 0.4])
        gy = np.array([0.0, 0.0, np.nan, 0.1])
        rec = make_recording([0.0, 1.0, 2.0, 3.0], gx, gy)
        path = tmp_path / "m.csv"
        write_recording(rec, path)
        text = path.read_text()
        assert ",,," not in text.splitlines()[0]
        assert text.splitlines()[2].split(",")[1] == "nan"  # written, not dropped
        back = read_recording(path, "canonical", 1000.0)
        assert back.n_samples == 4
        assert back.missing.tolist() == [False, True, True, False]
        np.testing.assert_array_equal(np.isnan(back.gaze_x), np.isnan(gx))

    def test_empty_gaze_cell_flagged_not_dropped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,,0.2,0,0\n1,0.15,0.25,0,0\n")
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.n_samples == 2
        assert rec.missing.tolist() == [True, False]

    def test_nan_literal_flagged(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,NaN,0.2,0,0\n1,0.15,0.25,0,0\n")
        assert read_recording(path, "canonical", 1000.0).missing.tolist() == [True, False]

    def test_constant_isi_gives_zero_temporal_precision(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = "".join(f"{i},0.0,0.0,0,0\n" for i in range(20))
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n" + rows)
        rec = read_recording(path, "canonical", 1000.0)
        assert temporal_precision(rec) == 0.0

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,0.1,0.2,0,0\n1,0.15,oops,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_recording(path, "canonical", 1000.0)

    def test_unknown_format_tag(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="format_tag"):
            read_recording(path, "tobii-export", 1000.0)

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n")
        with pytest.raises(ValueError, match="zero usable samples"):
            read_recording(path, "canonical", 1000.0)

    def test_all_missing_gaze(self, tmp_path):
        path = tmp_path / "am.csv"
        path.write_text("t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                        "0,,,0,0\n1,,,0,0\n")
        with pytest.raises(ValueError, match="zero usable samples"):
            read_recording(path, "canonical", 1000.0)

    def test_write_into_missing_directory_fails(self, tmp_path, four_sample_recording):
        with pytest.raises(OSError):
            write_recording(four_sample_recording, tmp_path / "nope" / "r.csv")


class TestAdapters:
    def test_eyelink_export_layout(self, tmp_path):
        path = tmp_path / "el.csv"
        path.write_text("n,x,y,dP,xT,yT\n0,1.5,2.5,800,3.0,4.0\n1,1.6,2.6,801,3.0,4.0\n")
        rec = read_recording(path, "eyelink-export", 1000.0)
        assert rec.timestamps_ms.tolist() == [0.0, 1.0]
        assert rec.gaze_x.tolist() == [1.5, 1.6]
        assert rec.tgt_y.tolist() == [4.0, 4.0]

    def test_vr_export_converts_seconds(self, tmp_path):
        path = tmp_path / "vr.csv"
        path.write_text("time_s,gaze_x_deg,gaze_y_deg,target_x_deg,target_y_deg\n"
                        "0.0,1,2,0,0\n0.004,1.1,2.1,0,0\n")
        rec = read_recording(path, "vr-export", 250.0)
        assert rec.timestamps_ms.tolist() == [0.0, 4.0]

    @pytest.mark.parametrize("format_tag, header, time_column", [
        ("canonical", "gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva", "t_ms"),
        ("eyelink-export", "x,y,xT,yT", "n"),
        ("vr-export", "gaze_x_deg,gaze_y_deg,target_x_deg,target_y_deg", "time_s")],
        ids=["canonical", "eyelink-export", "vr-export"])
    def test_missing_time_column_named(self, tmp_path, format_tag, header, time_column):
        # no timestamps are made from the rate: the time column is required
        path = tmp_path / "nt.csv"
        path.write_text(header + "\n1,2,0,0\n1.1,2.1,0,0\n1.2,2.2,0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: missing column "
                                             rf"'{time_column}' for format '{format_tag}'$"):
            read_recording(path, format_tag, 250.0)

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("n,x,xT,yT\n0,1,0,0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_recording(path, "eyelink-export", 1000.0)

    @pytest.mark.parametrize("format_tag, header, column", [
        ("canonical", "t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva, gaze_x_dva",
         "gaze_x_dva"),
        ("vr-export", "time_s,gaze_x_deg,gaze_y_deg,target_x_deg,target_y_deg,time_s",
         "time_s")],
        ids=["canonical", "vr-export"])
    def test_repeated_layout_column_named(self, tmp_path, format_tag, header, column):
        # either copy could be the one meant: the read fails rather than pick one
        path = tmp_path / "rc.csv"
        path.write_text(header + "\n0,1,2,0,0,9\n0.004,1.1,2.1,0,0,9\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: repeated column "
                                             rf"'{column}' for format '{format_tag}'$"):
            read_recording(path, format_tag, 250.0)


def row_loop_csv(rec):
    """Reference writer: one csv.writer row per sample, the byte layout
    write_recording must reproduce."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDING_HEADER)
    for i in range(rec.n_samples):
        writer.writerow([format_float(rec.timestamps_ms[i]), format_float(rec.gaze_x[i]),
                         format_float(rec.gaze_y[i]), format_float(rec.tgt_x[i]),
                         format_float(rec.tgt_y[i])])
    return buf.getvalue()


# positions a recording may hold, up to its range of +/-1e150 dva, with a
# 17-digit repr near the top
EDGE_VALUES = [np.nan, -0.0, 0.0, 1e-300, -1e-300, 1e22, -1e22, 5e-324,
               3.0, -17.0, 0.1, 2.5e-7, 123456789.0, 1.7976931348623157e149, -1e150]


def golden_recording(case):
    """An int case is a mixed recording of that many rows; a str case names
    an input the run-length writer must also format exactly."""
    if isinstance(case, int):
        n = case
        rng = np.random.default_rng(n)
        t = np.arange(n) * 0.75  # every fourth stamp integral
        t[:2] = [-0.0, 1e-300]
        edge = np.resize(EDGE_VALUES, n)
        gx = np.where(rng.random(n) < 0.5, edge, rng.normal(size=n))
        gy = np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n) * 1e3)
        gx[0], gy[0] = 0.25, -0.0  # at least one usable sample
        tx = np.where(np.isnan(edge), 1e22, edge)
        ty = np.resize([-0.0, 4.0, 1e-300], n)
        return make_recording(t, gx, gy, tx, ty)
    n = 2 * _BLOCK_ROWS + 7
    t = np.arange(n) * 4.0
    if case == "constant":
        return make_recording(t, np.full(n, 0.1), np.full(n, -0.0),
                              np.full(n, 1e22), np.full(n, 0.0))
    if case == "signed-zeros":
        zeros = np.resize([0.0, -0.0], n)
        return make_recording(t, zeros, -zeros, zeros, np.resize([-0.0, -0.0, 0.0], n))
    if case == "run-across-blocks":
        tx = np.full(n, 3.0)
        tx[_BLOCK_ROWS - 20:2 * _BLOCK_ROWS + 1] = -12.5  # spans two boundaries
        gx = np.sin(t)
        gx[_BLOCK_ROWS - 3:_BLOCK_ROWS + 3] = np.nan
        return make_recording(t, gx, np.cos(t), tx, tx[::-1])
    if case == "nan-gaze-run":
        gx, gy = np.sin(t), np.cos(t)
        gx[100:400] = np.nan
        gx[200:220] = np.array(0x7FF8000000000001, dtype=np.uint64).view(float)  # another NaN payload
        gy[150:300] = np.nan
        return make_recording(t, gx, gy, np.full(n, 2.0), np.full(n, 2.0))
    if case == "two-rows":
        return make_recording([0.0, 1.0], [np.nan, 0.5], [7.0, 7.0], [1.0, 1.0], [-0.0, 0.0])
    raise ValueError(case)


class TestCsvGolden:
    @pytest.mark.parametrize("case", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                      "constant", "signed-zeros", "run-across-blocks",
                                      "nan-gaze-run", "two-rows"])
    def test_bytes_match_row_loop_and_read_back(self, tmp_path, case):
        rec = golden_recording(case)
        path = tmp_path / "golden.csv"
        write_recording(rec, path)
        assert path.read_bytes() == row_loop_csv(rec).encode("utf-8")
        back = read_recording(path, "canonical", rec.nominal_rate_hz)
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            got, want = getattr(back, name), getattr(rec, name)
            assert np.array_equal(got, want, equal_nan=True), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


HEADER = "t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"


class TestReadRecordingFuzz:
    def malformed(self, path, line):
        return pytest.raises(ValueError,
                             match=rf"^{re.escape(str(path))}: malformed row at line {line}:")

    def test_whitespace_header_names(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text("n, x,y , xT,yT\n0,1.5,2.5,3.0,4.0\n1,1.6,2.6,3.0,4.0\n")
        rec = read_recording(path, "eyelink-export", 1000.0)
        assert rec.timestamps_ms.tolist() == [0.0, 1.0]
        assert rec.gaze_x.tolist() == [1.5, 1.6]
        assert rec.gaze_y.tolist() == [2.5, 2.6]

    def test_truncated_last_row(self, tmp_path):
        path = tmp_path / "trunc.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2,0.3,0,")
        with self.malformed(path, 4):
            read_recording(path, "canonical", 1000.0)
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2")
        with self.malformed(path, 4):
            read_recording(path, "canonical", 1000.0)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0\n2,0.2,0.3,0,0\n")
        with self.malformed(path, 3):
            read_recording(path, "canonical", 1000.0)

    def test_extra_cells(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2,0.3,0,0,9\n")
        with self.malformed(path, 4):
            read_recording(path, "canonical", 1000.0)

    def test_every_row_has_an_extra_cell(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0,9\n1,0.15,0.25,0,0,9\n")
        with self.malformed(path, 2):
            read_recording(path, "canonical", 1000.0)

    def test_cell_over_csv_field_limit_fails_as_csv_does(self, tmp_path):
        # csv.Error is not a ValueError: it comes out as one naming the path,
        # so a corpus loop with skip-bad skips the file
        path = tmp_path / "long.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25," + " " * csv.field_size_limit()
                        + "0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "
                                             r"field larger than field limit"):
            read_recording(path, "canonical", 1000.0)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("blank", ["0.15", ""], ids=["c-parser", "csv-reader"])
    def test_infinite_gaze_cell_names_file(self, tmp_path, cell, blank):
        # gaze is finite or missing; the blank gaze cell sends its block to
        # the csv.reader path
        path = tmp_path / "inf.csv"
        path.write_text(HEADER + f"0,0.1,0.2,0,0\n1,{blank},0.25,0,0\n2,0.2,{cell},0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: infinite gaze "
                                             r"gaze_y at index 2$"):
            read_recording(path, "canonical", 1000.0)

    @pytest.mark.parametrize("blank", ["0.15", ""], ids=["c-parser", "csv-reader"])
    def test_gaze_beyond_position_range_names_file(self, tmp_path, blank):
        # a finite gaze cell beyond +/-1e150 dva fails the read naming the
        # file, the channel and the index
        path = tmp_path / "wild.csv"
        path.write_text(HEADER + f"0,0.1,0.2,0,0\n1,{blank},0.25,0,0\n2,0.2,1.7e308,0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: gaze gaze_y at index 2 "
                                             r"is 1\.7e\+308 dva, outside the position range "
                                             r"\+/-1e\+150 dva$"):
            read_recording(path, "canonical", 1000.0)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n\n\n1,0.15,0.25,0,0\n\n2,0.2,0.3,0,0\n")
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.gaze_x.tolist() == [0.1, 0.15, 0.2]
        path.write_text(HEADER + "0,0.1,0.2,0,0\n\n\n1,0.15,0.25,0,0\n\n2,0.2,x,0,0\n")
        with self.malformed(path, 7):
            read_recording(path, "canonical", 1000.0)

    def test_first_bad_row_in_file_order_across_blocks(self, tmp_path):
        rows = [f"{i},0.1,0.2,0,0\n" for i in range(2 * _BLOCK_ROWS + 10)]
        rows[_BLOCK_ROWS + 5] = f"{_BLOCK_ROWS + 5},0.1,0.2,0\n"
        rows[_BLOCK_ROWS + 3] = f"{_BLOCK_ROWS + 3},0.1,oops,0,0\n"
        rows[2 * _BLOCK_ROWS + 1] = "bad\n"
        path = tmp_path / "blocks.csv"
        path.write_text(HEADER + "".join(rows))
        with self.malformed(path, _BLOCK_ROWS + 5):
            read_recording(path, "canonical", 1000.0)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + b"0,0.1,0.2,0,0\n1,0.15\xe9,0.25,0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_recording(path, "canonical", 1000.0)

    def test_non_utf8_byte_past_the_first_read_is_not_rescanned(self, tmp_path,
                                                                monkeypatch):
        rows = [f"{i},0.1,0.2,0,0\n" for i in range(2 * _BLOCK_ROWS)]
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + "".join(rows)).encode() + b"9,0.15\xe9,0.25,0,0\n")

        def no_rescan(*args):
            raise AssertionError("a decode error is not a malformed row")
        monkeypatch.setattr("gazesim.io._malformed_row_error", no_rescan)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_recording(path, "canonical", 1000.0)

    def test_non_monotone_names_path_and_sample_index(self, tmp_path):
        path = tmp_path / "backwards.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n"
                                 "0.5,0.2,0.3,0,0\n3,0.2,0.3,0,0\n")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: non-monotone at index 2$"):
            read_recording(path, "canonical", 1000.0)

    def test_whitespace_gaze_cell_is_missing(self, tmp_path):
        path = tmp_path / "wsgaze.csv"
        path.write_text(HEADER + "0, ,0.2,0,0\n1, 0.15 ,0.25,0,0\n")
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.missing.tolist() == [True, False]
        assert rec.gaze_x[1] == 0.15


# the canonical layout's (cell index, is_gaze) columns
CANONICAL_COLUMNS = [(0, False), (1, True), (2, True), (3, False), (4, False)]


def csv_oracle(text, columns=CANONICAL_COLUMNS):
    """The csv.reader + _parse_rows parse of data lines: the reference the
    C tokenizer path must reproduce bit for bit, or reject as it does."""
    return _parse_rows(list(csv.reader(io.StringIO(text, newline=""))), 5, columns)


def parse_or_error(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return "error"


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


bits64 = st.integers(0, 2 ** 64 - 1).map(
    lambda b: np.array(b, dtype=np.uint64).view(np.float64).item())
number_text = st.one_of(
    st.tuples(bits64, st.sampled_from([repr, "%.17g".__mod__, "%.3e".__mod__]))
    .map(lambda p: p[1](p[0])),
    st.sampled_from(["NaN", "nan", "inf", "-Infinity", "+inf", "-nan", "-0", "0",
                     "1e400", "-1e-400", "1E5", ".5", "5.", "17"]))
signed_text = st.tuples(st.booleans(), number_text).map(
    lambda p: "+" + p[1] if p[0] and p[1][0] not in "+-" else p[1])
# padding float() and numpy both strip, ASCII and not
clean_cell = st.tuples(st.sampled_from(["", " ", "\t", "\x0c", "\u2003"]), signed_text,
                       st.sampled_from(["", " ", "  ", "\xa0"])).map("".join)
# cells only float() or csv accepts, or neither; '"1\n"' continues a row onto
# the next line
odd_cell = st.sampled_from(["", " ", "1_0", "\u0661", '"1.0"', '"1,5"', '"1\n"',
                            '"\n2"', "\x1c1", "2\x1f", "oops", "0x1p3", "nan(1)"])
ending = st.sampled_from(["\n", "\r\n"])
clean_line = st.tuples(st.lists(clean_cell, min_size=5, max_size=5), ending).map(
    lambda p: ",".join(p[0]) + p[1])
any_line = st.one_of(
    clean_line, ending, st.just("\r"),
    st.tuples(st.sampled_from([5, 5, 5, 4, 6]).flatmap(
        lambda k: st.lists(st.one_of(clean_cell, clean_cell, odd_cell), min_size=k,
                           max_size=k)), st.sampled_from(["\n", "\r\n", "\r"]))
    .map(lambda p: ",".join(p[0]) + p[1]))


class TestCParserMatchesCsv:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(clean_line, clean_line, clean_line, ending), min_size=1,
                    max_size=12).filter(lambda ls: any(len(x) > 2 for x in ls)))
    def test_clean_block_takes_c_path_bit_equal(self, lines):
        got = _parse_lines_c(lines, 5, CANONICAL_COLUMNS)
        assert got is not None
        assert_bit_equal(got, csv_oracle("".join(lines)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), min_size=5, max_size=5),
           st.lists(st.tuples(st.lists(st.one_of(clean_cell, st.just("")), min_size=5,
                                       max_size=5), st.sampled_from(["\n", "\r\n", "\r"])),
                    min_size=1, max_size=12),
           st.booleans(), st.booleans())
    def test_blank_cells_take_c_path_only_in_gaze_columns(self, gaze, rows, blank_outside,
                                                          last_newline):
        # the id is the one the test had while blank gaze cells were filled
        # with "nan" for the C path: now any empty cell, in a gaze column or
        # not, first or last, leaves the block to the csv path
        columns = list(enumerate(gaze))
        if not blank_outside:
            rows = [([c or ("" if gaze[i] else "0") for i, c in enumerate(cells)], end)
                    for cells, end in rows]
        text = "".join(",".join(cells) + end for cells, end in rows)
        if not last_newline:
            text = text.rstrip("\r\n")
        lines = io.StringIO(text, newline="").readlines()
        got = _parse_lines_c(lines, 5, columns)
        if any(cell == "" for cells, _ in rows for cell in cells):
            assert got is None
        else:
            assert_bit_equal(got, csv_oracle(text, columns))

    # the id is the one the cases had while a blank gaze cell took the C path
    @pytest.mark.parametrize("text", [
        ",1,2,3,4\n5,6,7,8,9\n", "1,2,,3,4\n5,6,7,8,9\n", "1,2,3,4,\n5,6,7,8,9\n",
        "1,2,3,4,\r\n5,6,7,8,9\r\n", "1,2,3,4,\r5,6,7,8,9\r", "1,2,3,4,5\n,6,7,8,9\n",
        "1,2,3,4,5\r\n,6,7,8,9\r\n", "1,2,3,4,5\r,6,7,8,9\r", "1,2,3,4,5\n6,7,8,9,"])
    def test_single_blank_gaze_cell_takes_c_path(self, text):
        columns = [(i, True) for i in range(5)]
        assert _parse_lines_c(io.StringIO(text, newline="").readlines(), 5, columns) is None
        # the csv path reads the blank gaze cell as NaN
        got = _read_columns(io.StringIO(text, newline=""), 5, columns)
        assert_bit_equal(got, csv_oracle(text, columns))
        assert np.isnan(np.concatenate(got)).sum() == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(_BLOCK_ROWS - 10, _BLOCK_ROWS),
           st.lists(any_line, min_size=1, max_size=14))
    def test_read_columns_matches_csv_across_blocks(self, n_pad, lines):
        # clean rows before the generated ones put a block boundary among them
        text = "0,1.5,-2,3e-5,4\n" * n_pad + "".join(lines)
        got = parse_or_error(_read_columns, io.StringIO(text, newline=""), 5,
                             CANONICAL_COLUMNS)
        want = parse_or_error(csv_oracle, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert_bit_equal(got, want)

    def test_cells_only_float_or_csv_accepts_read_as_before(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(HEADER + '0,0.1,0.2,0,0\n1_0,\x1c0.5,0.2,\u0661,"1.0"\n',
                        encoding="utf-8")
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.timestamps_ms.tolist() == [0.0, 10.0]
        assert rec.gaze_x.tolist() == [0.1, 0.5]  # gaze cells are str.strip()ped
        assert rec.tgt_x.tolist() == [0.0, 1.0]
        assert rec.tgt_y.tolist() == [0.0, 1.0]

    def test_separator_around_target_cell_still_malformed(self, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.1,0.2,0\x1d,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"malformed row at line 3: could not convert"):
            read_recording(path, "canonical", 1000.0)

    @staticmethod
    def blink_recording():
        """Missing gaze runs in every block and on the last row, with -0.0
        among the gaze values."""
        n = 3 * _BLOCK_ROWS + 100
        rng = np.random.default_rng(5)
        gx, gy = rng.normal(size=n), rng.normal(size=n)
        gx[::7] = gy[3::11] = -0.0
        for lo in range(50, n, _BLOCK_ROWS):
            gx[lo:lo + 20] = np.nan
            gy[lo + 10:lo + 30] = np.nan
        gx[-1] = gy[-1] = np.nan
        return make_recording(np.arange(n) * 1.0, gx, gy, np.zeros(n), np.ones(n))

    def test_missing_gaze_in_every_block_skips_csv_path(self, tmp_path, monkeypatch):
        rec = self.blink_recording()
        path = tmp_path / "blinks.csv"
        write_recording(rec, path)

        def no_csv(*args):
            raise AssertionError("block left to the csv path")
        monkeypatch.setattr("gazesim.io._parse_rows", no_csv)
        back = read_recording(path, "canonical", 1000.0)
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            # the same bits: NaN mask, signed zeros and every value
            assert np.array_equal(getattr(back, name).view(np.int64),
                                  getattr(rec, name).view(np.int64)), name

    def test_empty_gaze_cells_read_as_nan(self, tmp_path):
        # another tool's export leaves a missing gaze cell empty: the csv
        # path reads it as the written nan
        rec = self.blink_recording()
        blanked = blank_missing_gaze(canonical_text(rec))
        assert ",," in blanked and "nan" not in blanked
        path = tmp_path / "blank.csv"
        path.write_text(blanked)
        back = read_recording(path, "canonical", 1000.0)
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            assert np.array_equal(getattr(back, name).view(np.int64),
                                  getattr(rec, name).view(np.int64)), name

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(bits64, st.sampled_from(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
         0.1, 1e22, 1e-7, 123456789.0, 2.5e-7])), min_size=5, max_size=60))
    def test_c_parser_reads_each_written_spelling_as_float(self, values):
        # every spelling format_float emits ("nan", "inf", "-inf", "-0.0",
        # shortest reprs) converts in numpy's tokenizer exactly as float()
        texts = list(map(format_float, values))
        rows = [texts[i:i + 5] for i in range(0, len(texts) - 4, 5)]
        lines = [",".join(row) + "\n" for row in rows]
        got = _parse_lines_c(lines, 5, CANONICAL_COLUMNS)
        assert got is not None
        want = [np.array([float(row[i]) for row in rows]) for i in range(5)]
        assert_bit_equal(got, want)

    def test_quoted_cell_spanning_a_block_boundary(self, tmp_path):
        rows = [f"{i},0.1,0.2,0,0\n" for i in range(_BLOCK_ROWS + 2)]
        rows[_BLOCK_ROWS - 1] = f'{_BLOCK_ROWS - 1},0.1,"0.2\n",0,0\n'
        path = tmp_path / "quoted.csv"
        path.write_text(HEADER + "".join(rows))
        rec = read_recording(path, "canonical", 1000.0)
        assert rec.n_samples == _BLOCK_ROWS + 2
        assert rec.gaze_y.tolist() == [0.2] * (_BLOCK_ROWS + 2)

    @pytest.mark.parametrize("body", ["", "\n\r\n\n"])
    def test_no_data_raises_without_numpy_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero usable samples"):
                read_recording(path, "canonical", 1000.0)

    def test_read_peak_memory_stays_near_the_arrays(self, tmp_path):
        n = 17_221
        rng = np.random.default_rng(3)
        t = np.arange(n) * 1.0
        tgt = np.repeat(rng.normal(size=17) * 10, -(-n // 17))[:n]
        rec = make_recording(t, rng.normal(size=n), rng.normal(size=n), tgt, -tgt)
        path = tmp_path / "big.csv"
        write_recording(rec, path)
        tracemalloc.start()
        try:
            read_recording(path, "canonical", 1000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the five arrays are 0.69 MB and the file 1.45 MB; reading it through
        # one whole-file text copy peaks far above this bound
        assert peak < 3 * 5 * n * 8

    def test_recording_takes_the_parsed_arrays_without_a_copy(self, tmp_path, monkeypatch):
        import gazesim.types
        path = tmp_path / "r.csv"
        write_recording(make_recording(np.arange(50.0), np.zeros(50), np.ones(50)), path)
        shared = []
        readonly_f64 = gazesim.types._readonly_f64

        def spy(values):
            out = readonly_f64(values)
            shared.append(out is values)
            return out

        monkeypatch.setattr(gazesim.types, "_readonly_f64", spy)
        read_recording(path, "canonical", 1000.0)
        assert shared == [True] * 5


def quality_table_text(rows) -> str:
    """A quality table file's text: the header, then one line per list of
    cells (a str row is written as it is)."""
    return "".join(line + "\n" for line in [",".join(QUALITY_HEADER)] + [
        row if isinstance(row, str) else ",".join(row) for row in rows])


def per_row_read(path) -> list:
    """The quality-table reader that builds one QualityVector per row: the
    oracle for which tables read_quality_table accepts, what it reads and
    the message it raises."""
    out, seen = [], set()
    for line, row in _table_rows(path, QUALITY_HEADER, "quality table"):
        if row[0] in seen:
            raise ValueError(f"{path}: duplicate recording_id {row[0]!r} at line {line}")
        seen.add(row[0])
        try:
            vector = QualityVector(*map(float, row[1:-1]), n_fixations_used=int(row[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row at line {line}: {exc}") from None
        out.append((row[0], vector))
    if not out:
        raise ValueError(f"{path}: empty quality table")
    return out


class TestQualityTable:
    def test_round_trip(self, tmp_path):
        rows = [("b", qv(acc_h=0.3)), ("a", qv(acc_h=0.1, n=4))]
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows(rows), path)
        back = read_quality_table(path)
        assert back.ids == ("a", "b")  # sorted by id
        assert back.n_fixations_used == (4, 10)
        assert back.features.tolist() == [list(qv(acc_h=0.1).as_tuple()),
                                          list(qv(acc_h=0.3).as_tuple())]
        assert not back.features.flags.writeable

    def test_duplicate_id_rejected(self):
        # a table to write holds distinct ids
        with pytest.raises(ValueError, match="duplicate"):
            QualityTable.from_rows([("a", qv()), ("a", qv())])

    def test_bytes_match_the_row_loop(self, tmp_path):
        # the rows in id order, each cell as format_float writes it
        rows = [("b", qv(acc_h=0.3, prec_h=-0.0, prec_v=0.1)), ("a", qv(acc_h=0.1 + 2 ** -40)),
                ("c,d", qv(temporal=1e-300, n=7))]
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows(rows), path)
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(QUALITY_HEADER)
        for rid, vector in sorted(rows):
            writer.writerow([rid, *map(repr, vector.as_tuple()), str(vector.n_fixations_used)])
        assert path.read_text() == text.getvalue()

    def test_duplicate_id_on_read_names_second_line(self, tmp_path):
        cells = ["0.3", "0.4", "0.5", "0.3", "0.4", "0.5", "0.7", "15"]
        path = tmp_path / "q.csv"
        path.write_text(quality_table_text([["a", *cells], ["b", *cells], "", ["a", *cells]]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: duplicate "
                                             r"recording_id 'a' at line 5$"):
            read_quality_table(path)

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_fixation_count_below_one_names_line(self, tmp_path, count):
        path = tmp_path / "q.csv"
        path.write_text(quality_table_text([
            ["a", "0.3", "0.4", "0.5", "0.3", "0.4", "0.5", "0.7", "15"],
            ["b", "0.3", "0.4", "0.5", "0.3", "0.4", "0.5", "0.7", count]]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed row at "
                                             rf"line 3: n_fixations_used must be an int "
                                             rf">= 1, got {count}$"):
            read_quality_table(path)

    def test_empty_table_on_read(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(quality_table_text(["", ""]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: empty quality table$"):
            read_quality_table(path)

    def test_first_bad_row_in_file_order_across_blocks(self, tmp_path):
        good = ["0.3", "0.4", "0.5", "0.3", "0.4", "0.5", "0.7", "15"]
        rows = [[f"r{i}", *good] for i in range(_BLOCK_ROWS + 5)]
        rows[_BLOCK_ROWS + 2] = f"r{_BLOCK_ROWS + 2},x," + ",".join(good[1:])
        rows[_BLOCK_ROWS + 3] = "short,row"
        path = tmp_path / "q.csv"
        path.write_text(quality_table_text(rows))
        with pytest.raises(ValueError, match=rf"malformed row at line {_BLOCK_ROWS + 4}: "
                                             r"could not convert"):
            read_quality_table(path)

    def test_read_peak_memory_stays_near_the_table(self, tmp_path):
        n = 20_000
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows(
            (f"rec_{i:05d}", qv(acc_h=0.1 + i * 1e-6)) for i in range(n)), path)
        tracemalloc.start()
        try:
            read_quality_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # read a block of rows at a time this peaked at 6.7 MB (the table
        # keeps 2.6 MB); holding every row's cells at once peaked at 18 MB
        assert peak < 10_000_000

    def test_empty_rejected(self):
        # a table to write has at least one row
        with pytest.raises(ValueError, match="at least one"):
            QualityTable.from_rows([])

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows([("a", qv()), ("b", qv())]), path)
        path.write_bytes(path.read_bytes().replace(b"b,", b"\xe9,"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_quality_table(path)

    @pytest.mark.parametrize("cells, got", [
        ("r1,0.3,0.4,0.5,0.3,0.4,0.5,0.7,15,EXTRA,9", 11),
        ("r1,0.3,0.4,0.5,0.3,0.4,0.5,0.7", 8)])
    def test_cell_count_must_match_header(self, tmp_path, cells, got):
        path = tmp_path / "q.csv"
        path.write_text(",".join(QUALITY_HEADER) + "\n" + cells + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed row "
                                             rf"at line 2: expected 9 cells, got {got}$"):
            read_quality_table(path)

    def test_cell_over_csv_field_limit_names_path(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(",".join(QUALITY_HEADER) + "\nr1," + "0" * (csv.field_size_limit() + 1)
                        + ",0,0,0,0,0,0,1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "
                                             r"field larger than field limit"):
            read_quality_table(path)

    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(",".join(QUALITY_HEADER) + "\n\n\nr1,x,0,0,0,0,0,0,1\n")
        with pytest.raises(ValueError, match=r"malformed row at line 4: could not convert"):
            read_quality_table(path)

    def test_header(self, tmp_path):
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows([("a", qv())]), path)
        assert path.read_text().splitlines()[0] == (
            "recording_id,acc_h,acc_v,acc_c,prec_h,prec_v,prec_c,"
            "temporal_prec_ms,n_fixations_used")


# QualityVector's tolerances: the relative quadrature tolerance on prec_c^2
# and the slack on the acc_c bounds, 1e-9 * (1 + acc_c)
_QUADRATURE_TOL = 1e-12
_SLACK = 1e-9

_edge_values = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.25, 1.0, 1e300,
                                -1e-300, -1.0, np.nan, np.inf, -np.inf])
_feature_value = st.one_of(st.floats(0.0, 5.0), _edge_values)


def _ulps(x: float, k: int) -> float:
    """`x` moved `k` representable doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@st.composite
def quality_values(draw) -> list:
    """Seven features in QUALITY_FEATURES order, each at or a few doubles
    from one of QualityVector's boundaries: NaN, +-inf, -0.0, acc_c at
    max(acc_h, acc_v) - slack or at acc_h + acc_v + slack, prec_c on the
    quadrature tolerance."""
    acc_h, acc_v, prec_h, prec_v, temporal = (draw(_feature_value) for _ in range(5))
    with np.errstate(all="ignore"):
        # acc_c solves acc_c = bound -+ 1e-9 * (1 + acc_c) at each bound
        lo, hi = max(acc_h, acc_v), acc_h + acc_v
        acc_c = draw(st.sampled_from([(lo - _SLACK) / (1 + _SLACK),
                                      (hi + _SLACK) / (1 - _SLACK),
                                      (lo + hi) / 2]) | _feature_value)
        root = float(np.sqrt(prec_h * prec_h + prec_v * prec_v))
        prec_c = draw(st.sampled_from([root, root * np.sqrt(1 + _QUADRATURE_TOL),
                                       root * np.sqrt(1 - _QUADRATURE_TOL)]) | _feature_value)
    shift = st.integers(-8, 8)
    return [acc_h, acc_v, _ulps(acc_c, draw(shift)), prec_h, prec_v,
            _ulps(float(prec_c), draw(shift)), temporal]


def _cell(value) -> str:
    return repr(float(value))


_count = st.one_of(st.integers(-3, 40), st.sampled_from([2.5, True, np.int64(3)]))
_count_cell = st.one_of(st.integers(-3, 40).map(str),
                        st.sampled_from(["2.5", "x", "", " 3", "+2", "1_0"]))
_odd_feature_cell = st.sampled_from(["x", "", "1_0", " 0.5 ", "nan", "-inf"])
_table_line = st.one_of(
    st.builds(lambda rid, values, odd, count: [rid, *(odd or map(_cell, values)), count],
              st.sampled_from("abcdef"), quality_values(),
              st.none() | st.lists(_odd_feature_cell, min_size=7, max_size=7), _count_cell),
    st.sampled_from(["", "short,row"]))


class TestQualityTableChecks:
    """QualityTable checks QualityVector's invariants a column at a time;
    the reader names a failing line by re-running the per-row loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(quality_values(), _count), min_size=1, max_size=6))
    def test_table_builds_exactly_when_every_row_would(self, rows):
        def builds(make):
            try:
                make()
            except ValueError:
                return False
            return True

        expected = all(builds(lambda: QualityVector(*values, n_fixations_used=count))
                       for values, count in rows)
        ids = [f"r{i}" for i in range(len(rows))]
        assert builds(lambda: QualityTable(ids, [v for v, _ in rows],
                                           [c for _, c in rows])) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_table_line, max_size=6))
    def test_reader_matches_per_row_loop(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "property_quality.csv"
        path.write_text(quality_table_text(lines))

        def outcome(read):
            try:
                table = read(path)
            except ValueError as exc:
                return "error", str(exc)
            if isinstance(table, list):  # per_row_read's (id, QualityVector) rows
                table = QualityTable.from_rows(table)
            return "read", table.ids, table.features.tobytes(), table.n_fixations_used

        assert outcome(read_quality_table) == outcome(per_row_read)


class TestByteOrderMark:
    """A UTF-8 byte order mark before the header is skipped: each kind of
    file reads equal to its copy without one."""

    # the first column, which a byte order mark would rename, is the time column
    LAYOUT_TEXT = {
        "canonical": "t_ms,gaze_x_dva,gaze_y_dva,tgt_x_dva,tgt_y_dva\n"
                     "0,0.1,0.2,0,0\n4.2,0.15,,0,0\n7.9,0.2,0.3,1,0\n",
        "eyelink-export": "n,x,y,dP,xT,yT\n"
                          "0,1.5,2.5,800,3,4\n4,1.6,2.6,801,3,4\n9,1.7,2.7,802,3,4\n",
        "vr-export": "time_s,gaze_x_deg,gaze_y_deg,target_x_deg,target_y_deg\n"
                     "0.0,1,2,0,0\n0.0041,1.1,2.1,0,0\n0.0079,1.2,2.2,0,0\n",
    }

    @pytest.mark.parametrize("format_tag", list(LAYOUT_TEXT))
    def test_recording(self, tmp_path, format_tag):
        path = tmp_path / "r.csv"
        path.write_text(self.LAYOUT_TEXT[format_tag])
        plain = read_recording(path, format_tag, 250.0)
        bom = read_recording(with_bom(path), format_tag, 250.0)
        for name in ("timestamps_ms", "gaze_x", "gaze_y", "tgt_x", "tgt_y"):
            np.testing.assert_array_equal(getattr(bom, name), getattr(plain, name))

    def test_quality_table(self, tmp_path):
        path = tmp_path / "q.csv"
        write_quality_table(QualityTable.from_rows([("b", qv(acc_h=0.3)), ("a", qv(n=4))]),
                            path)
        plain, bom = read_quality_table(path), read_quality_table(with_bom(path))
        assert bom.ids == plain.ids and bom.n_fixations_used == plain.n_fixations_used
        assert bom.features.tobytes() == plain.features.tobytes()

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest([ManifestEntry("r1", "recs/r1.csv", "canonical", 1000.0),
                        ManifestEntry("r2", "r2.csv", "vr-export", 250.0)], path)
        assert read_manifest(with_bom(path)) == read_manifest(path)


class TestAtomicWrite:
    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(path, "text")
        assert info.value.filename == str(path)
        assert str(info.value) == f"[Errno 2] No such file or directory: {str(path)!r}"
        assert not (tmp_path / "missing").exists()

    def test_failed_replace_names_the_path_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(path, "text")
        assert info.value.filename == str(path) and ".tmp." not in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old")
        atomic_write_text(path, ["new ", "text"])
        assert path.read_text() == "new text"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("replaced", [False, True], ids=["new", "replaced"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode, replaced):
        # as a file that open() creates gets, not mkstemp's 0600
        path = tmp_path / "out.csv"
        if replaced:
            path.write_text("old")
            path.chmod(0o640)
        old = os.umask(umask)
        try:
            atomic_write_text(path, "text")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == "text"


class TestManifest:
    def test_round_trip_and_relative_paths(self, tmp_path):
        entries = [ManifestEntry("r1", "recs/r1.csv", "canonical", 1000.0),
                   ManifestEntry("r2", str(tmp_path / "abs.csv"), "vr-export", 250.0)]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert back[0].path == str(tmp_path / "recs" / "r1.csv")
        assert back[1].path == str(tmp_path / "abs.csv")
        assert back[1].format_tag == "vr-export"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\n"
                        "a,x.csv,canonical,1000\na,y.csv,canonical,1000\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: duplicate "
                                             r"recording_id 'a' at line 3$"):
            read_manifest(path)

    @pytest.mark.parametrize("rid", ["", ".", "..", "../escaped", "sub/id"],
                             ids=["empty", "dot", "dot-dot", "parent", "subdirectory"])
    def test_recording_id_must_be_a_plain_file_name(self, tmp_path, rid):
        # an id names its output files, which must stay in the output directory
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\nb,y.csv,canonical,1000\n"
                        f"{rid},a.csv,canonical,1000\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: recording_id "
                                             rf"{re.escape(repr(rid))} at line 3 is not a "
                                             r"plain file name$"):
            read_manifest(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"recording_id,path,format_tag,rate_hz\n"
                         b"caf\xe9,x.csv,canonical,1000\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_manifest(path)

    @pytest.mark.parametrize("cells, got", [("a,x.csv,canonical,1000,EXTRA", 5),
                                            ("a,x.csv,canonical", 3)])
    def test_cell_count_must_match_header(self, tmp_path, cells, got):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\nb,y.csv,canonical,1000\n"
                        + cells + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed row "
                                             rf"at line 3: expected 4 cells, got {got}$"):
            read_manifest(path)

    def test_non_numeric_rate_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\nb,y.csv,canonical,1000\n"
                        "a,a.csv,canonical,fast\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed row "
                                             r"at line 3: could not convert string to "
                                             r"float: 'fast'$"):
            read_manifest(path)

    def test_cell_over_csv_field_limit_names_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\na,"
                        + "x" * (csv.field_size_limit() + 1) + ",canonical,1000\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "
                                             r"field larger than field limit"):
            read_manifest(path)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\na,x.csv,weird,1000\n")
        with pytest.raises(ValueError, match="format_tag"):
            read_manifest(path)

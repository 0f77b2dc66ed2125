import csv
import io
import re

import numpy as np
import pytest

from gazesim.io import (_BLOCK_ROWS, RECORDING_HEADER, ManifestEntry,
                        format_float, read_manifest, read_quality_table,
                        read_recording, recording_to_csv, write_manifest,
                        write_quality_table, write_recording)
from gazesim.metrics import temporal_precision
from gazesim.types import QualityVector

from conftest import make_recording


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
        assert text.splitlines()[2].split(",")[1] == ""  # empty cell, not dropped
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

    def test_missing_time_column_synthesizes_from_rate(self, tmp_path):
        path = tmp_path / "nt.csv"
        path.write_text("x,y,xT,yT\n1,2,0,0\n1.1,2.1,0,0\n1.2,2.2,0,0\n")
        rec = read_recording(path, "eyelink-export", 250.0)
        assert rec.timestamps_ms.tolist() == [0.0, 4.0, 8.0]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("n,x,xT,yT\n0,1,0,0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_recording(path, "eyelink-export", 1000.0)


def row_loop_csv(rec):
    """Reference writer: one csv.writer row per sample, the byte layout
    recording_to_csv must reproduce."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDING_HEADER)
    for i in range(rec.n_samples):
        writer.writerow([
            format_float(rec.timestamps_ms[i]),
            "" if np.isnan(rec.gaze_x[i]) else format_float(rec.gaze_x[i]),
            "" if np.isnan(rec.gaze_y[i]) else format_float(rec.gaze_y[i]),
            format_float(rec.tgt_x[i]),
            format_float(rec.tgt_y[i]),
        ])
    return buf.getvalue()


EDGE_VALUES = [np.nan, -0.0, 0.0, 1e-300, -1e-300, 1e22, -1e22, 5e-324,
               3.0, -17.0, 0.1, 2.5e-7, 123456789.0, 1.7976931348623157e308]


class TestCsvGolden:
    @pytest.mark.parametrize("n", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_bytes_match_row_loop_and_read_back(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = np.arange(n) * 0.75  # every fourth stamp integral
        t[:2] = [-0.0, 1e-300]
        edge = np.resize(EDGE_VALUES, n)
        gx = np.where(rng.random(n) < 0.5, edge, rng.normal(size=n))
        gy = np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n) * 1e3)
        gx[0], gy[0] = 0.25, -0.0  # at least one usable sample
        tx = np.where(np.isnan(edge), 1e22, edge)
        ty = np.resize([-0.0, 4.0, 1e-300], n)
        rec = make_recording(t, gx, gy, tx, ty)
        text = recording_to_csv(rec)
        assert text == row_loop_csv(rec)

        path = tmp_path / "golden.csv"
        write_recording(rec, path)
        assert path.read_bytes() == text.encode("utf-8")
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
            read_recording(path)
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2")
        with self.malformed(path, 4):
            read_recording(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0\n2,0.2,0.3,0,0\n")
        with self.malformed(path, 3):
            read_recording(path)

    def test_extra_cells(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n2,0.2,0.3,0,0,9\n")
        with self.malformed(path, 4):
            read_recording(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n\n\n1,0.15,0.25,0,0\n\n2,0.2,0.3,0,0\n")
        rec = read_recording(path)
        assert rec.gaze_x.tolist() == [0.1, 0.15, 0.2]
        path.write_text(HEADER + "0,0.1,0.2,0,0\n\n\n1,0.15,0.25,0,0\n\n2,0.2,x,0,0\n")
        with self.malformed(path, 7):
            read_recording(path)

    def test_first_bad_row_in_file_order_across_blocks(self, tmp_path):
        rows = [f"{i},0.1,0.2,0,0\n" for i in range(2 * _BLOCK_ROWS + 10)]
        rows[_BLOCK_ROWS + 5] = f"{_BLOCK_ROWS + 5},0.1,0.2,0\n"
        rows[_BLOCK_ROWS + 3] = f"{_BLOCK_ROWS + 3},0.1,oops,0,0\n"
        rows[2 * _BLOCK_ROWS + 1] = "bad\n"
        path = tmp_path / "blocks.csv"
        path.write_text(HEADER + "".join(rows))
        with self.malformed(path, _BLOCK_ROWS + 5):
            read_recording(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + b"0,0.1,0.2,0,0\n1,0.15\xe9,0.25,0,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_recording(path)

    def test_non_monotone_names_path_and_sample_index(self, tmp_path):
        path = tmp_path / "backwards.csv"
        path.write_text(HEADER + "0,0.1,0.2,0,0\n1,0.15,0.25,0,0\n"
                                 "0.5,0.2,0.3,0,0\n3,0.2,0.3,0,0\n")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: non-monotone at index 2$"):
            read_recording(path)

    def test_whitespace_gaze_cell_is_missing(self, tmp_path):
        path = tmp_path / "wsgaze.csv"
        path.write_text(HEADER + "0, ,0.2,0,0\n1, 0.15 ,0.25,0,0\n")
        rec = read_recording(path)
        assert rec.missing.tolist() == [True, False]
        assert rec.gaze_x[1] == 0.15


class TestQualityTable:
    def test_round_trip(self, tmp_path):
        rows = [("b", qv(acc_h=0.3)), ("a", qv(acc_h=0.1))]
        path = tmp_path / "q.csv"
        write_quality_table(rows, path)
        back = read_quality_table(path)
        assert [rid for rid, _ in back] == ["a", "b"]  # sorted by id
        assert back[0][1] == qv(acc_h=0.1)

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            write_quality_table([("a", qv()), ("a", qv())], tmp_path / "q.csv")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            write_quality_table([], tmp_path / "q.csv")

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "q.csv"
        write_quality_table([("a", qv()), ("b", qv())], path)
        path.write_bytes(path.read_bytes().replace(b"b,", b"\xe9,"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_quality_table(path)

    def test_header(self, tmp_path):
        path = tmp_path / "q.csv"
        write_quality_table([("a", qv())], path)
        assert path.read_text().splitlines()[0] == (
            "recording_id,acc_h,acc_v,acc_c,prec_h,prec_v,prec_c,"
            "temporal_prec_ms,n_fixations_used")


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
        with pytest.raises(ValueError, match="duplicate"):
            read_manifest(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"recording_id,path,format_tag,rate_hz\n"
                         b"caf\xe9,x.csv,canonical,1000\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8"):
            read_manifest(path)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("recording_id,path,format_tag,rate_hz\na,x.csv,weird,1000\n")
        with pytest.raises(ValueError, match="format_tag"):
            read_manifest(path)

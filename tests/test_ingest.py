import numpy as np
import pytest

from lowlight_rppg import (
    RawTrace,
    RoiFrame,
    assemble_trace,
    load_trace_csv,
    save_trace_csv,
    spatial_average,
)
from lowlight_rppg.errors import (
    EmptyRoi,
    InvalidHeader,
    MissingFrames,
    NonMonotonicFrames,
    ParseError,
)
from lowlight_rppg.ingest import load_roi_frames, read_csv


def frame(index, pixels):
    return RoiFrame(frame_index=index, pixels=np.array(pixels, dtype=float))


class TestSpatialAverage:
    def test_single_pixel(self):
        assert spatial_average(frame(0, [(10, 20, 30)])).tolist() == [10, 20, 30]

    def test_two_point_mean(self):
        assert spatial_average(frame(0, [(0, 0, 0), (2, 4, 6)])).tolist() == [1, 2, 3]

    def test_brute_force_oracle(self):
        # 100 pixels with channel values k mod 7, checked against an
        # explicit sum/count loop.
        pixels = [((k % 7), (k + 1) % 7, (k + 2) % 7) for k in range(100)]
        expected = []
        for ch in range(3):
            total = 0.0
            for px in pixels:
                total += px[ch]
            expected.append(total / len(pixels))
        got = spatial_average(frame(0, pixels))
        assert np.allclose(got, expected, atol=1e-12)

    def test_empty_roi(self):
        with pytest.raises(EmptyRoi):
            RoiFrame(frame_index=0, pixels=np.empty((0, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pixels = rng.uniform(0, 255, size=(50, 3))
        a = spatial_average(frame(0, pixels))
        b = spatial_average(frame(0, pixels[rng.permutation(50)]))
        assert np.allclose(a, b)

    def test_mean_between_min_and_max(self):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(0, 255, size=(30, 3))
        mean = spatial_average(frame(0, pixels))
        assert np.all(pixels.min(axis=0) <= mean)
        assert np.all(mean <= pixels.max(axis=0))


class TestAssembleTrace:
    def test_three_single_pixel_frames(self):
        frames = [frame(i, [(v, v, v)]) for i, v in enumerate([1, 2, 3])]
        trace = assemble_trace(frames, fs=30.0)
        assert trace.samples.tolist() == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        assert trace.fs == 30.0

    def test_gap_reports_position(self):
        frames = [frame(0, [(1, 1, 1)]), frame(2, [(2, 2, 2)])]
        with pytest.raises(MissingFrames) as exc:
            assemble_trace(frames, fs=30.0)
        assert exc.value.gaps == [1]

    def test_unsorted_frames(self):
        frames = [frame(1, [(1, 1, 1)]), frame(0, [(2, 2, 2)])]
        with pytest.raises(NonMonotonicFrames):
            assemble_trace(frames, fs=30.0)

    def test_duplicate_frames(self):
        frames = [frame(0, [(1, 1, 1)]), frame(0, [(2, 2, 2)])]
        with pytest.raises(NonMonotonicFrames):
            assemble_trace(frames, fs=30.0)

    def test_random_frames_match_per_frame_oracle(self):
        rng = np.random.default_rng(7)
        frames = [frame(i, rng.uniform(0, 255, size=(rng.integers(1, 20), 3)))
                  for i in range(300)]
        trace = assemble_trace(frames, fs=30.0)
        assert len(trace) == 300
        for i, f in enumerate(frames):
            assert np.allclose(trace.samples[i], f.pixels.mean(axis=0))


class TestTraceCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = RawTrace(samples=rng.uniform(0, 255, size=(50, 3)), fs=30.0)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert np.array_equal(loaded.samples, trace.samples)
        assert loaded.fs == trace.fs

    @pytest.mark.parametrize("fs, header", [
        (np.float64(30.0), "# fs=30.0\n"),
        (np.int64(30), "# fs=30\n"),
        (30, "# fs=30\n"),
    ])
    def test_numpy_scalar_header_round_trip(self, tmp_path, fs, header):
        path = tmp_path / "trace.csv"
        save_trace_csv(RawTrace(samples=np.ones((5, 3)), fs=fs), path)
        assert path.read_text().startswith(header + "0,")
        loaded = load_trace_csv(path)
        assert loaded.fs == fs

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs=30\n0,1,2,3\n1,1,x,3\n")
        with pytest.raises(ParseError) as exc:
            load_trace_csv(path)
        assert exc.value.line_number == 3

    def test_nonpositive_fs(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs=0\n0,1,2,3\n1,1,2,3\n")
        with pytest.raises(InvalidHeader):
            load_trace_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3\n1,1,2,3\n")
        with pytest.raises(InvalidHeader):
            load_trace_csv(path)


def test_load_roi_frames(tmp_path):
    (tmp_path / "roi_00000.txt").write_text("10,20,30\n20,40,60\n")
    (tmp_path / "roi_00001.txt").write_text("1,2,3\n")
    frames = load_roi_frames(tmp_path)
    assert [f.frame_index for f in frames] == [0, 1]
    trace_rows = [spatial_average(f).tolist() for f in frames]
    assert trace_rows == [[15, 30, 45], [1, 2, 3]]


def test_load_roi_frames_empty_file_is_empty_roi(tmp_path):
    (tmp_path / "roi_00000.txt").write_text("10,20,30\n")
    (tmp_path / "roi_00001.txt").write_text("# no pixels\n\n")
    with pytest.raises(EmptyRoi):
        load_roi_frames(tmp_path)


def test_load_roi_frames_bad_pixel_names_file_and_line(tmp_path):
    (tmp_path / "roi_00003.txt").write_text("1,2,3\n1,x,3\n")
    with pytest.raises(ParseError, match=r"roi_00003\.txt: line 2: non-numeric"):
        load_roi_frames(tmp_path)


class TestReadCsv:
    def test_headers_rows_and_skipped_lines(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# fs=30\n#note\n\n  \t\n0, 1.5 ,2\n# t0 = 4 \n1,-2e3,7\n")
        headers, rows = read_csv(path)
        assert headers == [(1, "fs", "30"), (6, "t0", " 4")]
        assert rows.shape == (2, 3)
        assert rows.tolist() == [[0.0, 1.5, 2.0], [1.0, -2000.0, 7.0]]

    def test_rows_equal_python_float(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 2))
        texts = [[repr(v), f"{v:.6g}", f"{v:.17e}"] for v in values.ravel().tolist()]
        path = tmp_path / "in.csv"
        path.write_text("".join(",".join(t) + "\n" for t in texts))
        _, rows = read_csv(path)
        assert rows.tolist() == [[float(x) for x in t] for t in texts]

    def test_no_rows(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# fs=30\n\n")
        headers, rows = read_csv(path)
        assert headers == [(1, "fs", "30")] and rows.shape == (0, 0)

    @pytest.mark.parametrize("text, line", [
        ("0,1,2\n1,2\n", 2),
        ("0,1\n\n1,x\n", 3),
        ("0,1,2,3 # x\n", 1),
        ("1_0,1\n", 1),
        ("0,1\n1,,2\n", 2),
        ("0,1\n# c\n1,nan\n", 3),
        ("0,1\n-inf,1\n", 2),
        ("0,1e400\n", 1),
    ], ids=["width", "letter", "trailing-comment", "digit-separator", "empty-field",
            "nan", "minus-inf", "overflow"])
    def test_bad_row_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_csv(path)
        assert exc.value.line_number == line


@pytest.mark.parametrize("row", ["a,1,2,3", "1_0,1,2,3", "nan,1,2,3", "1,1_0,2,3"])
def test_trace_index_and_samples_must_be_numeric_and_finite(tmp_path, row):
    # the old line loop ignored the index column and took "1_0" as 10
    path = tmp_path / "trace.csv"
    path.write_text(f"# fs=30\n0,1,2,3\n{row}\n")
    with pytest.raises(ParseError) as exc:
        load_trace_csv(path)
    assert exc.value.line_number == 3

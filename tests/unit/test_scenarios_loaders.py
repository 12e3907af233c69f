"""Unit tests for the external-trace loaders (repro.scenarios.loaders)."""

import gzip

import pytest

from repro.scenarios.loaders import (
    ConversionReport,
    convert_trace,
    detect_format,
    iter_champsim,
    iter_csv,
    load_external,
    split_threads,
)
from repro.workloads.trace import Trace


def write(path, text):
    if str(path).endswith(".gz"):
        with gzip.open(str(path), "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text)
    return str(path)


class TestChampsim:
    def test_two_field_lines_use_default_gap(self, tmp_path):
        path = write(tmp_path / "t.trace", "0x1000 R\n0x1040 W\n")
        records = list(iter_champsim(path, line_size=64, default_gap=7))
        assert records == [(7, 0x40, False, 0), (7, 0x41, True, 0)]

    def test_instruction_counts_derive_gaps(self, tmp_path):
        path = write(tmp_path / "t.trace",
                     "10 0x1000 L\n11 0x1040 L\n20 0x1080 S\n")
        gaps = [r[0] for r in iter_champsim(path, default_gap=5)]
        # first access uses the default; then count deltas minus one
        assert gaps == [5, 0, 8]

    def test_backwards_count_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", "10 0x1000 L\n5 0x1040 L\n")
        with pytest.raises(ValueError, match="goes backwards"):
            list(iter_champsim(path))

    def test_line_size_rebasing(self, tmp_path):
        path = write(tmp_path / "t.trace", "0x1000 R\n")
        assert next(iter_champsim(path, line_size=128))[1] == 0x1000 >> 7
        assert next(iter_champsim(path, line_size=32))[1] == 0x1000 >> 5

    def test_non_power_of_two_line_size_rejected(self, tmp_path):
        path = write(tmp_path / "t.trace", "0x1000 R\n")
        with pytest.raises(ValueError, match="power of two"):
            list(iter_champsim(path, line_size=48))

    def test_bad_type_names_file_and_line(self, tmp_path):
        path = write(tmp_path / "t.trace", "0x1000 R\n0x1040 Q\n")
        with pytest.raises(ValueError) as err:
            list(iter_champsim(path))
        assert str(path) in str(err.value)
        assert ":2:" in str(err.value)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path / "t.trace", "# hdr\n\n0x1000 R\n")
        assert len(list(iter_champsim(path))) == 1

    def test_decimal_and_bare_hex_addresses(self, tmp_path):
        path = write(tmp_path / "t.trace", "4096 R\nfa0 R\n")
        lines = [r[1] for r in iter_champsim(path, line_size=64)]
        assert lines == [4096 >> 6, 0xFA0 >> 6]


class TestCsv:
    def test_basic_rows_with_tid(self, tmp_path):
        path = write(tmp_path / "t.csv", "0x1000,R,0\n0x2000,W,1\n")
        records = list(iter_csv(path, default_gap=3))
        assert records == [(3, 0x40, False, 0), (3, 0x80, True, 1)]

    def test_header_row_skipped(self, tmp_path):
        path = write(tmp_path / "t.csv", "addr,rw,tid\n0x1000,R,0\n")
        assert len(list(iter_csv(path))) == 1

    def test_bad_address_after_data_is_error(self, tmp_path):
        path = write(tmp_path / "t.csv", "0x1000,R\nnope,R\n")
        with pytest.raises(ValueError, match="bad address"):
            list(iter_csv(path))

    def test_negative_tid_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "0x1000,R,-2\n")
        with pytest.raises(ValueError, match="negative tid"):
            list(iter_csv(path))

    def test_gzipped_csv(self, tmp_path):
        path = write(tmp_path / "t.csv.gz", "0x1000,R\n0x1040,W\n")
        assert len(list(iter_csv(path))) == 2


class TestDetectFormat:
    def test_csv_suffixes(self):
        assert detect_format("a.csv") == "csv"
        assert detect_format("a.CSV.GZ") == "csv"

    def test_everything_else_is_champsim(self):
        assert detect_format("a.trace") == "champsim"
        assert detect_format("a.txt.gz") == "champsim"


class TestConvert:
    def test_roundtrip_through_internal_format(self, tmp_path):
        source = write(tmp_path / "t.csv", "0x1000,R\n0x1040,W\n0x2000,R\n")
        output = str(tmp_path / "t.trace")
        report = convert_trace(source, output, default_gap=2)
        assert isinstance(report, ConversionReport)
        assert report.records == 3
        assert report.writes == 1
        loaded = Trace.load(output)
        assert loaded.records == [(2, 0x40, False), (2, 0x41, True),
                                  (2, 0x80, False)]

    def test_gzip_output(self, tmp_path):
        source = write(tmp_path / "t.csv", "0x1000,R\n")
        output = str(tmp_path / "t.trace.gz")
        convert_trace(source, output)
        assert Trace.load(output).records == [(20, 0x40, False)]

    def test_limit_caps_conversion(self, tmp_path):
        source = write(tmp_path / "t.csv",
                       "".join(f"{hex(4096 + 64 * i)},R\n" for i in range(9)))
        output = str(tmp_path / "t.trace")
        assert convert_trace(source, output, limit=4).records == 4
        assert len(Trace.load(output)) == 4

    def test_empty_input_rejected(self, tmp_path):
        source = write(tmp_path / "t.csv", "# nothing\n")
        with pytest.raises(ValueError, match="no trace records"):
            convert_trace(source, str(tmp_path / "o.trace"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @pytest.mark.parametrize("name", ["o.trace", "o.trace.gz"])
    def test_malformed_record_leaves_no_file(self, tmp_path, name):
        # the bad record comes after good ones were already written out
        source = write(tmp_path / "t.csv", "0x1000,R\n0x1040,W\nnope,R\n")
        with pytest.raises(ValueError, match="bad address"):
            convert_trace(source, str(tmp_path / name))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_unknown_format_rejected(self, tmp_path):
        source = write(tmp_path / "t.csv", "0x1000,R\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            convert_trace(source, str(tmp_path / "o.trace"), fmt="vcd")

    def test_summary_mentions_counts(self, tmp_path):
        source = write(tmp_path / "t.csv", "0x1000,R\n0x1040,W\n")
        report = convert_trace(source, str(tmp_path / "o.trace"))
        assert "2 records" in report.summary()


class TestLoadExternalAndSplit:
    def test_load_external_returns_trace(self, tmp_path):
        path = write(tmp_path / "t.trace", "0x1000 R\n0x1040 W\n")
        trace = load_external(path, name="ext")
        assert trace.name == "ext"
        assert trace.records == [(20, 0x40, False), (20, 0x41, True)]

    def test_split_threads(self, tmp_path):
        path = write(tmp_path / "t.csv",
                     "0x1000,R,0\n0x2000,R,1\n0x1040,W,0\n")
        by_tid = split_threads(iter_csv(path), name="smt")
        assert sorted(by_tid) == [0, 1]
        assert by_tid[0].records == [(20, 0x40, False), (20, 0x41, True)]
        assert by_tid[1].name == "smt#t1"

"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import SyntheticConfig, generate_dataset
from repro.io import read_mgf, write_mgf


@pytest.fixture(scope="module")
def mgf_path(tmp_path_factory):
    data = generate_dataset(
        SyntheticConfig(
            num_peptides=8,
            replicates_per_peptide=5,
            peptides_per_mass_group=1,
            seed=5,
        )
    )
    path = tmp_path_factory.mktemp("cli") / "input.mgf"
    write_mgf(data.spectra, path)
    return path


class TestClusterCommand:
    def test_basic_run(self, mgf_path, capsys):
        assert main(["cluster", str(mgf_path), "--threshold", "0.35",
                     "--dim", "1024"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out

    def test_writes_representatives(self, mgf_path, tmp_path, capsys):
        output = tmp_path / "reps.mgf"
        assert main([
            "cluster", str(mgf_path), "-o", str(output),
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        representatives = list(read_mgf(output))
        assert 0 < len(representatives) <= 40

    def test_writes_consensus(self, mgf_path, tmp_path):
        output = tmp_path / "consensus.mgf"
        assert main([
            "cluster", str(mgf_path), "-o", str(output), "--consensus",
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        assert output.exists()

    def test_writes_assignments_tsv(self, mgf_path, tmp_path):
        tsv = tmp_path / "assignments.tsv"
        assert main([
            "cluster", str(mgf_path), "--assignments", str(tsv),
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "identifier\tprecursor_mz\tcharge\tcluster"
        assert len(lines) == 41  # header + 40 spectra

    def test_summary_table(self, mgf_path, capsys):
        assert main([
            "cluster", str(mgf_path), "--summary",
            "--threshold", "0.35", "--dim", "1024",
        ]) == 0
        out = capsys.readouterr().out
        assert "purity" in out
        assert "medoid" in out

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.mgf"
        empty.write_text("")
        assert main(["cluster", str(empty)]) == 1


class TestMissingInput:
    @pytest.mark.parametrize("command", ["cluster", "info", "validate"])
    def test_error_line_not_traceback(self, command, tmp_path, capsys):
        missing = tmp_path / "nope.mgf"
        assert main([command, str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "nope.mgf" in err


class TestInvalidPrecursorInput:
    """Bad precursor headers end the command with one error line."""

    @pytest.mark.parametrize(
        "header", ["PEPMASS=inf", "PEPMASS=nan", "PEPMASS=0", "CHARGE=0"]
    )
    def test_cluster_reports_file_and_line(self, header, tmp_path, capsys):
        bad = tmp_path / "bad.mgf"
        bad.write_text(
            "BEGIN IONS\nTITLE=good\nPEPMASS=500\n150 1\nEND IONS\n"
            f"BEGIN IONS\nTITLE=bad\nPEPMASS=500\n{header}\n150 1\n"
            "END IONS\n"
        )
        assert main(["cluster", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.rstrip().endswith(f"({bad}:11)")
        assert "Traceback" not in err


class TestKernelTierFlagRemoved:
    """The packed-bit kernels have one implementation; no flag picks it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "repo", "input.mgf"],
            ["query", "repo", "input.mgf"],
            ["serve", "repo"],
            ["route", "serve", "map.json"],
        ],
        ids=["ingest", "query", "serve", "route-serve"],
    )
    def test_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--kernel-tier", "numpy"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --kernel-tier numpy" in err


class TestInfoCommand:
    def test_summary(self, mgf_path, capsys):
        assert main(["info", str(mgf_path)]) == 0
        out = capsys.readouterr().out
        assert "format        : mgf" in out
        assert "spectra       : 40" in out
        assert "buckets" in out


class TestValidateCommand:
    def test_clean_file(self, mgf_path, capsys):
        assert main(["validate", str(mgf_path)]) == 0
        out = capsys.readouterr().out
        assert "valid   : 40 (100.0%)" in out

    def test_strict_fails_on_bad_spectra(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgf"
        bad.write_text(
            "BEGIN IONS\nTITLE=bad\nPEPMASS=500\n150 0\n200 0\nEND IONS\n"
        )
        assert main(["validate", str(bad), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "all-zero-intensity" in out


class TestProjectCommand:
    def test_pride_dataset(self, capsys):
        assert main(["project", "PXD000561"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out
        assert "kJ" in out

    def test_explicit_size(self, capsys):
        assert main([
            "project", "--spectra", "1e6", "--gigabytes", "10",
        ]) == 0
        assert "end-to-end" in capsys.readouterr().out

    def test_missing_arguments(self, capsys):
        assert main(["project"]) == 2

    def test_unknown_dataset(self, capsys):
        assert main(["project", "PXD424242"]) == 1
        assert "error" in capsys.readouterr().err


class TestDatasetsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for pride_id in ("PXD001468", "PXD000561"):
            assert pride_id in out

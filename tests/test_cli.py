import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghostpic.cli import build_parser, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGhostsCommand:
    def test_torsion4_ghost_listing(self, capsys):
        code, out, _ = run(
            capsys, "ghosts", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        doc = json.loads(out)
        names = {g["display"] for g in doc["ghosts"]}
        assert {"Gh(P2;P3)", "Gh(S2;I2)"} <= names
        assert doc["bifurcations"] == [
            {
                "child": ["subobject", "P2", "P3", "S3"],
                "parent": ["subobject", "S2", "I2", "S3"],
                "case": 3,
                "splitting_wall": "S1",
                "wall_kind": "subobject-splitting",
            }
        ]


class TestMgsCommand:
    def test_all_sequences(self, capsys):
        code, out, _ = run(
            capsys,
            "mgs",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            "--all",
        )
        assert code == 0
        doc = json.loads(out)
        seqs = [tuple(s["mgs"]) for s in doc["sequences"]]
        assert ("S1", "S3", "I2") in seqs
        assert ("I2", "S3", "P3", "S1") in seqs
        for s in doc["sequences"]:
            assert s["linear_realization"] is not None

    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "mgs", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        assert json.loads(out)["mgs_count"] == 7


class TestPictureCommand:
    def test_rank_two_is_usage_error(self, capsys):
        code, _, err = run(capsys, "picture", "--builtin", "kronecker")
        assert code == 2
        assert "--report" in err

    def test_rank_two_report_fallback(self, capsys):
        code, out, _ = run(capsys, "picture", "--builtin", "kronecker", "--report")
        assert code == 0
        assert json.loads(out)["schema"] == "ghostpic-report/1"

    def test_same_argv_same_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        argv = ["picture", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"]
        assert dispatch(argv + ["--out", str(out1)]) == 0
        assert dispatch(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPathCommand:
    def test_schedule_tokens(self, capsys):
        code, out, _ = run(
            capsys,
            "path",
            "--type-a", "3", "--orient", "LL",
            "--class", "P2,I2,P3,S2,S3",
            "--h", "0,3,1",
            "--k", "1,1,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tokens"] == [
            "S2", "(I2)", "P2", "(P3)", "S3", "Gh(S1;P3)", "Gh(S1;P2)"
        ]

    def test_non_generic_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "path",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            "--h", "0,0,0",
            "--k", "1,1,1",
        )
        assert code == 2
        assert "non-generic" in err

    @pytest.mark.parametrize(
        "h,k", [("-3,1,2", "1,1,1"), ("-1/2,0,1", "1,2,1"), ("2,-1,3", "1,1,2")]
    )
    def test_vector_values_may_start_with_minus(self, capsys, h, k):
        source = ("--type-a", "3", "--orient", "LL", "--class", "P2,I2,P3,S2,S3")
        code, out, err = run(capsys, "path", *source, "--h", h, "--k", k)
        assert code == 0, err
        code_eq, out_eq, _ = run(capsys, "path", *source, f"--h={h}", f"--k={k}")
        assert code_eq == 0 and out == out_eq
        assert json.loads(out)["h"] == [str(Fraction(x)) for x in h.split(",")]

    def test_missing_vector_value_is_still_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "path", "--type-a", "3", "--orient", "LL", "--h", "--k", "1,1,1"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--h" in err


class TestHnCommand:
    def test_layers(self, capsys):
        code, out, _ = run(
            capsys,
            "hn",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            "--mgs", "S1,S3,I2",
            "--module", "P3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["layers"] == [
            {"brick": "S1", "index": 1, "multiplicity": 1},
            {"brick": "I2", "index": 3, "multiplicity": 1},
        ]


class TestCatalogCommand:
    def test_file_round_trip(self, capsys, tmp_path):
        out = tmp_path / "cat.json"
        assert dispatch(["catalog", "--type-a", "3", "--orient", "LL", "--out", str(out)]) == 0
        code, stdout, _ = run(capsys, "catalog", "--catalog", str(out))
        assert code == 0
        assert stdout.strip() == out.read_text().strip()

    def test_chambers_from_file(self, capsys, tmp_path):
        out = tmp_path / "cat.json"
        dispatch(["catalog", "--type-a", "3", "--orient", "LL", "--out", str(out)])
        code, stdout, _ = run(
            capsys, "chambers", "--catalog", str(out), "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        assert len(json.loads(stdout)["chambers"]) == 10


class TestUsageErrors:
    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "chambers", "--class", "S1")
        assert code == 2

    def test_two_sources(self, capsys):
        code, _, _ = run(
            capsys, "chambers", "--type-a", "3", "--orient", "LL", "--builtin", "kronecker"
        )
        assert code == 2

    def test_unknown_brick(self, capsys):
        code, _, err = run(
            capsys, "chambers", "--type-a", "3", "--orient", "LL", "--class", "X9"
        )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2


class TestGuards:
    def test_env_guard_aborts_with_count_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("GHOSTPIC_GUARD", "5")
        code, _, err = run(
            capsys,
            "mgs",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            "--all",
        )
        assert code == 1
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["error"] == "guard-exceeded"
        assert summary["count"] == 7

    def test_env_guard_can_raise_limits(self, capsys, monkeypatch):
        monkeypatch.setenv("GHOSTPIC_GUARD", "10000000")
        code, out, _ = run(
            capsys, "mgs", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        assert json.loads(out)["mgs_count"] == 7


class TestVerifyCommand:
    def test_reduced_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--paths", "20")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) >= 12


class TestMalformedInput:
    def test_guard_empty_means_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("GHOSTPIC_GUARD", "")
        code, out, _ = run(
            capsys, "mgs", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        assert json.loads(out)["mgs_count"] == 7

    @pytest.mark.parametrize("command", ["mgs", "chambers"])
    def test_guard_non_integer_is_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setenv("GHOSTPIC_GUARD", "abc")
        code, out, err = run(
            capsys, command, "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "GHOSTPIC_GUARD" in err

    @pytest.mark.parametrize("h", ["1,2,x", "1,2,1/0"])
    def test_non_rational_vector_is_usage_error(self, capsys, h):
        code, out, err = run(
            capsys,
            "path",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            f"--h={h}",
            "--k=1,1,1",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--h" in err

    @pytest.mark.parametrize(
        "malform,mentions",
        [
            (lambda doc: {**doc, "hom": [[1, 2]]}, "'hom' must be [[id, id, int]"),
            (lambda doc: {**doc, "ses": [["S1", "P2"]]}, "'ses' must be [[id, id, id]"),
            (lambda doc: [1, 2, 3], "must be a JSON object"),
            (lambda doc: {"schema": "x"}, "missing field 'quiver'"),
            (
                lambda doc: {**doc, "indecs": [{**doc["indecs"][0], "name": ["x"]}, *doc["indecs"][1:]]},
                "'indecs' must be [{",
            ),
            (
                lambda doc: {
                    **doc,
                    "subquotients": {
                        mid: [{**p, "tag": 7} for p in pairs]
                        for mid, pairs in doc["subquotients"].items()
                    },
                },
                "'subquotients' must be {",
            ),
            (lambda doc: {**doc, "complete": "no"}, "'complete' must be true or false"),
            (
                lambda doc: {**doc, "hom": [[x, y, float(d)] for x, y, d in doc["hom"]]},
                "'hom' must be [[id, id, int]",
            ),
        ],
        ids=[
            "short-hom-entry",
            "short-ses-entry",
            "not-an-object",
            "missing-quiver",
            "non-string-name",
            "non-string-tag",
            "non-boolean-complete",
            "non-integer-hom",
        ],
    )
    def test_malformed_catalog_is_usage_error(self, capsys, tmp_path, malform, mentions):
        _, good, _ = run(capsys, "catalog", "--builtin", "kronecker")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malform(json.loads(good))))
        code, out, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation")
        assert mentions in err and "Error(" not in err

    def test_seed_is_a_verify_option_only(self, capsys):
        code, out, err = run(
            capsys,
            "chambers",
            "--type-a", "3", "--orient", "LL",
            "--class", "S1,P3,I2,S3",
            "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--seed" in err
        assert build_parser().parse_args(["verify", "--seed", "1"]).seed == 1


class TestBifurcationsOfSelfDualQuotientGhosts:
    def test_class_and_dual_with_nonminimal_quotient_ghosts(self, capsys):
        # both the class and its dual have a non-minimal quotient ghost; the
        # dual pass classifies only the dual's subobject ghosts, so it ends
        code, out, _ = run(
            capsys, "ghosts", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,S3"
        )
        assert code == 0
        doc = json.loads(out)
        assert any(g["kind"] == "quotient" and not g["minimal"] for g in doc["ghosts"])


class TestUnreadablePathsAndEmptyValues:
    def one_line_usage_error(self, capsys, *argv, mentions):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and mentions in err

    def test_catalog_is_a_directory(self, capsys, tmp_path):
        self.one_line_usage_error(capsys, "catalog", "--catalog", str(tmp_path), mentions="catalog")

    def test_catalog_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "\xff"}')
        self.one_line_usage_error(capsys, "catalog", "--catalog", str(bad), mentions="utf-8")

    def test_missing_catalog(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        self.one_line_usage_error(capsys, "catalog", "--catalog", missing, mentions=missing)

    def test_out_is_a_directory(self, capsys, tmp_path):
        self.one_line_usage_error(
            capsys, "catalog", "--type-a", "2", "--orient", "L", "--out", str(tmp_path),
            mentions="--out",
        )

    def test_class_without_names(self, capsys):
        self.one_line_usage_error(
            capsys, "chambers", "--type-a", "3", "--orient", "LL", "--class", ",,,",
            mentions="--class",
        )

    @pytest.mark.parametrize("paths", ["-1", "0"])
    def test_verify_needs_a_positive_path_count(self, capsys, paths):
        self.one_line_usage_error(capsys, "verify", "--paths", paths, mentions="--paths")


class TestClosedStdout:
    def test_reader_closing_early_gets_a_quiet_exit_1(self):
        # the A12 catalog document (~130 kB) overflows the pipe buffer, so the
        # writer is still writing when the reader goes away after one byte
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-m", "ghostpic.cli", "catalog", "--type-a", "12", "--orient", "L" * 11]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

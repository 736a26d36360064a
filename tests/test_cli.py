import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghostpic.cli import build_parser, dispatch
from test_startup import COMMANDS


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


    def test_kronecker_ghost_without_embedding_data(self, capsys):
        # the Kronecker catalog tags no basis; the only epimorphism from M
        # onto S2 is the sequence P1 >-> M ->> S2 itself, so Gh(P1;M) has no
        # case-5 candidate and needs no basis
        code, out, _ = run(capsys, "ghosts", "--builtin", "kronecker", "--class", "S2,M")
        assert code == 0
        ghosts = [(g["display"], g["minimal"], g["domain"]) for g in json.loads(out)["ghosts"]]
        assert ghosts == [("Gh(P1;M)", True, {"equalities": [[1, 0]], "weak": [[1, 1]]})]
        code, _, _ = run(capsys, "picture", "--builtin", "kronecker", "--class", "S2,M", "--report")
        assert code == 0

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

    def test_ext_ghosts_with_report_is_usage_error(self, capsys):
        """--ext-ghosts selects what the SVG picture draws; the report always
        lists extension ghosts, so with --report the flag is refused, not
        ignored."""
        code, out, err = run(capsys, "picture", "--type-a", "3", "--orient", "LL", "--report", "--ext-ghosts")
        assert code == 2
        assert out == ""
        assert err == "error: --ext-ghosts is read only by the SVG picture, not with --report\n"

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
        assert stdout == out.read_text()

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


class TestGuardDetail:
    """A guard abort names the guard and the limit in force."""

    TORSION4 = ("--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3")

    def guard_abort(self, capsys, monkeypatch, limit, *argv):
        monkeypatch.setenv("GHOSTPIC_GUARD", limit)
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1)
        return json.loads(err)

    def test_mgs_guard(self, capsys, monkeypatch):
        summary = self.guard_abort(capsys, monkeypatch, "5", "mgs", *self.TORSION4, "--all")
        assert summary["detail"] == "7 maximal green sequences exceed MGS_GUARD = 5 (GHOSTPIC_GUARD)"

    def test_brick_guard(self, capsys, monkeypatch):
        summary = self.guard_abort(capsys, monkeypatch, "3", "chambers", *self.TORSION4)
        assert summary == {
            "count": 4,
            "detail": "4 bricks exceed BRICK_GUARD = 3 (GHOSTPIC_GUARD)",
            "error": "guard-exceeded",
        }

    @pytest.mark.parametrize(
        "command, count", [(("mgs", "--all"), 7), (("chambers",), 4)], ids=["mgs", "bricks"]
    )
    def test_a_guard_at_its_count_runs_and_one_below_aborts(self, capsys, monkeypatch, command, count):
        """torsion4 has 7 MGS and 4 bricks: a limit equal to the count is
        met, not exceeded."""
        name, *flags = command
        monkeypatch.setenv("GHOSTPIC_GUARD", str(count))
        assert run(capsys, name, *self.TORSION4, *flags)[0] == 0
        summary = self.guard_abort(capsys, monkeypatch, str(count - 1), name, *self.TORSION4, *flags)
        assert summary["count"] == count


class TestVerifyCommand:
    def test_reduced_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--paths", "20")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) >= 12

    def test_a_failed_check_exits_1_with_its_line(self, capsys, tmp_path, monkeypatch):
        import ghostpic.verify
        from ghostpic.verify import CheckResult

        results = [CheckResult("kept", True), CheckResult("broken", False, "first counterexample")]
        monkeypatch.setattr(ghostpic.verify, "run_verify", lambda paths_per_fixture, seed: results)
        code, out, _ = run(capsys, "verify", "--paths", "1")
        assert code == 1
        assert out == "[PASS] kept\n[FAIL] broken  (first counterexample)\n1/2 checks passed\n"
        path = tmp_path / "verify.txt"
        assert dispatch(["verify", "--paths", "1", "--out", str(path)]) == 1
        assert path.read_text() == out


def renamed(doc, old, new):
    """The catalog document with the id `old` renamed `new` in every table."""
    return json.loads(json.dumps(doc).replace(json.dumps(old), json.dumps(new)))


class TestMalformedInput:
    def test_guard_empty_means_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("GHOSTPIC_GUARD", "")
        code, out, _ = run(
            capsys, "mgs", "--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3"
        )
        assert code == 0
        assert json.loads(out)["mgs_count"] == 7

    TORSION4 = ("--type-a", "3", "--orient", "LL", "--class", "S1,P3,I2,S3")
    GUARDED_COMMANDS = {
        "catalog": ("--type-a", "3", "--orient", "LL"),
        "chambers": TORSION4,
        "mgs": TORSION4,
        "ghosts": TORSION4,
        "hn": (*TORSION4, "--mgs", "S1,S3,I2", "--module", "P3"),
        "path": (*TORSION4, "--h=-3,1,2", "--k=1,1,1"),
        "picture": TORSION4,
        "verify": ("--paths", "2"),
    }

    @pytest.mark.parametrize("command", list(GUARDED_COMMANDS))
    def test_guard_non_integer_is_usage_error(self, capsys, monkeypatch, command):
        """GHOSTPIC_GUARD is read once at dispatch, so every subcommand
        refuses a malformed value, whether or not it reads a guard."""
        for value in ("abc", "-1", "0"):
            monkeypatch.setenv("GHOSTPIC_GUARD", value)
            code, out, err = run(capsys, command, *self.GUARDED_COMMANDS[command])
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "GHOSTPIC_GUARD" in err

    @pytest.mark.parametrize(
        "source", [("--builtin", "kronecker"), ("--catalog", "kronecker.json")], ids=["builtin", "catalog"]
    )
    def test_orient_without_type_a_is_usage_error(self, capsys, tmp_path, monkeypatch, source):
        """--orient names a type-A orientation: with another catalog source
        it is refused, not ignored."""
        _, catalog, _ = run(capsys, "catalog", "--builtin", "kronecker")
        (tmp_path / "kronecker.json").write_text(catalog)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "chambers", *source, "--orient", "LL")
        assert code == 2
        assert out == ""
        assert err == "error: --orient is read only with --type-a N\n"

    @pytest.mark.parametrize("cls", ["", " ", ","])
    def test_a_class_naming_no_brick_is_usage_error(self, capsys, cls):
        """An empty --class is refused like a blank one, not read as the
        full class that leaving --class out means."""
        code, out, err = run(capsys, "chambers", "--type-a", "3", "--orient", "LL", "--class", cls)
        assert code == 2
        assert out == ""
        assert err == f"error: --class needs at least one brick name, got {cls!r}\n"

    def test_a_class_naming_a_brick_twice_is_refused(self, capsys):
        code, out, err = run(capsys, "chambers", "--type-a", "2", "--orient", "L", "--class", "S1,S1")
        assert (code, out, err) == (2, "", "error: duplicate bricks in class\n")

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
            # an id is what --class (split at ',') and --module (split at '+')
            # name once stripped, and what a ghost's display joins
            (lambda doc: renamed(doc, "M", "M+X"), "indec id 'M+X' must be nonempty, unpadded and free of"),
            (lambda doc: renamed(doc, "M", ""), "indec id '' must be nonempty"),
            (lambda doc: renamed(doc, "M", "M,X"), "indec id 'M,X' must be nonempty"),
            (lambda doc: renamed(doc, "M", " M"), "indec id ' M' must be nonempty"),
            (lambda doc: {**doc, "hom": [*doc["hom"], ["Z", "P1", 1]]}, "hom names 'Z', which is not in indecs"),
            (
                lambda doc: {**doc, "subquotients": {**doc["subquotients"], "Z": []}},
                "subquotients names 'Z', which is not in indecs",
            ),
            (
                lambda doc: {
                    **doc,
                    "subquotients": {
                        **doc["subquotients"],
                        "P2": [{**p, "quot": ["Z"]} if p["tag"] == "line" else p for p in doc["subquotients"]["P2"]],
                    },
                },
                "subquotients names 'Z', which is not in indecs",
            ),
            (lambda doc: {**doc, "ses": [*doc["ses"], ["Z", "P2", "S2"]]}, "ses names 'Z', which is not in indecs"),
            # a row listed twice is refused: no later row silently wins
            (lambda doc: {**doc, "hom": [["P1", "M", 5], *doc["hom"]]}, "hom lists the pair (P1,M) twice"),
            (lambda doc: {**doc, "ses": [*doc["ses"], doc["ses"][0]]}, "ses lists (P1,M,S2) twice"),
            (
                lambda doc: {
                    **doc,
                    "subquotients": {
                        **doc["subquotients"],
                        "P2": [*doc["subquotients"]["P2"], {"sub": ["P1"], "quot": ["M"], "tag": "again"}],
                    },
                },
                "subquotients of P2 list the pair (P1, M) twice",
            ),
            # a Hom dimension is never negative, whatever the Euler form allows
            (
                lambda doc: {**doc, "hom": [*doc["hom"], ["S2", "P1", -1]]},
                "hom(S2,P1) = -1 is negative, with <dim S2, dim P1> = -2",
            ),
            # a complete catalog is Dynkin: P1 = S1 and S2 alone claimed every
            # closure flag, though Ext^1(S2,S1) is 2-dimensional
            (
                lambda doc: {
                    **doc,
                    "indecs": [m for m in doc["indecs"] if m["id"] in ("P1", "S2")],
                    "subquotients": {m: doc["subquotients"][m] for m in ("P1", "S2")},
                    "hom": [r for r in doc["hom"] if {r[0], r[1]} <= {"P1", "S2"}],
                    "ses": [],
                    "complete": True,
                },
                "a complete catalog lacks the positive root [1, 2]",
            ),
            # refused before any work on vectors of length n
            (
                lambda doc: {
                    "quiver": {"n": 3000, "arrows": []},
                    "indecs": [], "subquotients": {}, "hom": [], "ses": [], "complete": True,
                },
                "a complete catalog must list all 3000 simples, but lists 0",
            ),
            (lambda doc: {**doc, "indecs": [*doc["indecs"], doc["indecs"][0]]}, "violation: duplicate indec ids\n"),
            (
                lambda doc: {**doc, "indecs": [{**doc["indecs"][0], "dim": [1, 1, 1]}, *doc["indecs"][1:]]},
                "violation: M: dimension vector has wrong length\n",
            ),
            # P2 takes the dim of M; both simples are still listed
            (
                lambda doc: {
                    **doc,
                    "indecs": [{**m, "dim": [1, 1]} if m["id"] == "P2" else m for m in doc["indecs"]],
                    "complete": True,
                },
                "violation: a complete catalog repeats a dimension vector\n",
            ),
            (
                lambda doc: {**doc, "subquotients": {m: ps for m, ps in doc["subquotients"].items() if m != "M"}},
                "violation: missing subquotient data for M\n",
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
            "id-with-plus",
            "empty-id",
            "id-with-comma",
            "padded-id",
            "unknown-hom-id",
            "unknown-subquotients-id",
            "unknown-pair-term",
            "unknown-ses-id",
            "repeated-hom-pair",
            "repeated-ses-row",
            "repeated-subquotient-pair",
            "negative-hom",
            "complete-but-not-dynkin",
            "complete-without-its-simples",
            "repeated-id",
            "dim-of-wrong-length",
            "complete-with-a-repeated-dim",
            "missing-subquotients",
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

    @pytest.mark.parametrize(
        "malform,mentions",
        [
            (
                lambda doc: {**doc, "indecs": [{**doc["indecs"][0], "dim": [1.0, 1]}, *doc["indecs"][1:]]},
                "'indecs' must be [{",
            ),
            (
                lambda doc: {**doc, "indecs": [{**doc["indecs"][0], "dim": [True, 1]}, *doc["indecs"][1:]]},
                "'indecs' must be [{",
            ),
            (
                lambda doc: {**doc, "quiver": {**doc["quiver"], "arrows": [[2.0, 1], [2, 1]]}},
                "'quiver' must be {",
            ),
            (
                lambda doc: {**doc, "quiver": {**doc["quiver"], "arrows": [[2, True], [2, 1]]}},
                "'quiver' must be {",
            ),
            (lambda doc: {**doc, "quiver": {**doc["quiver"], "n": True}}, "'quiver' must be {"),
        ],
        ids=["float-dim", "boolean-dim", "float-arrow", "boolean-arrow", "boolean-n"],
    )
    def test_catalog_numbers_must_be_integers(self, capsys, tmp_path, malform, mentions):
        """A number the catalog schema types as int is a JSON integer: a float
        or a JSON true is a schema violation, not a crash or a silent 1."""
        _, good, _ = run(capsys, "catalog", "--builtin", "kronecker")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malform(json.loads(good))))
        code, out, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation")
        assert mentions in err

    @pytest.mark.parametrize(
        "basis", ["12", [1.5], [True], ["x"]], ids=["string", "float", "boolean", "non-number"]
    )
    def test_catalog_basis_entries_must_be_integers(self, capsys, tmp_path, basis):
        """A subquotient basis is a list of JSON integers; any other entry is a
        schema violation, not a value that reaches the ghost conditions."""
        _, good, _ = run(capsys, "catalog", "--type-a", "3", "--orient", "LL")
        doc = json.loads(good)
        first = next(iter(doc["subquotients"]))
        doc["subquotients"][first][0]["basis"] = basis
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation")
        assert "'subquotients' must be {" in err and '"basis": [int, ...]' in err

    @pytest.mark.parametrize("bad", ["off-support", "wrong-size"])
    def test_a_catalog_basis_must_span_its_sub(self, capsys, tmp_path, bad):
        """A subquotient basis is a set of the parent's supported vertices,
        one per dimension of the sub: a vertex outside the support, or a
        basis of the wrong size, is refused instead of silently changing the
        ghost side conditions."""
        _, good, _ = run(capsys, "catalog", "--type-a", "3", "--orient", "LL")
        doc = json.loads(good)
        pairs = next(iter(doc["subquotients"].values()))
        zero = next(p for p in pairs if not p["sub"])
        whole = next(p for p in pairs if not p["quot"])
        zero["basis"] = [99] if bad == "off-support" else whole["basis"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation: subquotient sub{} of ")
        basis = "[99]" if bad == "off-support" else str(whole["basis"])
        assert f"basis {basis} is not dim(sub) = 0 vertices of the support" in err

    def test_a_basis_on_a_parent_that_is_not_thin_is_refused(self, capsys, tmp_path):
        """A basis names one vertex per dimension of the sub, which names a
        subspace only when every entry of the parent's dim is 0 or 1: on the
        Kronecker P2, of dim [2, 1], a basis is refused at load time instead
        of giving its dual a complement of the wrong size."""
        _, good, _ = run(capsys, "catalog", "--builtin", "kronecker")
        doc = json.loads(good)
        next(p for p in doc["subquotients"]["P2"] if p["tag"] == "line")["basis"] = [1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ghosts", "--catalog", str(path), "--class", "P1,P2,M")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation: ")
        assert "subquotient line of P2 has a vertex basis, but dim P2 = [2, 1] is not thin" in err

    @pytest.mark.parametrize(
        "bad",
        ["hom-below-euler", "hom-above-euler", "hom-extra-row", "split-ses", "missing-root", "missing-extension"],
    )
    def test_a_catalog_that_contradicts_its_quiver_is_refused(self, capsys, tmp_path, bad):
        """With the Euler form <x,y> = sum x_i y_i - sum over arrows s->t of
        x_s y_t, hom(X,Y) is at least <dim X, dim Y>, and exactly
        max(<dim X, dim Y>, 0) on a complete catalog; a listed sequence
        A >-> B ->> C has Ext^1(C,A) = hom(C,A) - <dim C, dim A> > 0, and a
        complete catalog holds every positive root and the sequence
        A >-> E ->> C of every A and C with Ext^1(C,A) != 0 and
        hom(A,C) = 0: a catalog that breaks one of these is refused, not
        loaded.  (A stray hom(S2,S3) = 1 made `ghosts` drop Gh(S2;I2) of
        mixed5, whose Hom(A,C) it read as nonzero; without S1 >-> P2 ->> S2,
        the class {S1, S2} was reported extension-closed.)"""
        _, good, _ = run(capsys, "catalog", "--type-a", "3", "--orient", "LL")
        doc = json.loads(good)
        if bad == "hom-below-euler":
            doc["hom"] = [row for row in doc["hom"] if row[:2] != ["S1", "P2"]]
            said = "hom(S1,P2) = 0 is below the Euler form <dim S1, dim P2> = 1"
        elif bad == "hom-above-euler":
            doc["hom"] = [[x, y, 2 if [x, y] == ["S1", "P2"] else d] for x, y, d in doc["hom"]]
            said = "hom(S1,P2) = 2, but a complete catalog has hom = max(<dim S1, dim P2>, 0) = 1"
        elif bad == "hom-extra-row":
            doc["hom"].append(["S2", "S3", 1])
            said = "hom(S2,S3) = 1, but a complete catalog has hom = max(<dim S2, dim S3>, 0) = 0"
        elif bad == "split-ses":
            fake = {"sub": ["S3"], "quot": ["S2"], "basis": [3], "tag": "fake"}
            doc["subquotients"]["I2"].append(fake)
            doc["ses"].append(["S3", "I2", "S2"])
            said = "ses (S3,I2,S2) does not split, but hom(S2,S3) - <dim S2, dim S3> = 0"
        elif bad == "missing-extension":  # S1 >-> P2 ->> S2 and its pair
            doc["subquotients"]["P2"] = [p for p in doc["subquotients"]["P2"] if p["sub"] != ["S1"]]
            doc["ses"].remove(["S1", "P2", "S2"])
            said = (
                "Ext^1(S2,S1) != 0 and hom(S1,S2) = 0, so a complete catalog lists their "
                "nonsplit extension P2 and the ses (S1,P2,S2)"
            )
        else:  # P3 and every entry that names it
            doc["indecs"] = [m for m in doc["indecs"] if m["id"] != "P3"]
            del doc["subquotients"]["P3"]
            for pairs in doc["subquotients"].values():
                pairs[:] = [p for p in pairs if "P3" not in p["sub"] + p["quot"]]
            doc["hom"] = [row for row in doc["hom"] if "P3" not in row]
            doc["ses"] = [row for row in doc["ses"] if "P3" not in row]
            said = "a complete catalog lacks the positive root [1, 1, 1]"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: catalog schema violation: ")
        assert said in err

    def test_a_direct_sum_read_componentwise_must_split(self, capsys, tmp_path):
        """A pair's sub or quot is read summand by summand, which is exact
        only when the summands are copies of one simple or lie on disjoint
        supports that no arrow joins.  Over 1 <- 2 <- 3, the pair
        S1 >-> P3 ->> S2 + S3 has the right dims, but the arrow 3 -> 2 joins
        S2 and S3; loaded, it made `picture --report` fail an internal check
        (exit 1) instead of refusing the document (exit 2)."""
        _, good, _ = run(capsys, "catalog", "--type-a", "3", "--orient", "LL")
        doc = json.loads(good)
        next(p for p in doc["subquotients"]["P3"] if p["sub"] == ["S1"])["quot"] = ["S2", "S3"]
        doc["ses"].remove(["S1", "P3", "I2"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for argv in (["catalog"], ["picture", "--class", "S1,S2,S3,P3", "--report"]):
            code, out, err = run(capsys, *argv, "--catalog", str(path))
            assert code == 2
            assert out == ""
            assert err == (
                "error: catalog schema violation: subquotient sub{1} of P3: the summands of S2+S3 "
                "are neither copies of one simple nor on disjoint supports that no arrow joins\n"
            )

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

    def test_out_empty_is_refused(self, capsys):
        """An empty --out names no file: it is refused like any path that
        cannot be written, not read as "no --out"."""
        self.one_line_usage_error(
            capsys, "catalog", "--type-a", "2", "--orient", "L", "--out", "", mentions="--out ''"
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
        # the reader takes one byte of the A12 catalog document (~130 kB) and
        # closes the pipe; `cli._write` writes the bytes until all are taken,
        # so the write into the closed pipe fails and the exit is 1
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


class TestShortWrites:
    """`cli._write` writes the encoded document until every byte is taken.
    With PYTHONUNBUFFERED=1 stdout's byte layer is a raw FileIO, and a text
    write there drops the count of a short write: a 130,000-byte document
    ending in a newline, read 1 byte at a time by a reader that then
    leaves, gave exit 0.  Each case runs in a child with and without the
    variable set, and with and without the final newline."""

    CHILD = (
        "import sys\n"
        "from ghostpic import cli\n"
        "text = 'x' * 129999 + ('\\n' if sys.argv[1] == 'newline' else 'x')\n"
        "cli.dispatch = lambda argv: cli._write(None, text) or 0\n"
        "cli.main()\n"
    )

    @staticmethod
    def child(end, unbuffered):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-c", TestShortWrites.CHILD, end]
        return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("end", ["newline", "none"])
    def test_a_reader_leaving_early_gets_exit_1(self, end, unbuffered):
        proc = self.child(end, unbuffered)
        assert proc.stdout.read(1) == b"x"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("end", ["newline", "none"])
    def test_a_full_reader_gets_every_byte(self, end, unbuffered):
        out, err = self.child(end, unbuffered).communicate(timeout=60)
        assert (out, err) == (b"x" * 129999 + (b"\n" if end == "newline" else b"x\n"), b"")


class TestOutFile:
    @pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
    def test_out_writes_the_bytes_of_stdout(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out"
        assert dispatch([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")


class TestStdoutClosedBeforeTheStart:
    @pytest.mark.parametrize("command", ["catalog", "chambers", "verify"])
    def test_quiet_exit_1(self, command):
        """The read end of the pipe is closed before the command starts, so
        its first write to stdout fails, whatever the size of its output."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ghostpic.cli", *COMMANDS[command]],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestHashSeed:
    def test_report_bytes_do_not_depend_on_the_hash_seed(self):
        # the full A4-LLL class has extension links that share a child, whose
        # order once followed set iteration and so PYTHONHASHSEED
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "ghostpic.cli", "picture", "--type-a", "4", "--orient", "LLL"]
        outs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": paths, "PYTHONHASHSEED": seed}
            proc = subprocess.run([*argv, "--report"], capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


README = Path(__file__).resolve().parent.parent / "README.md"
SCHEMAS = {
    "chambers": "ghostpic-chambers/1",
    "mgs": "ghostpic-mgs/1",
    "ghosts": "ghostpic-ghosts/1",
    "path": "ghostpic-path/1",
    "hn": "ghostpic-hn/1",
    "picture": "ghostpic-report/1",
}


def readme_commands() -> list[list[str]]:
    """The arguments of each `ghostpic ...` line of the sh block under
    README's "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ghostpic ")]


class TestReadmeExamples:
    def test_every_subcommand_with_a_schema_is_shown(self):
        assert set(SCHEMAS) | {"verify"} <= {argv[0] for argv in readme_commands()}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_runs(self, tmp_path, argv):
        """Each README example exits 0, its output written under tmp_path;
        a JSON document carries its subcommand's schema."""
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv = [*argv[:i], str(tmp_path / argv[i]), *argv[i + 1 :]]
        else:
            argv = [*argv, "--out", str(tmp_path / "out")]
        out = Path(argv[argv.index("--out") + 1])
        assert dispatch(argv) == 0
        text = out.read_text(encoding="utf-8")
        if argv[0] == "verify":
            assert text.endswith(" checks passed\n")
        elif out.suffix == ".svg":
            assert text.startswith("<?xml") and "\n<svg " in text
        else:
            assert json.loads(text)["schema"] == SCHEMAS[argv[0]]

"""Seeded argv fuzzing of the command line.

Random argument lists mix every subcommand and flag with junk values,
unreadable and malformed files, and small catalogs (A1, A2 and the Kronecker
fragment, so each command is quick).  Whatever the argv, `dispatch` must
return an exit code in {0, 1, 2}: no exception escapes and no traceback is
printed.
"""

import random

import pytest

from ghostpic.cli import dispatch

CASES = 400

COMMANDS = ("catalog", "chambers", "mgs", "ghosts", "hn", "path", "picture", "verify")
NAMES = ("S1", "S2", "P1", "P2", "I1", "I2", "M", "X", "")
BAD_FILES = ("latin1.json", "empty.json", "junk.json", "list.json", "missing.json")
JUNK = ("", ",", ",,,", "x", "-1", "0", "1/0", "1,,2", " ", "S1+", "+", "--", "é", "1e3")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert dispatch(["catalog", "--type-a", "2", "--orient", "L", "--out", str(root / "a2.json")]) == 0
    (root / "latin1.json").write_bytes(b'{"name": "\xff\xfe"}')
    (root / "empty.json").write_text("")
    (root / "junk.json").write_text('{"schema": 7, "indecs": [')
    (root / "list.json").write_text("[1, 2, 3]")
    return root


def sources(rng, root):
    if rng.random() < 0.7:
        return rng.choice(
            [
                ["--type-a", "1"],
                ["--type-a", "2", "--orient", rng.choice(["L", "R"])],
                ["--builtin", "kronecker"],
                ["--catalog", str(root / "a2.json")],
            ]
        )
    return rng.choice(
        [
            ["--builtin", rng.choice(["nope", ""])],
            ["--type-a", rng.choice(["2", "-1", "0", "x", "3"])],
            ["--type-a", rng.choice(["-1", "0", "2"]), "--orient", rng.choice(["Q", "", "LL", "l"])],
            ["--catalog", str(root / rng.choice(BAD_FILES))],
            ["--catalog", rng.choice([str(root), "/", ""])],
            ["--type-a", "1", "--builtin", "kronecker"],
            [],
        ]
    )


def csv(rng, size):
    if rng.random() < 0.2:
        return rng.choice(JUNK)
    return ",".join(rng.choice(["-3", "-1", "0", "1", "2", "5/2", "-2/3", "x"]) for _ in range(size))


def names(rng, sep, most):
    return sep.join(rng.sample(NAMES, rng.randint(0, most)))


def random_argv(rng, root):
    command = rng.choice(COMMANDS) if rng.random() < 0.97 else "nope"
    argv = [command]
    if command == "verify":
        argv += ["--paths", rng.choice(["-1", "0", "-100", "x", ""])]
    else:
        argv += sources(rng, root)
    if command != "catalog" and rng.random() < 0.5:
        argv += ["--class", names(rng, ",", 4) if rng.random() < 0.7 else rng.choice(JUNK)]
    if command == "mgs" and rng.random() < 0.5:
        argv.append("--all")
    if command == "path":
        size = rng.choice([1, 2, 2, 3])
        argv += [f"--h={csv(rng, size)}", f"--k={csv(rng, size)}"]
        if rng.random() < 0.3:
            argv.append("--no-ghosts")
    if command == "hn":
        argv += ["--mgs", names(rng, ",", 3), "--module", names(rng, "+", 2)]
    if command == "picture":
        argv += rng.sample(["--report", "--ext-ghosts"], rng.randint(0, 2))
    if rng.random() < 0.15:
        argv += ["--out", rng.choice([str(root / "out.txt"), str(root), "/", str(root / "no" / "out.txt"), ""])]
    if rng.random() < 0.1:
        argv += rng.choice([["--bogus"], ["--seed", "1"], ["-h"], ["--all"], ["extra"], ["--h=1"], ["--mgs", "S1"]])
    return argv


def test_random_argv_exit_codes(files, capsys):
    rng = random.Random(20250)
    codes = set()
    for _ in range(CASES):
        argv = random_argv(rng, files)
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert {0, 2} <= codes

"""Digest the stdout and exit code of every command the `cli` benchmark runs.

Run from the repository root, with the package of the tree to check on the
path:

    PYTHONPATH=src python tests/output_digests.py [SEED ...]

For each seed (3 and 8 by default) the `cli` workload's commands are drawn
by `bench/workloads.py` (`fixture_specs` and `cli_commands`, through its
`generate`), which is imported read-only: no bytecode is written under
`bench/`.  `verify --seed 0` and `verify --seed 3` are added, and each
distinct command runs once, in process, through `ghostpic.cli.dispatch`.
One line `sha256 exit argv` is printed per command, the sha256 that of the
bytes written to stdout (stderr is not digested), then one line with the
digest of all the lines before it.  Run on two trees, the outputs diff equal
iff no command's stdout or exit code moved.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path


def commands(seeds) -> list[list[str]]:
    """The distinct argv of the `cli` workload at each seed, in order, then
    the two verify commands."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    drawn = [c["argv"] for seed in seeds for c in workloads.generate("cli", seed)["commands"]]
    drawn += [["verify", "--seed", "0"], ["verify", "--seed", "3"]]
    return list(map(list, dict.fromkeys(map(tuple, drawn))))


def run(argv) -> tuple[str, int]:
    """The sha256 of what one command writes to stdout, and its exit code."""
    from ghostpic import cli

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.dispatch(argv)
        out.flush()
    return hashlib.sha256(out.buffer.getvalue()).hexdigest(), status


def main(seeds) -> None:
    lines = []
    for argv in commands(seeds):
        digest, status = run(argv)
        lines.append(f"{digest} {status} {' '.join(argv)}")
        print(lines[-1], flush=True)
    print(hashlib.sha256("\n".join(lines).encode()).hexdigest(), "all", len(lines), "commands")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [3, 8])

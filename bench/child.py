"""Child processes of the benchmark.

    python bench/child.py setup WORKLOAD < inputs.json
        Import the package and build the workload's objects, then exit; the
        parent times this from spawn to exit as `setup_s`.

    python bench/child.py cli-trace SPANS_FILE ARGV...
        Run one `ghostpic` command with the layer tracer installed: time the
        import of `ghostpic.cli`, wrap the layers, call `cli.dispatch(ARGV)`,
        append the spans to SPANS_FILE and print the trace aggregates as the
        last line of stderr.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        from workloads import setup_objects

        setup_objects(argv[1], json.load(sys.stdin))
        return 0
    if mode == "cli-trace":
        from tracing import Tracer

        t0 = perf_counter()
        import ghostpic.cli

        import_s = perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        spans_file, command = argv[1], argv[2:]
        code = 1
        try:
            code = ghostpic.cli.dispatch(command)
        finally:
            tracer.uninstall()
            sys.stdout.flush()
            with open(spans_file, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"command": command}) + "\n")
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            agg = tracer.aggregates()
            agg["import_s"] = import_s
            print(json.dumps(agg, sort_keys=True), file=sys.stderr)
        return code
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced run of the fracwave benchmark (a child process of run.py).

    python tracer.py plain|traced SPEC.json RESULT.json

SPEC.json holds {"argvs": [[...], ...]}, the `fracwave` argument lists of one
workload.  The child imports fracwave.cli and replays the argv lists
in-process through fracwave.cli.main.  In `traced` mode it first installs span
wrappers around the layer boundaries (module attributes, replaced from here;
fracwave is not changed).  RESULT.json receives the import time, the replay
wall, the exit codes and every span: name, start, end, parent index and,
where one applies, a point count or an operator key.

The two modes run in separate fresh processes, so that both replays start
from the same state: a fresh interpreter, heap and import.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import traceback

perf = time.perf_counter


def _points(size, arg_index: int):
    def info(*args, **kwargs):
        return {"points": int(size(args[arg_index]))}

    return info


def _operator_key(n, dx, order):
    return {"key": [n, dx, getattr(order, "alpha", order)]}


def _field_points(field, path):
    return {"points": int(field.values.size)}


class Spans:
    """In-memory span recorder.  Single-threaded: the parent of a span is the
    innermost span open when it starts."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, owner, attr: str, label: str, name: str, info=None) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            print(f"warning: {label} is missing; its layer metrics are absent", file=sys.stderr)
            self.absent.append(label)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self.stack[-1] if self.stack else None}
            if info is not None:
                record.update(info(*args, **kwargs))
            self.stack.append(len(self.records))
            self.records.append(record)
            record["start"] = perf()
            try:
                return original(*args, **kwargs)
            finally:
                record["end"] = perf()
                self.stack.pop()

        setattr(owner, attr, wrapper)


def install(spans: Spans, cli) -> None:
    from numpy import size

    solver = sys.modules.get("fracwave.solver")
    verify = sys.modules.get("fracwave.verify")
    for attr in ("load_problem_file", "evaluate_field", "write_field_csv",
                 "check_initial_conditions", "pde_residual",
                 "compare_candidate_forms", "route_equivalence"):
        info = _field_points if attr == "write_field_csv" else None
        spans.wrap(cli, attr, f"cli.{attr}", f"cli.{attr}", info)
    # the expression evaluator, as each module that calls it sees it
    spans.wrap(solver, "evaluate", "solver.evaluate", "expr.evaluate", _points(size, 1))
    spans.wrap(verify, "evaluate", "verify.evaluate", "expr.evaluate", _points(size, 1))
    spans.wrap(getattr(solver, "ClosedFormSolution", None), "evaluate_many",
               "ClosedFormSolution.evaluate_many", "solver.evaluate_many", _points(size, 1))
    spans.wrap(verify, "grid_operator_matrix", "verify.grid_operator_matrix",
               "fracops.grid_operator_matrix", _operator_key)
    spans.wrap(cli, "main", "cli.main", "cli.main")


def replay(cli, argvs: list[list[str]]) -> tuple[float, list[int]]:
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = perf()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception:  # an uncaught error exits the real CLI with 1
                traceback.print_exc()
                codes.append(1)
        wall = perf() - start
    return wall, codes


def main(mode: str, spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        argvs = json.load(fh)["argvs"]
    start = perf()
    import fracwave.cli as cli

    import_s = perf() - start
    spans = Spans()
    if mode == "traced":
        install(spans, cli)
    wall, codes = replay(cli, argvs)
    result = {
        "import_s": import_s,
        "wall_s": wall,
        "codes": codes,
        "absent": spans.absent,
        "spans": spans.records,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

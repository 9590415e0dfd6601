"""Fresh-interpreter side of the ledger.

``python perfledger/child.py suite --out F [--trace] -- ARGS`` runs
``python -m repro.suite ARGS`` (the runner's ``main``) in this fresh
process.  When ``main`` returns it stamps ``time.monotonic()`` (one
clock for every process on Linux, so the driver subtracts its own
spawn stamp), then hashes each rendered experiment's
``canonical_bytes`` and writes both, plus the spans under ``--trace``,
to ``F``.  The hashing runs after the stamp, so it is not timed.

``python perfledger/child.py setup --out F --workload W --root DIR
[--axes JSON]`` imports what workload ``W`` needs and builds its
construction (service app, chunk store, sweep grid), stamps the time
and writes it to ``F``: one ``setup_s`` sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_suite_command(out: Path, trace: bool, suite_args: list[str]) -> int:
    tracer = None
    if trace:
        from perfledger.tracer import Instrumentation, Tracer

        tracer = Tracer()
        Instrumentation(tracer)
    with tracer.span("import") if tracer else nullcontext():
        import repro.suite.runner as runner

    rendered = []
    render = runner.render_experiment

    def capture(experiment, *args, **kwargs):
        rendered.append(experiment)
        return render(experiment, *args, **kwargs)

    runner.render_experiment = capture
    code = runner.main(suite_args)
    end = time.monotonic()
    sys.stdout.flush()

    from repro.engine.store import canonical_bytes

    payload = {
        "code": code,
        "end": end,
        "hashes": {
            exp.exp_id: hashlib.sha256(canonical_bytes(exp)).hexdigest()
            for exp in rendered
        },
        "spans": tracer.spans if tracer else [],
    }
    out.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    return code


def run_setup(out: Path, workload: str, root: Path, axes: str | None) -> int:
    if workload == "paper-regen":
        import repro.suite.runner  # noqa: F401
    elif workload == "service-mix":
        from repro.service.app import ServiceApp

        ServiceApp(root)
    else:
        from repro.engine.store import ChunkStore
        from repro.explore.engine import cost_suite_grid  # noqa: F401
        from repro.explore.pareto import pareto_points  # noqa: F401
        from repro.explore.sweep import Axis, ParameterSweep

        sweep = ParameterSweep(
            "sx4",
            tuple(Axis(a["parameter"], tuple(a["values"])) for a in json.loads(axes)),
            include_presets=True,
        )
        sweep.build()
        ChunkStore(root)
    out.write_text(json.dumps({"end": time.monotonic()}), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfledger/child.py")
    parser.add_argument("mode", choices=("suite", "setup"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--root", type=Path)
    parser.add_argument("--axes")
    own, suite_args = argv, []
    if "--" in argv:
        split = argv.index("--")
        own, suite_args = argv[:split], argv[split + 1:]
    args = parser.parse_args(own)
    if args.mode == "suite":
        return run_suite_command(args.out, args.trace, suite_args)
    return run_setup(args.out, args.workload, args.root, args.axes)


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main(sys.argv[1:]))

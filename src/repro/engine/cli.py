"""Command-line interface for the suite execution engine.

Usage::

    python -m repro.engine run  [ids...] [--jobs N] [--no-cache]
                                [--timeout S] [--verify] [--json]
    python -m repro.engine plan [ids...] [--json]
    python -m repro.engine stats [--json]
    python -m repro.engine gc   [--dry-run]

``stats`` and ``gc`` cover the whole store root: results, explore sweep
chunks and service journals, in the root store and every tenant store.

All commands accept ``--cache-dir`` (default ``.repro-cache``).
``run`` exits 0 only when every experiment produced a result and every
shape check passed; its non-zero exits distinguish the failure kind::

    1   all jobs ran, but a shape check failed
    2   the request itself is invalid (unknown experiment id)
    3   at least one job errored (builder raised)
    4   at least one worker crashed
    5   at least one job timed out

Mixed failures report the highest applicable code.  ``plan``/
``stats``/``gc`` are bookkeeping and exit 0 unless the request is
invalid (exit 2, listing the valid ids).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.engine.executor import EngineReport, JobFailure, run_engine
from repro.engine.plan import plan_suite
from repro.engine.store import DEFAULT_STORE_ROOT, ResultStore, collect_garbage, survey
from repro.suite import EXPERIMENT_IDS, unknown_experiment_ids

__all__ = [
    "main",
    "gc_lines",
    "engine_report_to_dict",
    "validate_experiment_ids",
    "FAILURE_EXIT_CODES",
]

#: ``engine run`` exit code per failure kind (a shape-check failure
#: alone is 1; usage errors are 2; mixed kinds take the max).
FAILURE_EXIT_CODES = {"error": 3, "crash": 4, "timeout": 5}


def validate_experiment_ids(exp_ids: list[str]) -> str | None:
    """An error message naming the valid ids, or None when all are known."""
    unknown = unknown_experiment_ids(exp_ids)
    if not unknown:
        return None
    return (
        f"unknown experiment id(s): {', '.join(sorted(unknown))}\n"
        f"valid ids: {', '.join(EXPERIMENT_IDS)}"
    )


def engine_report_to_dict(report: EngineReport) -> dict:
    """Machine-readable form of an engine run (cache + suite verdicts)."""
    from repro.suite.runner import SuiteReport, suite_report_to_dict

    suite = SuiteReport(
        experiments=report.experiments,
        timings={r.exp_id: r.elapsed_s for r in report.successes},
    )
    return {
        "schema": 1,
        "engine": {
            "jobs": report.jobs,
            "wall_s": report.wall_s,
            "cache": report.cache_counts(),
            "plan": report.plan.counts(),
            "sources": {r.exp_id: r.source for r in report.successes},
            "failures": [
                {
                    "exp_id": f.exp_id,
                    "kind": f.kind,
                    "message": f.message,
                }
                for f in report.failures
            ],
            "resilience": {
                "retry_rounds": report.retry_rounds,
                "serial_fallback": report.serial_fallback,
                "attempts": {
                    exp_id: n for exp_id, n in sorted(report.attempts.items()) if n > 1
                },
            },
        },
        "suite": suite_report_to_dict(suite),
    }


def _add_common(parser: argparse.ArgumentParser, with_ids: bool = True) -> None:
    if with_ids:
        parser.add_argument("ids", nargs="*", metavar="exp_id",
                            help="experiment ids (default: the whole suite)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="store root (default: .repro-cache)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")


def _root(args: argparse.Namespace) -> str:
    return args.cache_dir or DEFAULT_STORE_ROOT


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(_root(args))


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_engine(
        args.ids or None,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        store=_store(args),
        timeout_s=args.timeout,
        verify=args.verify,
    )
    if args.json:
        print(json.dumps(engine_report_to_dict(report), indent=1, sort_keys=True))
    else:
        for result in report.results:
            if isinstance(result, JobFailure):
                print(result.summary_line())
            else:
                tag = "cached  " if result.source == "cache" else "executed"
                print(f"{tag} {result.experiment.summary_line()}")
        print(report.summary())
    checks_ok = all(exp.passed for exp in report.experiments)
    if report.failures:
        return max(FAILURE_EXIT_CODES.get(f.kind, 3) for f in report.failures)
    return 0 if checks_ok else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_suite(_store(args), args.ids or None)
    if args.json:
        payload = {
            "counts": plan.counts(),
            "entries": [
                {"exp_id": e.exp_id, "status": e.status, "key": e.digest.key}
                for e in plan.entries
            ],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for entry in plan.entries:
            print(f"{entry.status:<6} {entry.exp_id:<10} {entry.digest.key[:16]}")
        print(plan.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = survey(_root(args))
    if args.json:
        print(json.dumps(dataclasses.asdict(stats), indent=1, sort_keys=True))
    else:
        for namespace, count in sorted(stats.by_namespace.items()):
            print(f"{namespace:<24} {count} entr{'y' if count == 1 else 'ies'}")
        print(f"store: {stats.summary()}")
    return 0


def gc_lines(root: str, dry_run: bool) -> list[str]:
    """Run the one store gc over ``root`` and its tenant stores; report it."""
    from repro.units import fmt_bytes

    removed = collect_garbage(root, dry_run=dry_run)
    verb = "would remove" if dry_run else "removed"
    q_verb = "would quarantine" if dry_run else "quarantined"
    lines = [
        f"{q_verb if entry.corrupt else verb} {entry.path} ({fmt_bytes(entry.size_bytes)})"
        for entry in removed
    ]
    total = fmt_bytes(sum(entry.size_bytes for entry in removed))
    corrupt = sum(entry.corrupt for entry in removed)
    tail = f", {corrupt} corrupt -> quarantine" if corrupt else ""
    lines.append(
        f"gc: {verb} {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}"
        f" ({total}){tail}"
    )
    return lines


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.service.spool import JobSpool

    print("\n".join(gc_lines(_root(args), args.dry_run)))
    swept = JobSpool(_root(args)).sweep_expired(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc: {verb} {len(swept)} expired service job "
        f"record{'' if len(swept) == 1 else 's'}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Parallel, cached, incremental suite execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the suite through the engine")
    _add_common(p_run)
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1, serial in-process)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result store")
    p_run.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job timeout in seconds")
    p_run.add_argument("--verify", action="store_true",
                       help="re-derive every result serially and assert "
                            "byte-identity (the determinism contract)")

    p_plan = sub.add_parser("plan", help="show hit/miss/stale without running")
    _add_common(p_plan)

    p_stats = sub.add_parser("stats", help="store contents per namespace and liveness")
    _add_common(p_stats, with_ids=False)

    p_gc = sub.add_parser("gc", help="drop cache entries no current digest addresses")
    _add_common(p_gc, with_ids=False)
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed, remove nothing")

    args = parser.parse_args(argv)
    error = validate_experiment_ids(getattr(args, "ids", []) or [])
    if error:
        print(error, file=sys.stderr)
        return 2
    handlers = {"run": _cmd_run, "plan": _cmd_plan, "stats": _cmd_stats,
                "gc": _cmd_gc}
    return handlers[args.command](args)

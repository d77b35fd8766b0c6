"""Command-line harness: workload generation, one-shot runs, sweeps, reports.

Subcommands:

* ``gen``      write a seeded workload file (JSON array of transactions)
* ``schedule`` one-shot schedule+execute of a workload file, with debug dumps
* ``run``      benchmark sweep producing CSV rows (written incrementally)
* ``report``   aggregate rows to medians (csv, json, or gnuplot output)

Exit codes: 0 success, 1 configuration error, 2 invariant violation detected
during a checked run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bench import (
    NON_TERMINATION_FLAG,
    BenchConfig,
    SchedulerKind,
    report,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    run_block,
)
from .binning import bin_oracle
from .conflict import lower_conflict_sets
from .executor import WalletState, check_per_txn_work, execute_serial
from .faults import Site, make_fault_plan
from .scheduler import NonTermination, SchedulerConfigError, Variant
from .txn import dump_workload, load_workload
from .workload import WorkloadSpec, generate_workload

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

THREADS_HELP = (
    "scheduler workers, and the most replay workers; replay uses peers only with"
    " --per-txn-work-ms above 0"
)
WORK_HELP = (
    "simulated work per transaction, finite and >= 0; at 0 replay runs on the calling"
    " thread alone"
)


class InvariantViolation(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; remap to the config code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _crash_point(name: str) -> Site:
    try:
        return Site(name.lower())
    except ValueError:
        raise ValueError(f"unknown crash point: {name!r}")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


# --- gen -------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        n_txns=args.n,
        n_accounts=args.accounts,
        dependency_pct=args.dependency_pct,
        amount_range=(args.amount_min, args.amount_max),
        seed=args.seed,
    )
    _write_output(dump_workload(generate_workload(spec)), args.output)
    return EXIT_OK


# --- schedule ---------------------------------------------------------------


def _cmd_schedule(args: argparse.Namespace) -> int:
    per_txn_work = args.per_txn_work_ms / 1000.0
    check_per_txn_work(per_txn_work)
    txns = load_workload(Path(args.workload).read_text())
    variant = Variant(args.variant)
    faults = make_fault_plan(
        args.threads,
        delayed_pct=args.delayed_pct,
        delay=args.delay_ms / 1000.0,
        crashed_pct=args.crashed_pct,
        crash_point=_crash_point(args.crash_point),
        seed=args.fault_seed,
    )
    out: dict = {"variant": variant.value, "n_txns": len(txns), "num_threads": args.threads}
    try:
        result, final, _, exec_stage = run_block(
            txns, variant, args.threads, faults, per_txn_work, args.watchdog_secs
        )
    except NonTermination as hang:
        out["flags"] = NON_TERMINATION_FLAG
        out["watchdog_secs"] = hang.watchdog_secs
        print(json.dumps(out, indent=2))
        return EXIT_OK

    out.update(
        {
            "num_bins": result.plan.num_bins,
            "phase1_s": result.timing.phase1_s,
            "phase2_s": result.timing.phase2_s,
            "schedule_s": result.timing.total_s,
            "exec_stage_s": exec_stage,
            "cas_retries": result.retries.cas_retries,
            "not_ready_skips": result.retries.not_ready_skips,
        }
    )
    if args.dump_conflicts:
        out["conflicts"] = [sorted(s) for s in lower_conflict_sets(txns)]
    if args.dump_bins:
        out["bins"] = [list(row) for row in result.plan.bin_matrix]
        out["initial_bin"] = result.assignment.initial_bin_list()
    if args.dump_state:
        out["state"] = {str(k): v for k, v in sorted(final.balances.items(), key=lambda kv: str(kv[0]))}

    if args.check:
        _check_run(txns, result, final)
        out["checked"] = True
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _check_run(txns, result, final: WalletState) -> None:
    oracle = bin_oracle(txns)
    if result.assignment.initial_bin_list() != oracle:
        raise InvariantViolation("bin assignment deviates from the serial oracle")
    serial = execute_serial(txns, WalletState())
    if final.balances != serial.balances:
        raise InvariantViolation("parallel final state deviates from serial execution")
    if final.total() != serial.total():
        raise InvariantViolation("balance sum not conserved")


# --- run ---------------------------------------------------------------------


def parse_config_file(text: str) -> dict[str, str]:
    """`key = value` per line; '#' starts a comment; lists are comma-separated."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _numbers(text: str, kind: type) -> tuple:
    return tuple(kind(v.strip()) for v in text.split(",") if v.strip())


def config_keys(run: argparse.ArgumentParser) -> set[str]:
    """The keys a ``run --config`` file may set: its flags' dests (``func`` is its handler)."""
    return set(vars(run.parse_args([]))) - {"config", "output", "func"}


def bench_config(args: argparse.Namespace) -> BenchConfig:
    """The sweep a parsed ``run`` command line asks for."""
    return BenchConfig(
        n_txns_values=_numbers(args.n_txns, int),
        dependency_pct_values=_numbers(args.dependency_pct, float),
        schedulers=_numbers(args.schedulers.lower(), SchedulerKind),
        num_threads=args.num_threads,
        delayed_pct_values=_numbers(args.delayed_pct, float),
        crashed_pct_values=_numbers(args.crashed_pct, float),
        delay_s=args.delay_ms / 1000.0,
        crash_point=_crash_point(args.crash_point),
        repetitions=args.repetitions,
        per_txn_work=args.per_txn_work_ms / 1000.0,
        n_accounts=args.n_accounts,
        amount_range=(args.amount_min, args.amount_max),
        base_seed=args.seed,
        fault_seed=args.fault_seed,
        watchdog_secs=args.watchdog_secs,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = bench_config(args)
    sink = sys.stdout if args.output in (None, "-") else open(args.output, "w")
    try:
        sink.write(rows_to_csv([]))
        sink.flush()

        def on_row(row) -> None:
            sink.write(rows_to_csv([row]).splitlines()[1] + "\n")
            sink.flush()

        run_benchmark(config, on_row=on_row)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK


# --- report -------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    _write_output(report(rows_from_csv(Path(args.rows).read_text()), args.format), args.output)
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``binsched`` parser and its ``run`` subparser, whose dests are the config keys."""
    parser = _Parser(prog="binsched", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a workload file", parents=[], add_help=True)
    gen.add_argument("--n", type=int, required=True, help="number of transactions")
    gen.add_argument("--accounts", type=int, default=100)
    gen.add_argument("--dependency-pct", type=float, default=0.0)
    gen.add_argument("--amount-min", type=int, default=1)
    gen.add_argument("--amount-max", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    sched = sub.add_parser("schedule", help="one-shot schedule and execute")
    sched.add_argument("-w", "--workload", required=True)
    sched.add_argument("--variant", choices=[v.value for v in Variant], default="lockfree")
    sched.add_argument("--threads", type=int, default=8, help=THREADS_HELP)
    sched.add_argument("--delayed-pct", type=float, default=0.0)
    sched.add_argument("--delay-ms", type=float, default=5.0)
    sched.add_argument("--crashed-pct", type=float, default=0.0)
    sched.add_argument("--crash-point", default="phase1_pre_publish")
    sched.add_argument("--fault-seed", type=int, default=0)
    sched.add_argument("--per-txn-work-ms", type=float, default=0.0, help=WORK_HELP)
    sched.add_argument("--watchdog-secs", type=float, default=None)
    sched.add_argument("--dump-conflicts", action="store_true")
    sched.add_argument("--dump-bins", action="store_true")
    sched.add_argument("--dump-state", action="store_true")
    sched.add_argument("--check", action="store_true")
    sched.set_defaults(func=_cmd_schedule)

    run = sub.add_parser("run", help="run a benchmark sweep")
    run.add_argument("--config", default=None, help="key = value config file")
    run.add_argument("--n-txns", default="600", help="comma list")
    run.add_argument("--dependency-pct", default="40", help="comma list")
    run.add_argument("--schedulers", default="serial,lockfree", help="comma list")
    run.add_argument("--threads", dest="num_threads", type=int, default=8, help=THREADS_HELP)
    run.add_argument("--delayed-pct", default="0", help="comma list")
    run.add_argument("--crashed-pct", default="0", help="comma list")
    run.add_argument("--delay-ms", type=float, default=5.0)
    run.add_argument("--crash-point", default="phase1_pre_publish")
    run.add_argument("--reps", dest="repetitions", type=int, default=5)
    run.add_argument("--per-txn-work-ms", type=float, default=0.0, help=WORK_HELP)
    run.add_argument("--accounts", dest="n_accounts", type=int, default=100)
    run.add_argument("--amount-min", type=int, default=1)
    run.add_argument("--amount-max", type=int, default=100)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--fault-seed", type=int, default=0)
    run.add_argument("--watchdog-secs", type=float, default=None)
    run.add_argument("-o", "--output", default=None)
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="aggregate benchmark rows to medians")
    rep.add_argument("rows", help="CSV file produced by 'run'")
    rep.add_argument("--format", choices=["csv", "json", "gnuplot"], default="csv")
    rep.add_argument("-o", "--output", default=None)
    rep.set_defaults(func=_cmd_report)
    return parser, run


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; a ``run --config`` file's values become the ``run`` flags' defaults."""
    parser, run = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.config is not None:
        values = parse_config_file(Path(args.config).read_text())
        unknown = set(values) - config_keys(run)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        run.set_defaults(**values)
        args = parser.parse_args(argv)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SchedulerConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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
import time
from pathlib import Path
from typing import Sequence

from .bench import (
    BenchConfig,
    Experiment,
    SchedulerKind,
    aggregate_rows,
    render_rows,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
)
from .binning import bin_oracle
from .executor import WalletState, execute_plan, execute_serial
from .faults import CRASH_POINTS, Site, make_fault_plan
from .scheduler import NonTermination, SchedulerConfigError, Variant, schedule_with_watchdog
from .txn import dump_workload, load_workload
from .workload import WorkloadSpec, generate_workload

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


class InvariantViolation(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; remap to the config code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _crash_point(name: str) -> Site:
    try:
        site = Site(name.lower())
    except ValueError:
        raise ValueError(f"unknown crash point: {name!r}")
    if site not in CRASH_POINTS:
        raise ValueError(f"{name!r} is not a crash point")
    return site


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


def _build_faults(args: argparse.Namespace, num_threads: int):
    if args.delayed_pct == 0 and args.crashed_pct == 0:
        return None
    return make_fault_plan(
        num_threads,
        delayed_pct=args.delayed_pct,
        delay=args.delay_ms / 1000.0,
        crashed_pct=args.crashed_pct,
        crash_point=_crash_point(args.crash_point),
        seed=args.fault_seed,
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    txns = load_workload(Path(args.workload).read_text())
    variant = Variant(args.variant)
    faults = _build_faults(args, args.threads)
    out: dict = {
        "variant": variant.value,
        "n_txns": len(txns),
        "num_threads": args.threads,
    }
    try:
        result = schedule_with_watchdog(txns, variant, args.threads, faults, args.watchdog_secs)
    except NonTermination as hang:
        out["flags"] = "NON_TERMINATION"
        out["watchdog_secs"] = hang.watchdog_secs
        print(json.dumps(out, indent=2))
        return EXIT_OK

    crashed = len(faults.crashed_workers) if faults is not None else 0
    live_threads = max(1, args.threads - crashed)
    t0 = time.perf_counter()
    final = execute_plan(
        result.plan, txns, WalletState(), live_threads, args.per_txn_work_ms / 1000.0
    )
    exec_stage = time.perf_counter() - t0

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
        out["conflicts"] = result.conflicts.to_lists()
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


_LIST_KEYS = {"n_txns", "dependency_pct", "schedulers", "delayed_pct", "crashed_pct"}


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


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def _config_from_sources(args: argparse.Namespace) -> BenchConfig:
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = parse_config_file(Path(args.config).read_text())
    known = {
        "experiment", "n_txns", "dependency_pct", "schedulers", "num_threads",
        "delayed_pct", "crashed_pct", "delay_ms", "crash_point", "repetitions",
        "per_txn_work_ms", "n_accounts", "amount_min", "amount_max", "seed",
        "fault_seed", "watchdog_secs",
    }
    unknown = set(file_values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_value, key: str, parse, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return parse(file_values[key])
        return default

    experiment = Experiment(pick(args.experiment, "experiment", str, "baseline").lower())
    schedulers_raw = pick(args.schedulers, "schedulers", str, "serial,lockfree")
    schedulers = tuple(SchedulerKind(v.strip().lower()) for v in schedulers_raw.split(","))
    return BenchConfig(
        experiment=experiment,
        n_txns_values=pick(args.n_txns and _ints(args.n_txns), "n_txns", _ints, (600,)),
        dependency_pct_values=pick(
            args.dependency_pct and _floats(args.dependency_pct), "dependency_pct", _floats, (40.0,)
        ),
        schedulers=schedulers,
        num_threads=pick(args.threads, "num_threads", int, 8),
        delayed_pct_values=pick(
            args.delayed_pct and _floats(args.delayed_pct), "delayed_pct", _floats, (0.0,)
        ),
        crashed_pct_values=pick(
            args.crashed_pct and _floats(args.crashed_pct), "crashed_pct", _floats, (0.0,)
        ),
        delay_s=pick(args.delay_ms, "delay_ms", float, 5.0) / 1000.0,
        crash_point=_crash_point(pick(args.crash_point, "crash_point", str, "phase1_pre_publish")),
        repetitions=pick(args.reps, "repetitions", int, 5),
        per_txn_work=pick(args.per_txn_work_ms, "per_txn_work_ms", float, 0.0) / 1000.0,
        n_accounts=pick(args.accounts, "n_accounts", int, 100),
        amount_range=(
            pick(args.amount_min, "amount_min", int, 1),
            pick(args.amount_max, "amount_max", int, 100),
        ),
        base_seed=pick(args.seed, "seed", int, 1),
        fault_seed=pick(args.fault_seed, "fault_seed", int, 0),
        watchdog_secs=pick(args.watchdog_secs, "watchdog_secs", float, None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_sources(args)
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
    rows = rows_from_csv(Path(args.rows).read_text())
    _write_output(render_rows(aggregate_rows(rows), args.format), args.output)
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    sched.add_argument("--threads", type=int, default=8)
    sched.add_argument("--delayed-pct", type=float, default=0.0)
    sched.add_argument("--delay-ms", type=float, default=5.0)
    sched.add_argument("--crashed-pct", type=float, default=0.0)
    sched.add_argument("--crash-point", default="phase1_pre_publish")
    sched.add_argument("--fault-seed", type=int, default=0)
    sched.add_argument("--per-txn-work-ms", type=float, default=0.0)
    sched.add_argument("--watchdog-secs", type=float, default=None)
    sched.add_argument("--dump-conflicts", action="store_true")
    sched.add_argument("--dump-bins", action="store_true")
    sched.add_argument("--dump-state", action="store_true")
    sched.add_argument("--check", action="store_true")
    sched.set_defaults(func=_cmd_schedule)

    run = sub.add_parser("run", help="run a benchmark sweep")
    run.add_argument("--config", default=None, help="key = value config file")
    run.add_argument("--experiment", choices=[e.value for e in Experiment], default=None)
    run.add_argument("--n-txns", dest="n_txns", default=None, help="comma list")
    run.add_argument("--dependency-pct", dest="dependency_pct", default=None, help="comma list")
    run.add_argument("--schedulers", default=None, help="comma list")
    run.add_argument("--threads", type=int, default=None)
    run.add_argument("--delayed-pct", dest="delayed_pct", default=None, help="comma list")
    run.add_argument("--crashed-pct", dest="crashed_pct", default=None, help="comma list")
    run.add_argument("--delay-ms", type=float, default=None)
    run.add_argument("--crash-point", default=None)
    run.add_argument("--reps", type=int, default=None)
    run.add_argument("--per-txn-work-ms", type=float, default=None)
    run.add_argument("--accounts", type=int, default=None)
    run.add_argument("--amount-min", type=int, default=None)
    run.add_argument("--amount-max", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--fault-seed", type=int, default=None)
    run.add_argument("--watchdog-secs", type=float, default=None)
    run.add_argument("-o", "--output", default=None)
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="aggregate benchmark rows to medians")
    rep.add_argument("rows", help="CSV file produced by 'run'")
    rep.add_argument("--format", choices=["csv", "json", "gnuplot"], default="csv")
    rep.add_argument("-o", "--output", default=None)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SchedulerConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

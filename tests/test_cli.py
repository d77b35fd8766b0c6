import dataclasses
import json
import subprocess
import sys

import pytest

from binsched import CSV_HEADER, conflict_sets_oracle, load_workload, rows_from_csv
from binsched.cli import (
    bench_config,
    build_parser,
    config_keys,
    main,
    parse_args,
    parse_config_file,
)


def run_cli(argv):
    return main(argv)


def test_gen_writes_a_loadable_workload(tmp_path):
    out = tmp_path / "block.json"
    code = run_cli(
        ["gen", "--n", "25", "--accounts", "10", "--dependency-pct", "40",
         "--seed", "3", "-o", str(out)]
    )
    assert code == 0
    txns = load_workload(out.read_text())
    assert len(txns) == 25


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(["gen", "--n", "30", "--seed", "9", "-o", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_rejects_bad_spec(capsys):
    assert run_cli(["gen", "--n", "10", "--accounts", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_schedule_with_dumps_and_check(tmp_path, capsys):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "30", "--dependency-pct", "50", "--seed", "2", "-o", str(block)])
    capsys.readouterr()
    code = run_cli(
        ["schedule", "-w", str(block), "--variant", "lockfree", "--threads", "4",
         "--dump-conflicts", "--dump-bins", "--dump-state", "--check"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked"] is True
    assert out["n_txns"] == 30
    assert len(out["initial_bin"]) == 30
    expected = conflict_sets_oracle(load_workload(block.read_text()))
    assert out["conflicts"] == [sorted(s) for s in expected]
    assert sum(len(b) for b in out["bins"]) == 30
    assert sum(out["state"].values()) == 0
    assert out["num_bins"] == len(out["bins"])


def test_schedule_reports_non_termination(tmp_path, capsys):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "40", "--seed", "1", "-o", str(block)])
    capsys.readouterr()
    code = run_cli(
        ["schedule", "-w", str(block), "--variant", "standard", "--threads", "4",
         "--crashed-pct", "25", "--crash-point", "inter_phase", "--watchdog-secs", "0.5"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"] == "NON_TERMINATION"
    assert out["watchdog_secs"] == 0.5


def test_schedule_rejects_a_zero_watchdog(tmp_path, capsys):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "20", "--seed", "1", "-o", str(block)])
    capsys.readouterr()
    code = run_cli(["schedule", "-w", str(block), "--threads", "2", "--watchdog-secs", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "watchdog_secs must be finite and > 0" in captured.err


def test_schedule_check_detects_violation(tmp_path, capsys, monkeypatch):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "10", "--seed", "4", "-o", str(block)])
    capsys.readouterr()
    monkeypatch.setattr("binsched.cli.bin_oracle", lambda txns: [99] * len(txns))
    code = run_cli(["schedule", "-w", str(block), "--check"])
    assert code == 2
    assert "invariant violation" in capsys.readouterr().err


def test_schedule_rejects_a_malformed_workload_without_a_traceback(tmp_path):
    block = tmp_path / "block.json"
    block.write_text(json.dumps([{"id": 0, "from": "A", "to": "B", "amount": "5"}]))
    proc = subprocess.run(
        [sys.executable, "-m", "binsched.cli", "schedule", "-w", str(block), "--threads", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: workload record 0: 'amount' must be int, got '5'\n"


def test_schedule_rejects_a_workload_that_is_not_json(tmp_path):
    block = tmp_path / "block.json"
    block.write_text("nope")
    proc = subprocess.run(
        [sys.executable, "-m", "binsched.cli", "schedule", "-w", str(block), "--threads", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: workload is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"
    )


def test_schedule_rejects_an_interpreter_without_the_gil(tmp_path, capsys, monkeypatch):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "5", "--seed", "1", "-o", str(block)])
    capsys.readouterr()
    monkeypatch.setattr("sys._is_gil_enabled", lambda: False, raising=False)
    code = run_cli(["schedule", "-w", str(block), "--threads", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "GIL" in captured.err


def test_unknown_crash_point_is_config_error(tmp_path, capsys):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "5", "-o", str(block)])
    code = run_cli(["schedule", "-w", str(block), "--crashed-pct", "50", "--crash-point", "nope"])
    assert code == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--crash-point", "bogus"], "error: unknown crash point: 'bogus'\n"),
        (["--delay-ms", "-1"], "error: delay_per_claim must be finite and >= 0\n"),
        (["--delay-ms", "inf"], "error: delay_per_claim must be finite and >= 0\n"),
    ],
    ids=["crash-point", "delay-ms", "delay-ms-inf"],
)
def test_schedule_validates_fault_flags_without_fault_percentages(tmp_path, capsys, flags, message):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "5", "-o", str(block)])
    capsys.readouterr()
    assert run_cli(["schedule", "-w", str(block), "--threads", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("work_ms", ["-1", "nan", "inf"])
def test_schedule_rejects_a_bad_per_txn_work_before_scheduling(
    tmp_path, capsys, monkeypatch, work_ms
):
    block = tmp_path / "block.json"
    run_cli(["gen", "--n", "5", "-o", str(block)])
    capsys.readouterr()
    scheduled = []
    monkeypatch.setattr("binsched.cli.run_block", lambda *args: scheduled.append(args))
    code = run_cli(["schedule", "-w", str(block), "--threads", "2", "--per-txn-work-ms", work_ms])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: per_txn_work must be finite and >= 0\n"
    assert scheduled == []


def test_run_rejects_a_nan_delay_before_any_row(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    code = run_cli(
        ["run", "--delayed-pct", "0,50", "--delay-ms", "nan",
         "--n-txns", "10", "--reps", "1", "--threads", "2", "-o", str(rows_path)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: delay_per_claim must be finite and >= 0\n"
    assert not rows_path.exists()


def test_run_and_report_round_trip(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    code = run_cli(
        ["run", "--n-txns", "15,30,", "--dependency-pct", "0",
         "--schedulers", "serial,lockfree,", "--threads", "2", "--reps", "2",
         "--seed", "7", "-o", str(rows_path)]
    )
    assert code == 0
    text = rows_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    rows = rows_from_csv(text)
    assert len(rows) == 2 * 2 * 2  # points x schedulers x reps

    report_path = tmp_path / "report.csv"
    assert run_cli(["report", str(rows_path), "-o", str(report_path)]) == 0
    aggregated = rows_from_csv(report_path.read_text())
    assert len(aggregated) == 4  # 2 points x 2 schedulers
    assert all(r.rep == 2 for r in aggregated)

    assert run_cli(["report", str(rows_path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert run_cli(["report", str(rows_path), "--format", "gnuplot"]) == 0
    assert "# scheduler:" in capsys.readouterr().out


def test_report_on_a_rows_file_cut_mid_row_fails_cleanly(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(CSV_HEADER + "\nlockfree,600,40.0,4\n")
    assert run_cli(["report", str(rows_path)]) == 1
    fields = len(CSV_HEADER.split(","))
    assert capsys.readouterr().err == f"error: line 2: 4 fields, expected {fields}\n"


def test_report_on_a_rows_file_with_a_bad_value_names_its_line_and_field(tmp_path):
    rows_path = tmp_path / "rows.csv"
    row = "lockfree,abc,40.0,1,2,3,4,0.0,0.0,0.1,6000.0,5,0.01,0.02,0.03,1,0,"
    rows_path.write_text(CSV_HEADER + "\n" + row + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "binsched.cli", "report", str(rows_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2: n_txns: invalid literal for int()")
    assert "Traceback" not in proc.stderr


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        """
        # tiny latency sweep
        n_txns = 12
        dependency_pct = 50
        schedulers = standard, lockfree
        num_threads = 2
        delayed_pct = 0, 50
        delay_ms = 1
        repetitions = 1
        seed = 3
        """
    )
    rows_path = tmp_path / "rows.csv"
    assert run_cli(["run", "--config", str(cfg), "-o", str(rows_path)]) == 0
    rows = rows_from_csv(rows_path.read_text())
    assert len(rows) == 2 * 2  # two delay points x two schedulers
    assert {r.scheduler for r in rows} == {"standard", "lockfree"}


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n_txns = 10\nrepetitions = 3\nschedulers = serial\n")
    rows_path = tmp_path / "rows.csv"
    assert run_cli(["run", "--config", str(cfg), "--reps", "1", "-o", str(rows_path)]) == 0
    assert len(rows_from_csv(rows_path.read_text())) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("experiment = latency\nn_txn = 10\n")
    assert run_cli(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: ['experiment', 'n_txn']\n"


def test_malformed_config_line_rejected(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("repetitions 1\n")
    assert run_cli(["run", "--config", str(cfg)]) == 1


def test_parse_config_file_grammar():
    values = parse_config_file("a = 1\n# comment\nb = x, y # trailing\n\n")
    assert values == {"a": "1", "b": "x, y"}


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "block.json"
    proc = subprocess.run(
        [sys.executable, "-m", "binsched.cli", "gen", "--n", "5", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(load_workload(out.read_text())) == 5


RUN_SETTINGS = {
    "n_txns", "dependency_pct", "schedulers", "num_threads", "delayed_pct",
    "crashed_pct", "delay_ms", "crash_point", "repetitions", "per_txn_work_ms", "n_accounts",
    "amount_min", "amount_max", "seed", "fault_seed", "watchdog_secs",
}


def test_config_keys_are_the_run_flags_dests():
    parser, run = build_parser()
    dests = set(vars(parser.parse_args(["run"]))) - {"command", "func", "config", "output"}
    assert config_keys(run) == dests == RUN_SETTINGS


def test_config_file_and_flags_build_equal_configs(tmp_path):
    # one sweep sets every key, both fault axes included
    settings = {
        "n_txns": ("12, 24", "--n-txns", "12,24"),
        "dependency_pct": ("10, 90", "--dependency-pct", "10,90"),
        "schedulers": ("lockfree, serial", "--schedulers", "lockfree,serial"),
        "num_threads": ("3", "--threads", "3"),
        "delay_ms": ("2", "--delay-ms", "2"),
        "crash_point": ("inter_phase", "--crash-point", "inter_phase"),
        "repetitions": ("2", "--reps", "2"),
        "per_txn_work_ms": ("0.5", "--per-txn-work-ms", "0.5"),
        "n_accounts": ("50", "--accounts", "50"),
        "amount_min": ("2", "--amount-min", "2"),
        "amount_max": ("9", "--amount-max", "9"),
        "seed": ("4", "--seed", "4"),
        "fault_seed": ("6", "--fault-seed", "6"),
        "watchdog_secs": ("7", "--watchdog-secs", "7"),
        "delayed_pct": ("5", "--delayed-pct", "5"),
        "crashed_pct": ("0, 50", "--crashed-pct", "0,50"),
    }
    assert set(settings) == RUN_SETTINGS
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, (value, _, _) in settings.items()))
    flags = [part for _, flag, value in settings.values() for part in (flag, value)]

    from_file = bench_config(parse_args(["run", "--config", str(cfg)]))
    assert from_file == bench_config(parse_args(["run", *flags]))
    default = bench_config(parse_args(["run"]))
    for field in dataclasses.fields(default):
        assert getattr(from_file, field.name) != getattr(default, field.name), field.name

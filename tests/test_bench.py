import functools
import itertools
import time
from pathlib import Path

import pytest

import binsched.bench
from binsched import (
    CRASH_POINTS,
    CSV_HEADER,
    NON_TERMINATION_FLAG,
    BenchConfig,
    BenchRow,
    SchedulerConfigError,
    SchedulerKind,
    Site,
    Variant,
    aggregate_rows,
    render_rows,
    report,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    sweep_points,
)


def small_config(**overrides):
    defaults = dict(
        n_txns_values=(20, 40),
        dependency_pct_values=(0.0,),
        schedulers=(SchedulerKind.SERIAL, SchedulerKind.LOCKFREE),
        num_threads=2,
        repetitions=2,
        base_seed=5,
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


def synthetic_row(**overrides):
    base = dict(
        scheduler="lockfree",
        n_txns=600,
        dependency_pct=40.0,
        cp1=40.0,
        cp2=120.0,
        cp3=60.0,
        num_threads=8,
        delayed_pct=0.0,
        crashed_pct=0.0,
        exec_time_s=1.0,
        throughput_tps=600.0,
        num_bins=12,
        phase1_s=0.2,
        phase2_s=0.1,
        exec_stage_s=0.7,
        seed=1,
        rep=0,
    )
    base.update(overrides)
    return BenchRow(**base)


# --- sweeps and row arithmetic ---------------------------------------------------


def test_baseline_sweep_points():
    config = small_config(n_txns_values=(200, 400), dependency_pct_values=(0.0, 40.0))
    assert sweep_points(config) == [
        (200, 0.0, 0.0, 0.0),
        (200, 40.0, 0.0, 0.0),
        (400, 0.0, 0.0, 0.0),
        (400, 40.0, 0.0, 0.0),
    ]


def test_latency_sweep_points():
    config = small_config(
        n_txns_values=(600,),
        delayed_pct_values=(0.0, 20.0, 40.0),
    )
    assert sweep_points(config) == [(600, 0.0, 0.0, 0.0), (600, 0.0, 20.0, 0.0), (600, 0.0, 40.0, 0.0)]


def test_crash_sweep_points():
    config = small_config(
        schedulers=(SchedulerKind.LOCKFREE,),
        crashed_pct_values=(0.0, 80.0),
    )
    assert sweep_points(config) == [(20, 0.0, 0.0, 0.0), (20, 0.0, 0.0, 80.0), (40, 0.0, 0.0, 0.0), (40, 0.0, 0.0, 80.0)]


def test_row_count_arithmetic():
    config = small_config()
    rows = run_benchmark(config)
    assert len(rows) == len(sweep_points(config)) * len(config.schedulers) * config.repetitions


def test_a_sweep_builds_each_block_once_per_rep(monkeypatch):
    calls = []
    compute = binsched.bench.compute_conflict_params

    def counted(block):
        calls.append(len(block))
        return compute(block)

    monkeypatch.setattr(binsched.bench, "compute_conflict_params", counted)
    config = small_config(
        schedulers=(SchedulerKind.SERIAL, SchedulerKind.STANDARD),
        delayed_pct_values=(0.0, 50.0, 100.0),
        delay_s=0.0001,
    )
    rows = run_benchmark(config)
    # one block per (n_txns, dependency_pct, rep), not one per fault point
    assert sorted(calls) == [20, 20, 40, 40]
    # the same rows as one per sweep point x scheduler x rep
    expected = itertools.product(
        sweep_points(config), [k.value for k in config.schedulers], range(config.repetitions)
    )
    assert sorted(
        ((r.n_txns, r.dependency_pct, r.delayed_pct, r.crashed_pct), r.scheduler, r.rep)
        for r in rows
    ) == sorted(expected)
    # rows arrive grouped by rep; the report does not depend on their order
    points = sweep_points(config)

    def point_then_rep(r):
        return points.index((r.n_txns, r.dependency_pct, r.delayed_pct, r.crashed_pct)), r.rep

    by_point = sorted(rows, key=point_then_rep)
    assert by_point != rows
    for fmt in ("csv", "json", "gnuplot"):
        assert report(rows, fmt) == report(by_point, fmt)


def test_rows_arrive_incrementally():
    seen = []
    rows = run_benchmark(small_config(n_txns_values=(10,), repetitions=1), on_row=seen.append)
    assert seen == rows


def test_throughput_times_exec_time_is_n():
    rows = run_benchmark(small_config(n_txns_values=(30,), repetitions=1))
    for row in rows:
        assert row.throughput_tps * row.exec_time_s == pytest.approx(row.n_txns, rel=1e-9)


def test_exec_time_covers_the_whole_schedule_call(monkeypatch):
    # pool start-up, joins and plan building happen inside the call but
    # outside the scheduler's phase timings; exec_time_s must include them
    schedule = binsched.bench.schedule

    def slow_schedule(*args, **kwargs):
        time.sleep(0.05)
        return schedule(*args, **kwargs)

    monkeypatch.setattr(binsched.bench, "schedule", slow_schedule)
    config = small_config(n_txns_values=(10,), schedulers=(SchedulerKind.LOCKFREE,), repetitions=1)
    (row,) = run_benchmark(config)
    assert row.exec_time_s >= 0.05


@pytest.mark.parametrize("crash_point", CRASH_POINTS, ids=lambda site: site.value)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda variant: variant.value)
def test_crash_sweep_accepted_unless_fatal(variant, crash_point):
    make = functools.partial(
        small_config,
        schedulers=(SchedulerKind.SERIAL, SchedulerKind(variant.value)),
        crash_point=crash_point,
    )
    make()  # without a crash, every variant runs at every crash point
    crash_sweep = functools.partial(make, crashed_pct_values=(0.0, 50.0))
    if crash_point in variant.fatal_crash_sites:
        message = f"^{variant.value} cannot survive a crash at {crash_point.value}$"
        with pytest.raises(ValueError, match=message):
            crash_sweep()
    else:
        assert sweep_points(crash_sweep())[-1] == (40, 0.0, 0.0, 50.0)


@pytest.mark.parametrize(
    "axis",
    ["n_txns_values", "dependency_pct_values", "delayed_pct_values", "crashed_pct_values", "schedulers"],
)
def test_an_empty_axis_is_rejected(axis):
    # an empty axis makes the sweep's product empty: a run would emit no row
    with pytest.raises(ValueError, match="sweep axes and scheduler list must be non-empty"):
        small_config(**{axis: ()})


def test_an_assisted_crash_sweep_at_phase2_pre_cas_runs_unflagged():
    config = small_config(
        schedulers=(SchedulerKind.ASSISTED,),
        n_txns_values=(40,),
        crashed_pct_values=(0.0, 50.0),
        num_threads=4,
        repetitions=1,
        crash_point=Site.PHASE2_PRE_CAS,
    )
    rows = run_benchmark(config)
    assert [r.crashed_pct for r in rows] == [0.0, 50.0]
    assert not any(r.flags for r in rows)
    assert rows[0].num_bins == rows[1].num_bins  # one block, one set of bins


def test_a_sweep_may_vary_both_fault_axes():
    both = functools.partial(
        small_config,
        schedulers=(SchedulerKind.LOCKFREE,),
        n_txns_values=(30,),
        num_threads=4,
        repetitions=1,
        delay_s=0.0001,
    )
    rows = run_benchmark(both(delayed_pct_values=(0.0, 25.0), crashed_pct_values=(0.0, 50.0)))
    assert [(r.delayed_pct, r.crashed_pct) for r in rows] == [
        (0.0, 0.0), (0.0, 50.0), (25.0, 0.0), (25.0, 50.0)
    ]
    assert not any(r.flags for r in rows)
    # 2 delayed + 3 crashed of 4 workers overlap; the sweep's first points would have run
    with pytest.raises(ValueError, match="fault counts overlap"):
        both(delayed_pct_values=(0.0, 50.0), crashed_pct_values=(0.0, 75.0))


@pytest.mark.parametrize("watchdog_secs", [0.0, -1.0])
def test_non_positive_watchdog_rejected_before_any_row(watchdog_secs):
    with pytest.raises(SchedulerConfigError):
        small_config(watchdog_secs=watchdog_secs)


@pytest.mark.parametrize(
    "per_txn_work", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
)
def test_negative_or_nan_per_txn_work_rejected_before_any_row(per_txn_work):
    with pytest.raises(ValueError, match="per_txn_work must be finite and >= 0"):
        small_config(per_txn_work=per_txn_work)


def test_negative_delay_rejected_before_any_row():
    for delay_s in (-0.001, float("inf")):
        with pytest.raises(ValueError, match="delay_per_claim must be finite and >= 0"):
            small_config(delay_s=delay_s)


@pytest.mark.parametrize(
    "axis, scheduler",
    [
        ("delayed_pct_values", SchedulerKind.STANDARD),
        ("crashed_pct_values", SchedulerKind.LOCKFREE),
    ],
    ids=["delayed", "crashed"],
)
def test_out_of_range_fault_pct_rejected_before_any_row(axis, scheduler):
    # the in-range point comes first in the sweep, so a check at run time would emit its rows
    with pytest.raises(ValueError, match=r"percentages must lie in \[0, 100\]"):
        small_config(schedulers=(SchedulerKind.SERIAL, scheduler), **{axis: (0.0, 150.0)})


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("n_txns_values", (50, -1), "n_txns must be >= 0"),
        ("dependency_pct_values", (10.0, 150.0), r"dependency_pct must lie in \[0, 100\]"),
    ],
    ids=["n_txns", "dependency"],
)
def test_out_of_range_workload_rejected_before_any_row(axis, values, message):
    # the in-range point comes first in the sweep, so a check at run time would emit its rows
    with pytest.raises(ValueError, match=message):
        small_config(**{axis: values})


def test_a_crash_sweep_at_one_thread_is_rejected_before_any_row():
    # one thread leaves no worker to crash: its rows would carry a crash label with no crash
    with pytest.raises(ValueError, match="crashed_pct=50 crashes no worker at num_threads=1"):
        small_config(
            schedulers=(SchedulerKind.LOCKFREE,), num_threads=1, crashed_pct_values=(0.0, 50.0)
        )
    small_config(num_threads=1)  # without a crash, one thread runs


def test_crash_experiment_runs_with_dead_threads_excluded():
    config = small_config(
        schedulers=(SchedulerKind.LOCKFREE,),
        n_txns_values=(40,),
        crashed_pct_values=(50.0,),
        num_threads=4,
        repetitions=1,
        crash_point=Site.PHASE1_PRE_PUBLISH,
    )
    rows = run_benchmark(config)
    assert len(rows) == 1
    assert rows[0].crashed_pct == 50.0
    assert not rows[0].flags


def test_watchdog_produces_non_termination_rows():
    # delays large enough that the run cannot beat the watchdog
    config = small_config(
        schedulers=(SchedulerKind.STANDARD,),
        n_txns_values=(40,),
        delayed_pct_values=(100.0,),
        delay_s=0.05,
        num_threads=4,
        repetitions=1,
        watchdog_secs=0.3,
    )
    rows = run_benchmark(config)
    assert len(rows) == 1
    assert rows[0].flags == NON_TERMINATION_FLAG
    assert rows[0].exec_time_s == 0.3


# --- CSV round trip -----------------------------------------------------------------


def test_csv_header_is_bit_exact():
    text = rows_to_csv([])
    assert text.splitlines()[0] == CSV_HEADER


def test_csv_round_trip_on_real_rows():
    rows = run_benchmark(small_config(n_txns_values=(25,), repetitions=1))
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_csv_round_trip_on_awkward_floats():
    rows = [synthetic_row(exec_time_s=1 / 3, throughput_tps=0.1 + 0.2, flags="NON_TERMINATION")]
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        rows_from_csv("a,b,c\n1,2,3\n")


def test_csv_rejects_a_row_cut_short_naming_its_line():
    text = rows_to_csv([synthetic_row(rep=0), synthetic_row(rep=1)])
    cut = text.rstrip("\n").rsplit(",", 5)[0] + "\n"  # the last row loses five fields
    with pytest.raises(ValueError, match="line 3"):
        rows_from_csv(cut)


def test_csv_rejects_a_row_with_an_extra_field():
    lines = rows_to_csv([synthetic_row()]).splitlines()
    with pytest.raises(ValueError, match="line 2"):
        rows_from_csv("\n".join([lines[0], lines[1] + ",1"]) + "\n")


# --- aggregation ------------------------------------------------------------------------


def test_three_reps_collapse_to_one_median_row():
    rows = [
        synthetic_row(rep=0, exec_time_s=1.0, throughput_tps=600.0),
        synthetic_row(rep=1, exec_time_s=5.0, throughput_tps=120.0),
        synthetic_row(rep=2, exec_time_s=2.0, throughput_tps=300.0),
    ]
    aggregated = aggregate_rows(rows)
    assert len(aggregated) == 1
    assert aggregated[0].exec_time_s == 2.0
    assert aggregated[0].throughput_tps == 300.0
    assert aggregated[0].rep == 3


def test_sweep_points_aggregate_in_numeric_order():
    rows = [
        synthetic_row(n_txns=n, dependency_pct=dep)
        for n in (1000, 50, 200)
        for dep in (100.0, 5.0, 40.0)
    ]
    aggregated = aggregate_rows(rows)
    assert [(r.n_txns, r.dependency_pct) for r in aggregated] == [
        (n, dep) for n in (50, 200, 1000) for dep in (5.0, 40.0, 100.0)
    ]


def test_schedulers_aggregate_into_separate_series():
    rows = [synthetic_row(scheduler="serial"), synthetic_row(scheduler="lockfree")]
    aggregated = aggregate_rows(rows)
    assert [r.scheduler for r in aggregated] == ["lockfree", "serial"]


def test_flagged_rows_annotate_but_do_not_vote():
    rows = [
        synthetic_row(rep=0, exec_time_s=1.0),
        synthetic_row(rep=1, exec_time_s=3.0),
        synthetic_row(rep=2, exec_time_s=30.0, flags=NON_TERMINATION_FLAG),
    ]
    aggregated = aggregate_rows(rows)
    assert len(aggregated) == 1
    assert aggregated[0].exec_time_s == 2.0  # median of the clean rows only
    assert aggregated[0].flags == NON_TERMINATION_FLAG
    assert aggregated[0].rep == 2


def test_all_flagged_group_still_reported():
    rows = [synthetic_row(exec_time_s=30.0, flags=NON_TERMINATION_FLAG)]
    aggregated = aggregate_rows(rows)
    assert aggregated[0].flags == NON_TERMINATION_FLAG
    assert aggregated[0].exec_time_s == 30.0


def test_empty_report_rejected():
    with pytest.raises(ValueError):
        aggregate_rows([])


def test_report_csv_round_trips_aggregates():
    rows = [synthetic_row(rep=r, exec_time_s=float(r + 1)) for r in range(3)]
    text = report(rows, "csv")
    assert rows_from_csv(text) == aggregate_rows(rows)


def test_render_json_and_gnuplot():
    rows = [synthetic_row()]
    as_json = render_rows(rows, "json")
    assert '"scheduler": "lockfree"' in as_json
    as_gnuplot = render_rows(rows, "gnuplot")
    assert as_gnuplot.startswith("# scheduler: lockfree")
    with pytest.raises(ValueError):
        render_rows(rows, "yaml")


def test_row_fields_match_csv_header():
    # the header is built from the row's fields; the README states the schema
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    schema = readme.split("The CSV schema is fixed:\n\n```\n", 1)[1].split("\n", 1)[0]
    assert CSV_HEADER == schema

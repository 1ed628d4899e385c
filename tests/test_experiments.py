"""Scenario construction, sweep execution, CSV round trips."""

import io
import re
from unittest import mock

import pytest

from walltime import mask_wall_time
from drw_overlay.experiments import (
    DEFAULT_GROUP_KEYS,
    FULL_INITIATORS,
    RECORD_COLUMNS,
    SUMMARY_METRICS,
    EmptyGroup,
    ExperimentRecord,
    ScenarioConfig,
    build_seed,
    desk_scenario,
    failed_cells,
    network_seed,
    full_scenario,
    read_records_csv,
    run_scenario,
    scenario_metadata,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from drw_overlay.metrics import box_stats
from drw_overlay.walk_engine import CostStrategy

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")


def small_config(**overrides):
    base = dict(n_values=(60,), r=0.2, initiator_counts={60: (2, 4)},
                strategies=(DRW, PRW), replications=3, base_seed=5,
                label="test")
    base.update(overrides)
    return ScenarioConfig(**base)


def summary_text(rows) -> str:
    buf = io.StringIO()
    write_summary_csv(rows, buf)
    return buf.getvalue()


# --- scenario definitions -------------------------------------------------------

def test_full_protocol_cell_counts():
    cfg = full_scenario(1.0)
    assert cfg.n_values == (1000, 2000, 3000)
    assert cfg.r == 0.05
    assert cfg.replications == 100
    assert len(cfg.initiator_counts[1000]) == 20
    assert len(cfg.initiator_counts[2000]) == 21
    assert len(cfg.initiator_counts[3000]) == 22
    assert cfg.cell_count == 126         # 63 (n, I) cells, each under drw and prw
    assert 1750 in cfg.initiator_counts[2000]
    assert 875 in cfg.initiator_counts[1000]
    assert 2625 in cfg.initiator_counts[3000]


def test_initiator_lists_within_bounds():
    for n, counts in FULL_INITIATORS.items():
        assert counts == tuple(sorted(counts))
        assert all(2 <= i <= n for i in counts)


def test_scaled_protocol_drops_large_cells():
    cfg = full_scenario(0.1)
    assert cfg.replications == 10
    assert cfg.initiator_counts[1000] == (2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          20, 30, 40, 50, 75, 100)
    assert max(cfg.initiator_counts[3000]) <= 300


def test_scale_bounds():
    with pytest.raises(ValueError):
        full_scenario(0.0)
    with pytest.raises(ValueError):
        full_scenario(1.5)
    with pytest.raises(ValueError):
        desk_scenario(-1)


def test_scenario_makers_check_the_step_budget():
    """The makers build the config with the budget, so its own check sees it."""
    with pytest.raises(ValueError, match="step budget must be >= 1, got 0"):
        full_scenario(0.1, step_budget=0)
    with pytest.raises(ValueError, match="step budget must be >= 1, got -1"):
        desk_scenario(0.1, step_budget=-1)
    assert full_scenario(0.1, step_budget=7).step_budget == 7
    assert desk_scenario(0.1).step_budget is None


def test_replication_floor():
    assert full_scenario(0.01).replications == 10
    assert full_scenario(0.5).replications == 50


def test_desk_scenario_rescales_radius():
    cfg = desk_scenario(0.1)
    assert cfg.n_values == (200, 500, 1000)
    assert cfg.effective_radius(1000) == pytest.approx(0.05)
    assert cfg.effective_radius(250) == pytest.approx(0.1)
    assert cfg.effective_radius(200) == pytest.approx(0.05 * (5 ** 0.5))
    assert cfg.initiator_counts[200] == (2, 3, 4, 5, 6, 7, 8, 9, 10, 20)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(initiator_counts={60: (1, 4)})
    with pytest.raises(ValueError):
        small_config(initiator_counts={60: ()})
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"step budget must be >= 1, got {budget}"):
            small_config(step_budget=budget)
    # A strategy listed twice would run every cell twice under one label.
    with pytest.raises(ValueError, match="listed twice in drw,prw,drw"):
        small_config(strategies=(DRW, PRW, CostStrategy("drw")))


# --- seeds -----------------------------------------------------------------------

def test_network_seed_shared_across_cells():
    cfg = small_config()
    assert network_seed(cfg, 60, 0) == network_seed(cfg, 60, 0)
    assert network_seed(cfg, 60, 0) != network_seed(cfg, 60, 1)
    # independent of initiator count and strategy by construction
    assert build_seed(cfg, 60, 2, 0) != build_seed(cfg, 60, 4, 0)
    assert build_seed(cfg, 60, 2, 0) != build_seed(cfg, 60, 2, 1)


def test_seeds_change_with_base_seed():
    a, b = small_config(base_seed=1), small_config(base_seed=2)
    assert network_seed(a, 60, 0) != network_seed(b, 60, 0)


# --- running sweeps ----------------------------------------------------------------

def test_single_cell_single_rep():
    cfg = small_config(initiator_counts={60: (3,)}, strategies=(DRW,),
                       replications=1)
    rows = run_scenario(cfg)
    assert len(rows) == 1
    rec = rows[0]
    assert rec.n == 60 and rec.strategy == "drw" and rec.initiators == 3
    assert rec.failed == 0
    assert rec.active_path_size >= 3
    assert 0.0 <= rec.depth <= 1.0
    assert rec.total_steps > 0


def test_row_count_and_order():
    cfg = small_config()
    rows = run_scenario(cfg)
    assert len(rows) == 2 * 2 * 3          # counts x strategies x reps
    keys = [(r.n, r.initiators, r.strategy, r.rep) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_rerun_identical_but_wall_time():
    cfg = small_config()
    a, b = run_scenario(cfg), run_scenario(cfg)
    strip = lambda rows: [(r.n, r.r, r.strategy, r.initiators, r.rep, r.seed,
                           r.active_path_size, r.depth, r.total_steps,
                           r.total_backtracks, r.failed) for r in rows]
    assert strip(a) == strip(b)


def test_parallel_jobs_same_rows():
    cfg = small_config(replications=4)
    serial = run_scenario(cfg, jobs=1)
    parallel = run_scenario(cfg, jobs=3)
    strip = lambda rows: [(r.n, r.strategy, r.initiators, r.rep, r.seed,
                           r.active_path_size, r.depth) for r in rows]
    assert strip(serial) == strip(parallel)


def test_pool_gets_no_more_workers_than_tasks():
    """A pool forks all its workers up front, so --jobs is clamped."""
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    cfg = small_config(replications=2)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
        rows = run_scenario(cfg, jobs=500)
    assert seen == [2]                   # one task per (n, replication)
    assert len(rows) == 2 * 2 * 2


def test_paired_networks_across_strategies():
    """Same replication index, same initiators: both strategies start alike."""
    cfg = small_config()
    rows = run_scenario(cfg)
    by_key = {(r.strategy, r.initiators, r.rep): r for r in rows}
    for count in (2, 4):
        for rep in range(3):
            a = by_key[("drw", count, rep)]
            b = by_key[("prw", count, rep)]
            assert a.seed == b.seed          # identical build seed: paired draw


def test_impossible_cell_runs_through_with_failure_flags():
    """A radius far below the connectivity threshold: rows still emitted."""
    cfg = ScenarioConfig(n_values=(40,), r=0.02,
                         initiator_counts={40: (2,)},
                         strategies=(DRW,), replications=2, label="test")
    rows = run_scenario(cfg)
    assert len(rows) == 2
    assert all(r.failed == 1 for r in rows)
    assert all(r.active_path_size == 0 for r in rows)
    assert failed_cells(rows) == [(40, "drw", 2)]


def test_failed_cells_empty_on_success():
    rows = run_scenario(small_config())
    assert failed_cells(rows) == []


# --- CSV ---------------------------------------------------------------------------

def test_records_csv_round_trip():
    cfg = small_config()
    rows = run_scenario(cfg)
    buf = io.StringIO()
    write_records_csv(rows, buf, metadata=scenario_metadata(cfg))
    text = buf.getvalue()
    assert text.startswith("# overlay-experiment")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == ",".join(RECORD_COLUMNS)
    back = read_records_csv(io.StringIO(text))
    assert len(back) == len(rows)
    for x, y in zip(back, rows):
        assert (x.n, x.strategy, x.initiators, x.rep, x.seed) == \
               (y.n, y.strategy, y.initiators, y.rep, y.seed)
        assert x.depth == pytest.approx(y.depth, abs=1e-6)
        assert x.active_path_size == y.active_path_size
        assert x.failed == y.failed


def test_records_csv_depth_six_decimals():
    rows = run_scenario(small_config(initiator_counts={60: (2,)},
                                     strategies=(DRW,), replications=1))
    buf = io.StringIO()
    write_records_csv(rows, buf)
    data_line = [l for l in buf.getvalue().splitlines()
                 if not l.startswith(("#", "n,"))][0]
    depth_field = data_line.split(",")[7]
    assert re.fullmatch(r"\d+\.\d{6}", depth_field)


def test_records_csv_deterministic_bytes_masked():
    cfg = small_config()
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        write_records_csv(run_scenario(cfg), buf,
                          metadata=scenario_metadata(cfg))
        texts.append(mask_wall_time(buf.getvalue()))
    assert texts[0] == texts[1]


def test_read_records_rejects_malformed():
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO(""))


def one_row_csv(seed: str, wall_time_ms: str) -> io.StringIO:
    row = f"1000,0.05,drw,10,0,{seed},200,0.500000,180,3,0,{wall_time_ms}"
    return io.StringIO(",".join(RECORD_COLUMNS) + "\n" + row + "\n")


@pytest.mark.parametrize("seed, wall_time_ms", [
    ("7", "nan"), ("7", "inf"), ("7", "-3.0"), ("-7", "1.000"), (str(2**64), "1.000"),
    (str(2**70), "1.000"),
])
def test_read_records_rejects_impossible_seed_or_wall_time(seed, wall_time_ms):
    """The sweep writes 64-bit seeds and finite, non-negative wall times."""
    with pytest.raises(ValueError, match="^bad row "):
        read_records_csv(one_row_csv(seed, wall_time_ms))


def test_read_records_accepts_seed_and_wall_time_at_their_bounds():
    for seed, wall_time_ms in (("0", "0.000"), (str(2**64 - 1), "1e9")):
        rec, = read_records_csv(one_row_csv(seed, wall_time_ms))
        assert (rec.seed, rec.wall_time_ms) == (int(seed), float(wall_time_ms))


def test_records_csv_to_file(tmp_path):
    rows = run_scenario(small_config(initiator_counts={60: (2,)},
                                     strategies=(DRW,), replications=1))
    path = tmp_path / "records.csv"
    write_records_csv(rows, path)
    assert read_records_csv(path)[0].n == 60


# --- summaries ----------------------------------------------------------------------

def test_summarize_matches_box_stats():
    rows = run_scenario(small_config())
    summary = summarize(rows)
    assert len(summary) == 2 * 2 * len(SUMMARY_METRICS)
    sizes = [r.active_path_size for r in rows
             if r.strategy == "drw" and r.initiators == 2]
    direct = box_stats(sizes)
    row = next(s for s in summary
               if s.group == (60, "drw", 2) and s.metric == "active_path_size")
    assert row.stats == direct


def test_summarize_single_record_degenerate():
    rec = ExperimentRecord(n=10, r=0.3, strategy="drw", initiators=2, rep=0,
                           seed=1, active_path_size=5, depth=0.4,
                           total_steps=7, total_backtracks=0, failed=0,
                           wall_time_ms=1.0)
    rows = summarize([rec])
    assert [r.metric for r in rows] == list(SUMMARY_METRICS)
    s = rows[1].stats
    assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 0.4


def test_summarize_skips_failed_and_raises_when_all_failed():
    ok = ExperimentRecord(n=10, r=0.3, strategy="drw", initiators=2, rep=0,
                          seed=1, active_path_size=5, depth=0.4,
                          total_steps=7, total_backtracks=0, failed=0,
                          wall_time_ms=1.0)
    bad = ExperimentRecord(n=10, r=0.3, strategy="drw", initiators=2, rep=1,
                           seed=2, active_path_size=0, depth=0.0,
                           total_steps=0, total_backtracks=0, failed=1,
                           wall_time_ms=1.0)
    rows = summarize([ok, bad])
    assert [r.stats.count for r in rows] == [1] * len(SUMMARY_METRICS)
    with pytest.raises(EmptyGroup):
        summarize([bad])


def test_summarize_rejects_unknown_group_key():
    with pytest.raises(ValueError):
        summarize([], group_keys=("n", "nope"))
    with pytest.raises(ValueError, match="listed twice"):
        summarize([], group_keys=("n", "strategy", "n"))


def test_summary_csv_shape():
    rows = run_scenario(small_config())
    text = summary_text(summarize(rows))
    lines = text.splitlines()
    expect_header = ",".join(DEFAULT_GROUP_KEYS) + \
        ",metric,min,q1,median,q3,max,lo_whisker,hi_whisker,outlier_count,count"
    assert lines[0] == expect_header
    assert len(lines) == 1 + 2 * 2 * len(SUMMARY_METRICS)
    assert all(len(l.split(",")) == len(lines[0].split(",")) for l in lines)


def test_summary_csv_deterministic():
    rows = run_scenario(small_config())
    assert summary_text(summarize(rows)) == summary_text(summarize(rows))

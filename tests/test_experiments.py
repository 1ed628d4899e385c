"""Scenario construction, sweep execution, CSV round trips."""

import io
import re
from unittest import mock

import numpy as np
import pytest

from drw_overlay.experiments import (
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
)
from drw_overlay.metrics import box_stats
from drw_overlay.walk_engine import CostStrategy
from walltime import mask_wall_time

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")


def small_config(**overrides):
    base = dict(r=0.2, initiator_counts={60: (2, 4)},
                strategies=(DRW, PRW), replications=3, base_seed=5,
                label="test")
    base.update(overrides)
    return ScenarioConfig(**base)


# --- scenario definitions -------------------------------------------------------

def test_full_protocol_cell_counts():
    cfg = full_scenario(1.0)
    assert tuple(cfg.initiator_counts) == (1000, 2000, 3000)
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
    assert tuple(cfg.initiator_counts) == (200, 500, 1000)
    assert cfg.effective_radius(1000) == pytest.approx(0.05)
    assert cfg.effective_radius(250) == pytest.approx(0.1)
    assert cfg.effective_radius(200) == pytest.approx(0.05 * (5 ** 0.5))
    assert cfg.initiator_counts[200] == (2, 3, 4, 5, 6, 7, 8, 9, 10, 20)


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
    cfg = ScenarioConfig(r=0.02, initiator_counts={40: (2,)},
                         strategies=(DRW,), replications=2, label="test")
    rows = run_scenario(cfg)
    assert len(rows) == 2
    assert all(r.failed == 1 for r in rows)
    assert all(r.active_path_size == 0 for r in rows)
    assert failed_cells(rows) == [(40, "drw", 2)]


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


def test_records_csv_row_format():
    """Each field written with str, but depth and wall_time_ms rounded."""
    rec = ExperimentRecord(n=60, r=0.2, strategy="drw", initiators=2, rep=0, seed=1,
                           active_path_size=2, depth=0.5, total_steps=1,
                           total_backtracks=0, failed=0, wall_time_ms=1.23456)
    buf = io.StringIO()
    write_records_csv([rec], buf)
    assert buf.getvalue().splitlines()[1] == "60,0.2,drw,2,0,1,2,0.500000,1,0,0,1.235"


def test_numpy_float_radius_writes_the_bytes_of_its_float():
    """numpy 2 writes np.float64(0.2) as "np.float64(0.2)", which a sweep
    kept in its r column and metadata block, and read_records_csv refused."""
    texts = []
    for r in (0.2, np.float64(0.2)):
        cfg = small_config(r=r, replications=1)
        buf = io.StringIO()
        write_records_csv(run_scenario(cfg), buf, metadata=scenario_metadata(cfg))
        texts.append(mask_wall_time(buf.getvalue()))
    plain, numpy_r = (read_records_csv(io.StringIO(text)) for text in texts)
    assert numpy_r == plain and texts[1] == texts[0]


def test_read_records_rejects_malformed():
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO(""))


def one_row_csv(seed: str, wall_time_ms: str) -> io.StringIO:
    row = f"1000,0.05,drw,10,0,{seed},200,0.500000,180,3,0,{wall_time_ms}"
    return io.StringIO(",".join(RECORD_COLUMNS) + "\n" + row + "\n")


def test_read_records_accepts_seed_and_wall_time_at_their_bounds():
    for seed, wall_time_ms in (("0", "0.000"), (str(2**64 - 1), "1e9")):
        rec, = read_records_csv(one_row_csv(seed, wall_time_ms))
        assert (rec.seed, rec.wall_time_ms) == (int(seed), float(wall_time_ms))


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

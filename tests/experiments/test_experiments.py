"""Tests for the experiment harness (quick parameter sets).

The figure tests under ``benchmarks/`` assert the paper's shapes at full
scale; these tests exercise the harness machinery quickly: result
plumbing, scenario builders, and a few robust shape properties that hold
even at tiny sizes.
"""

import pytest

from repro.experiments import (
    ExperimentParams,
    FigureResult,
    ablations,
    fig3_read_latency,
    fig5_write_latency,
    fig7_session_guarantees,
    fig8_update_skew,
)
from repro.experiments.calibration import experiment_config, fig7_config
from repro.experiments.scenarios import (
    PAYLOAD_COLUMN,
    TABLE,
    VIEW_NAME,
    build_scenario,
    sec_value,
)


@pytest.fixture(scope="module")
def quick():
    return ExperimentParams().quick()


# ---------------------------------------------------------------------------
# FigureResult
# ---------------------------------------------------------------------------


def test_figure_result_rows_and_columns():
    result = FigureResult("F", "t", ("a", "b"))
    result.add_row(1, 2.0)
    result.add_row(3, 4.0)
    assert result.column("a") == [1, 3]
    assert result.column("b") == [2.0, 4.0]


def test_figure_result_arity_checked():
    result = FigureResult("F", "t", ("a", "b"))
    with pytest.raises(ValueError):
        result.add_row(1)


def test_figure_result_series_filter():
    result = FigureResult("F", "t", ("label", "x", "y"))
    result.add_row("A", 1, 10.0)
    result.add_row("B", 1, 20.0)
    result.add_row("A", 2, 30.0)
    assert result.series("label", "A", "y") == [10.0, 30.0]


def test_figure_result_format_table():
    result = FigureResult("Figure X", "demo", ("col",), notes="hello")
    result.add_row(1.23456)
    text = result.format_table()
    assert "Figure X" in text
    assert "1.235" in text
    assert "note: hello" in text


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------


def test_build_scenario_validates_kind():
    with pytest.raises(ValueError):
        build_scenario("nope", experiment_config(), 10)


def test_bt_scenario_populated():
    cluster = build_scenario("bt", experiment_config(), 20)
    client = cluster.sync_client()
    assert client.get(TABLE, 5, [PAYLOAD_COLUMN])[PAYLOAD_COLUMN][0]


def test_si_scenario_has_index():
    cluster = build_scenario("si", experiment_config(), 20)
    client = cluster.sync_client()
    found = client.get_by_index(TABLE, "sec", sec_value(7), [PAYLOAD_COLUMN])
    assert list(found) == [7]


def test_mv_scenario_view_answers_queries():
    cluster = build_scenario("mv", experiment_config(), 20)
    client = cluster.sync_client()
    rows = client.get_view(VIEW_NAME, sec_value(3), ["B", PAYLOAD_COLUMN])
    assert [row["B"] for row in rows] == [3]
    assert rows[0][PAYLOAD_COLUMN] is not None


def test_mv_scenario_without_materialized_payload():
    cluster = build_scenario("mv", experiment_config(), 20,
                             materialize_payload=False)
    client = cluster.sync_client()
    rows = client.get_view(VIEW_NAME, sec_value(3), ["B", PAYLOAD_COLUMN])
    assert [row["B"] for row in rows] == [3]
    assert rows[0][PAYLOAD_COLUMN] is None


# ---------------------------------------------------------------------------
# Experiments (quick sizes, robust assertions only)
# ---------------------------------------------------------------------------


def test_fig3_quick_shape(quick):
    result = fig3_read_latency.run(quick)
    assert result.column("scenario") == ["BT", "SI", "MV"]
    (bt,) = result.series("scenario", "BT", "mean_ms")
    (si,) = result.series("scenario", "SI", "mean_ms")
    assert si > 2 * bt
    assert all(v > 0 for v in result.column("mean_ms"))


def test_fig5_quick_shape(quick):
    result = fig5_write_latency.run(quick)
    (bt,) = result.series("scenario", "BT", "mean_ms")
    (mv,) = result.series("scenario", "MV", "mean_ms")
    assert mv > 1.5 * bt


def test_fig7_quick_shape(quick):
    result = fig7_session_guarantees.run(quick)
    mv = result.series("scenario", "MV", "pair_latency_ms")
    assert mv[0] >= mv[-1]
    si = result.series("scenario", "SI", "pair_latency_ms")
    assert max(si) - min(si) < 0.5


def test_fig8_quick_runs_all_widths(quick):
    result = fig8_update_skew.run(quick)
    assert result.column("range_width") == list(quick.skew_ranges)
    assert all(v > 0 for v in result.column("throughput"))
    narrow = result.rows[0]
    wide = result.rows[-1]
    assert narrow[1] < wide[1]  # narrower range -> lower throughput


def test_ablation_concurrency_mechanisms_quick(quick):
    result = ablations.concurrency_mechanisms(quick)
    assert result.column("mechanism") == ["locks", "propagators"]
    assert all(v > 0 for v in result.column("throughput"))


def test_ext_skew_quick(quick):
    from repro.experiments import ext_skew

    result = ext_skew.run(quick)
    assert result.column("theta") == list(quick.zipf_thetas)
    assert all(v > 0 for v in result.column("eager_throughput"))
    assert all(v > 0 for v in result.column("adaptive_throughput"))
    assert all(v == 0 for v in result.column("divergent_rows"))
    # At the top of the sweep the hot chains fold: adaptive is no slower.
    top = result.rows[-1]
    assert top[2] >= top[1]


def test_skew_adaptive_alone_selects_the_measured_policy(quick,
                                                        monkeypatch):
    """E5's adaptive column is what ``skew_adaptive=True`` gives by
    itself: the tracker constants are the values it was measured under,
    not a second policy nobody runs."""
    from repro.experiments import ext_skew
    from repro.experiments.calibration import experiment_config
    from repro.views import drive, skew

    run_skew_point = ext_skew.run_skew_point
    configs = []

    def record(config, **_kwargs):
        configs.append(config)
        return dict(throughput=1.0, folded=0, heavy_keys=0, abandoned=0,
                    drain_ms=0.0, divergent_rows=0)

    monkeypatch.setattr(ext_skew, "run_skew_point", record)
    ext_skew.run(quick)
    # Equal configs run the same cell: the simulation is a function of
    # its config (tests/views/test_determinism.py).
    bare = experiment_config(seed=quick.seed, skew_adaptive=True)
    assert configs[1::2] == [bare] * len(quick.zipf_thetas)
    assert configs[0::2] == ([experiment_config(seed=quick.seed)]
                             * len(quick.zipf_thetas))
    # Both columns run under the one round budget there is.
    assert drive.MAX_ROUNDS == 200
    assert (skew.PROMOTE_THRESHOLD, skew.DEMOTE_THRESHOLD,
            skew.DECAY_HALF_LIFE, skew.FOLD_INTERVAL
            ) == (2.0, 1.0, 800.0, 20.0)
    cell = run_skew_point(bare, theta=1.2,
                          population=quick.zipf_population,
                          clients=quick.zipf_clients,
                          duration=quick.zipf_duration,
                          warmup=quick.warmup)
    assert cell["folded"] > 0 and cell["heavy_keys"] > 0


def test_ext_staleness_quick(quick):
    from repro.experiments.ext_staleness import run_staleness_point

    cells = {bound: run_staleness_point(quick, bound)
             for bound in quick.staleness_bounds}
    for cell in cells.values():
        assert cell["reads"] == quick.staleness_reads
        assert cell["read_failures"] == 0
        assert cell["audit_violations"] == 0, cell["audit_failures"]
        # Crashes really lost propagations, and the scrubber cannot
        # heal a wound nobody opened.
        assert cell["wounds_opened"] > 0
        assert cell["wounds_healed"] <= cell["wounds_opened"]
    assert cells[None]["escalations"] == 0
    # Every cell replays one write/crash/scrub timeline, so a tighter
    # bound faces the same staleness and can only escalate more.
    loose_to_tight = sorted((b for b in cells if b is not None),
                            reverse=True)
    rates = [cells[bound]["escalation_rate"] for bound in loose_to_tight]
    assert rates == sorted(rates)
    assert rates[-1] > 0


def test_ablation_combined_quick(quick):
    result = ablations.combined_get_then_put(quick)
    (separate,) = result.series("variant", "separate", "mean_ms")
    (combined,) = result.series("variant", "combined", "mean_ms")
    assert combined < separate


def test_crossover_quick(quick):
    from repro.experiments import crossover

    result = crossover.run(quick, write_fractions=(0.0, 1.0), clients=4)
    si = {row[1]: row[2] for row in result.rows if row[0] == "SI"}
    mv = {row[1]: row[2] for row in result.rows if row[0] == "MV"}
    assert mv[0.0] > si[0.0]   # MV wins pure reads
    assert si[1.0] > mv[1.0]   # SI wins pure writes


def test_ext_repair_quick(quick):
    from repro.experiments import ext_repair

    result = ext_repair.run(quick)
    off = [row[2] for row in result.rows if row[0] == "off"]
    on = [row[2] for row in result.rows if row[0] == "on"]
    assert len(off) == len(on) > 0
    # Unscrubbed, crash-induced divergence persists to the end of the
    # run; scrubbed, it is fully repaired.
    assert off[-1] >= 1
    assert on[-1] == 0
    assert "time-to-convergence" in (result.notes or "")


def test_ext_outburst_quick(quick):
    from repro.experiments import ext_outburst

    result = ext_outburst.run(quick)
    assert {"steady", "burst", "drain"} <= set(result.column("phase"))
    steady_peak = max(result.series("phase", "steady", "queue_depth"),
                      default=0)
    burst_peak = max(result.series("phase", "burst", "queue_depth"))
    # The burst builds a real backlog — but backpressure bounds it.
    assert burst_peak > steady_peak
    assert burst_peak <= quick.outburst_capacity
    # The backlog fully drains (last sample at depth 0) and leaves the
    # view in exact agreement with the base table.
    assert result.rows[-1][2] == 0
    assert "residual divergence 0 rows" in result.notes


def test_ext_adversary_quick(quick):
    from repro.experiments import ext_adversary

    result = ext_adversary.run(quick)
    # Every stack ran.
    assert (list(result.column("adversary"))
            == list(ext_adversary.ADVERSARY_STACKS))
    # No run violated the standing invariant suite, and none was
    # vacuous: every run acked work and injected at least one fault.
    assert all(v == 0 for v in result.column("violations"))
    assert all(v > 0 for v in result.column("acked_ops"))
    assert all(v >= 1 for v in result.column("injections"))


def test_mv_view_definition_helper():
    from repro.experiments.scenarios import SEC_COLUMN, mv_view_definition

    view = mv_view_definition()
    assert view.name == VIEW_NAME
    assert view.base_table == TABLE
    assert view.view_key_column == SEC_COLUMN
    assert PAYLOAD_COLUMN in view.materialized_columns
    assert mv_view_definition(materialize_payload=False
                              ).materialized_columns == ()


def test_mixed_op_fraction_validated():
    from repro.workloads import mixed_op

    with pytest.raises(ValueError):
        mixed_op(1.5, None, None)


def test_ablation_gc_quick(quick):
    result = ablations.stale_row_gc(quick)
    assert all(v > 0 for v in result.column("throughput"))
    (off_stale,) = result.series("gc", "off", "stale_rows")
    (on_stale,) = result.series("gc", "on", "stale_rows")
    assert on_stale < off_stale
    (on_chain,) = result.series("gc", "on", "max_chain")
    assert on_chain <= 2


def test_quick_params_are_smaller():
    full = ExperimentParams()
    quick = full.quick()
    assert quick.rows < full.rows
    assert quick.latency_requests < full.latency_requests
    assert len(quick.client_counts) < len(full.client_counts)


def test_fig7_config_has_heavy_tail():
    config = fig7_config()
    rng_samples = []
    import random

    rng = random.Random(0)
    for _ in range(5000):
        rng_samples.append(config.propagation_delay.sample(rng))
    rng_samples.sort()
    median = rng_samples[len(rng_samples) // 2]
    p99 = rng_samples[int(len(rng_samples) * 0.99)]
    assert p99 > 20 * median  # genuinely heavy-tailed


def test_cli_main_quick(capsys):
    from repro.experiments.__main__ import main

    assert main(["--quick", "fig3"]) == 0
    output = capsys.readouterr().out
    assert "Figure 3" in output
    assert "BT" in output and "SI" in output and "MV" in output

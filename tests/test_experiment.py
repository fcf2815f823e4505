"""Experiment families, accuracy metrics, ledger, and report tests."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import die_in_worker
from ftlab import optim
from ftlab.data import SyntheticDomainSpec, gen_synthetic_domain, split_train_val
from ftlab.experiment import (ACCURACY_NOTE, RECOMMENDER_BREAKPOINTS,
                              FinetuneTask, GraduatedSpec, GridSpec,
                              JobFailure, JobInputs, RunRecord, alpha,
                              append_records, beta, derive_seed,
                              graduated_schedule, percent_gain,
                              read_ledger, recommend_multipliers,
                              render_report, report_from_records,
                              run_il_ll_grid, run_jobs, run_ll_experiment,
                              scale_jobs, scan_ledger, spell_rate)
from ftlab.model import (build_staged_network, checkpoint_from_model,
                         load_checkpoint, mini_staged_spec, save_checkpoint)
from ftlab.nn_core import Conv2d
from ftlab.optim import LrPolicy, effective_lr

# reference accuracy pairs: (target, source, best, other, reported gain)
REPORTED_GAIN_ROWS = [
    ("fabric", "garment", 13.09, 11.33, 15.47),
    ("tool", "weapon", 14.78, 14.54, 1.63),
    ("oxford", "plants", 91.06, 73.17, 24.44),
    ("food", "fruit", 5.71, 5.07, 12.52),
    ("fungus", "plant", 13.12, 5.80, 127.79),
    ("person", "food", 4.49, 2.81, 59.75),
    ("fruit", "garment", 10.50, 9.30, 12.92),
    ("music", "plant", 15.37, 9.47, 62.22),
]


class TestPercentGain:
    def test_oxford_row(self):
        assert percent_gain(91.06, 73.17) == pytest.approx(24.45, abs=0.005)

    def test_fungus_row_documented_divergence(self):
        # recomputing from the rounded table entries gives 126.21, not the
        # printed 127.79 (which came from unrounded accuracies)
        got = percent_gain(13.12, 5.80)
        assert got == pytest.approx(126.21, abs=0.005)
        assert abs(got - 127.79) > 1.5

    def test_equal_accuracies_give_zero(self):
        assert percent_gain(0.37, 0.37) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            percent_gain(1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            percent_gain(1.0, -2.0)

    def test_scale_invariance(self):
        # same value whether accuracies are fractions or percents
        assert percent_gain(0.9106, 0.7317) == pytest.approx(
            percent_gain(91.06, 73.17), rel=1e-12)


class TestBeta:
    def test_fungus_accuracies_across_ll_endpoints(self):
        assert beta([5.80, 9.47, 13.12]) == pytest.approx(126.21, abs=0.005)

    def test_all_equal_is_zero(self):
        assert beta([0.4, 0.4, 0.4]) == 0.0

    def test_singleton_is_zero(self):
        assert beta([0.73]) == 0.0

    def test_zero_minimum_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            beta([0.0, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            beta([])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            accs = rng.uniform(0.05, 0.95, size=rng.integers(1, 7)).tolist()
            brute = (max(accs) - min(accs)) / min(accs) * 100.0
            assert beta(accs) == pytest.approx(brute, rel=1e-12)


class TestAlpha:
    def test_low_rate_winner_like_fabric_row(self):
        by_il = {0.0: 0.10, 0.0001: 0.1309, 0.001: 0.12, 0.01: 0.11}
        assert alpha(by_il) == 0.0001

    def test_high_rate_winner_like_music_row(self):
        by_il = {0.0: 0.09, 0.0001: 0.11, 0.001: 0.13, 0.01: 0.1537}
        assert alpha(by_il) == 0.01

    def test_tie_breaks_toward_smaller_rate(self):
        assert alpha({0.01: 0.5, 0.0001: 0.5, 0.001: 0.3}) == 0.0001

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            alpha({})

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ils = sorted(rng.uniform(1e-4, 1e-1, size=4).tolist())
            accs = rng.uniform(0.1, 0.9, size=4).tolist()
            by_il = dict(zip(ils, accs))
            transformed = {il: np.exp(3.0 * a) + 1.0 for il, a in by_il.items()}
            assert alpha(by_il) == alpha(transformed)


class TestSpellRate:
    # y is an arbitrary float, x's neighbour, or what :g makes of x
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False),
           st.integers(0, 2))
    def test_injective_and_g_where_g_reads_back(self, x, y, pick):
        y = (y, math.nextafter(x, math.inf), float(f"{x:g}"))[pick]
        for v in (x, y):
            assert float(spell_rate(v)) == v
            if float(f"{v:g}") == v:
                assert spell_rate(v) == f"{v:g}"
        if x != y:
            assert spell_rate(x) != spell_rate(y)

    def test_examples(self):
        assert [spell_rate(v) for v in (0.1, 1.0, 1e-4, 0.25, 0.1000001,
                                        1 / 3)] == [
            "0.1", "1", "0.0001", "0.25", "0.1000001", "0.3333333333333333"]


class TestGridSpec:
    def test_il_sets_match_ll(self):
        grid = GridSpec()
        assert grid.il_values(0.01) == (0.0, 0.0001, 0.001, 0.01)
        assert grid.il_values(0.1) == (0.0, 0.0001, 0.001, 0.01, 0.1)
        # no inner rate below min_il, which need not be a power of 10
        for min_il in (0.003, 0.0031622):
            assert GridSpec((0.1,), min_il).il_values(0.1) == (0.0, 0.01, 0.1)

    def test_counts_4_and_5(self):
        grid = GridSpec()
        assert len(grid.il_values(0.01)) == 4
        assert len(grid.il_values(0.1)) == 5

    def test_il_never_exceeds_ll(self):
        grid = GridSpec()
        for ll in (0.0001, 0.001, 0.01, 0.1, 1.0):
            assert all(il <= ll * (1 + 1e-9) for il in grid.il_values(ll))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(ll_values=())
        with pytest.raises(ValueError):
            GridSpec(ll_values=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(ll_values=(0.01,), min_il=0.1)

    @pytest.mark.parametrize("kwargs, bad", [
        (dict(ll_values=(math.inf,), min_il=0.01), "inf"),
        (dict(ll_values=(0.1, math.nan)), "nan")])
    def test_non_finite_rates_rejected_when_built(self, kwargs, bad):
        # an infinite LL used to build, and il_values then overflowed
        with pytest.raises(ValueError, match="^last-layer rate must be "
                                             f"positive and finite, got {bad}$"):
            GridSpec(**kwargs)
        for min_il in (math.inf, math.nan):
            with pytest.raises(ValueError, match="min_il"):
                GridSpec((0.1,), min_il)

    @pytest.mark.parametrize("ll", [1e308, sys.float_info.max])
    def test_ladder_ends_at_the_largest_power_of_10(self, ll):
        # 10.0 ** 309 overflowed; the ladder stops at 1e308 instead
        values = GridSpec((ll,), 1e300).il_values(ll)
        assert values == (0.0,) + tuple(10.0 ** k for k in range(300, 309))


class TestGraduatedSchedule:
    def test_default_multipliers_and_scales(self):
        spec = GraduatedSpec()
        assert spec.inner_multipliers == (0.0, 1.0, 2.0, 4.0, 8.0)
        assert spec.head_multiplier == 16.0
        assert len(spec.scales) == 11
        assert spec.scales == (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0,
                               7.0, 10.0)

    def test_default_layout_one_multiplier_per_stage(self):
        sched = graduated_schedule(GraduatedSpec(), scale=1.0)
        assert sched.stage_multipliers == {"conv1": 0.0, "conv2": 1.0,
                                           "conv3": 2.0, "conv4": 4.0,
                                           "conv5": 8.0, "fc": 16.0}
        assert sched.scale == 1.0

    def test_shared_first_layout(self):
        spec = GraduatedSpec(inner_multipliers=(0.0, 1.0, 2.0, 5.0),
                             layout="shared_first")
        sched = graduated_schedule(spec, scale=1.0)
        assert sched.stage_multipliers == {"conv1": 0.0, "conv2": 0.0,
                                           "conv3": 1.0, "conv4": 2.0,
                                           "conv5": 5.0, "fc": 16.0}

    def test_shared_first_leaves_extra_multipliers_unused(self):
        spec = GraduatedSpec(layout="shared_first")
        sched = graduated_schedule(spec, scale=0.5)
        assert sched.stage_multipliers == {"conv1": 0.0, "conv2": 0.0,
                                           "conv3": 1.0, "conv4": 2.0,
                                           "conv5": 4.0, "fc": 16.0}
        assert sched.scale == 0.5

    def test_shared_first_needs_two_stages(self):
        with pytest.raises(ValueError, match="at least two inner stages"):
            graduated_schedule(GraduatedSpec(layout="shared_first"), 1.0,
                               inner_stage_names=("conv1",))

    def test_shared_first_needs_a_multiplier_for_all_but_one_stage(self):
        spec = GraduatedSpec(inner_multipliers=(0.0, 1.0, 2.0),
                             layout="shared_first")
        with pytest.raises(ValueError, match="5 inner stages need at least "
                                             "4 multipliers for shared_first"):
            graduated_schedule(spec, 1.0)

    def test_worked_example_conv3_at_half_scale(self):
        # conv3 multiplier 2, base rate 0.001, scale 0.5 -> exactly 0.001
        sched = graduated_schedule(GraduatedSpec(), scale=0.5)
        policy = LrPolicy(0.001, step_size=10, total_iterations=100)
        eff = effective_lr(policy, 0, sched.stage_multipliers["conv3"],
                           sched.scale)
        assert eff == 0.001

    def test_quarter_scale_effective_multipliers(self):
        sched = graduated_schedule(GraduatedSpec(), scale=0.25)
        eff = {name: m * sched.scale
               for name, m in sched.stage_multipliers.items()}
        assert eff == {"conv1": 0.0, "conv2": 0.25, "conv3": 0.5, "conv4": 1.0,
                       "conv5": 2.0, "fc": 4.0}

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            graduated_schedule(GraduatedSpec(), scale=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            GraduatedSpec(inner_multipliers=(0.0, 2.0, 1.0, 4.0, 8.0))
        with pytest.raises(ValueError, match="ascending"):
            GraduatedSpec(scales=(1.0, 0.5))
        with pytest.raises(ValueError, match="layout"):
            GraduatedSpec(layout="diagonal")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(scales=(1.0, math.inf)), "scales must be positive and finite, "
                                       "got inf"),
        (dict(scales=(math.nan, 1.0)), "scales must be positive and finite, "
                                       "got nan"),
        (dict(inner_multipliers=(0.0, math.inf)),
         "multipliers must be >= 0 and finite, got inf"),
        (dict(inner_multipliers=(0.0, math.nan, 1.0)),
         "multipliers must be >= 0 and finite, got nan"),
        (dict(head_multiplier=math.inf),
         "multipliers must be >= 0 and finite, got inf"),
        (dict(head_multiplier=math.nan),
         "multipliers must be >= 0 and finite, got nan"),
        (dict(head_multiplier=-1.0),
         "multipliers must be >= 0 and finite, got -1.0")])
    def test_non_finite_factors_rejected_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GraduatedSpec(**kwargs)

    def test_multiplier_count_must_match_stage_count(self):
        with pytest.raises(ValueError, match="multipliers"):
            graduated_schedule(GraduatedSpec(), 1.0,
                               inner_stage_names=("conv1", "conv2"))

    def test_seventy_task_job_accounting(self):
        assert 70 * len(GraduatedSpec().scales) == 770


class TestMostFrequentBestScale:
    @staticmethod
    def rec(task, scale, acc):
        return RunRecord(kind="graduated", task=task, source="s", seed=0,
                         final_accuracy=acc, best_accuracy=acc, scale=scale)

    @staticmethod
    def vote(records):
        return report_from_records(records)["scale_sweep"][
            "most_frequent_best_scale"]

    def test_planted_mode_is_found(self):
        records = []
        peaks = {"t1": 0.5, "t2": 0.5, "t3": 2.0}
        for task, peak in peaks.items():
            for scale in (0.25, 0.5, 2.0):
                acc = 0.9 if scale == peak else 0.4
                records.append(self.rec(task, scale, acc))
        assert self.vote(records) == 0.5

    def test_tie_breaks_toward_smaller_scale(self):
        records = []
        for task, peak in (("t1", 0.25), ("t2", 0.5)):
            for scale in (0.25, 0.5):
                records.append(self.rec(task, scale,
                                        0.9 if scale == peak else 0.1))
        assert self.vote(records) == 0.25

    def test_all_tasks_peak_at_quarter(self):
        records = []
        for task in ("a", "b", "c"):
            for scale, acc in ((0.25, 0.8), (0.5, 0.6), (1.0, 0.4)):
                records.append(self.rec(task, scale, acc))
        assert self.vote(records) == 0.25

    def test_task_missing_a_scale_left_out_of_the_vote(self):
        # counted, t2's best scale 0.25 would tie with t1's 0.5 and win
        records = [self.rec("t1", 0.25, 0.5), self.rec("t1", 0.5, 0.6),
                   self.rec("t2", 0.25, 0.5)]
        assert self.vote(records) == 0.5

    def test_per_task_tie_prefers_smaller_scale(self):
        records = [self.rec("t1", 0.25, 0.7), self.rec("t1", 0.5, 0.7)]
        assert self.vote(records) == 0.25


class TestRecommender:
    def test_oxford_style_low_images_per_label(self):
        assert recommend_multipliers(10.0, ll=0.01) == 0.0001

    def test_fungus_style_high_images_per_label(self):
        assert recommend_multipliers(300.0, ll=0.01) == 0.01

    def test_monotone_over_scan(self):
        xs = np.linspace(0.5, 5000.0, 1000)
        for ll in (0.01, 0.1):
            ys = [recommend_multipliers(float(x), ll=ll) for x in xs]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(y <= ll for y in ys)

    def test_values_come_from_grid_ladder(self):
        grid = GridSpec()
        ladder = set(grid.il_values(0.1))
        for x in (1, 10, 40, 100, 400, 1000, 4000):
            assert recommend_multipliers(float(x), ll=0.1) in ladder

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            recommend_multipliers(0.0, ll=0.01)

    @pytest.mark.parametrize("ll", [0.0, -0.01, math.nan])
    def test_non_positive_last_layer_rate_rejected(self, ll):
        with pytest.raises(ValueError, match="^last-layer rate must be "
                                             "positive, got "):
            recommend_multipliers(10.0, ll=ll)

    def test_breakpoints_hold_their_invariants(self):
        thresholds, rates = zip(*RECOMMENDER_BREAKPOINTS)
        assert thresholds[0] == 0.0
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        for threshold, rate in RECOMMENDER_BREAKPOINTS:
            assert recommend_multipliers(threshold or 1.0, ll=1.0) == rate


class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        records = [RunRecord(kind="ll", task="t", source="s", seed=3,
                             final_accuracy=0.5, best_accuracy=0.6, ll=0.01,
                             il=0.0, checkpoint="c.ftlb"),
                   RunRecord(kind="graduated", task="t", source="s", seed=4,
                             final_accuracy=0.7, best_accuracy=0.7, scale=0.25)]
        append_records(path, records)
        back, skipped = read_ledger(path)
        assert skipped == 0
        assert back == records

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_records(path, [RunRecord(kind="ll", task="t", source="s",
                                        seed=0, final_accuracy=0.1,
                                        best_accuracy=0.1, ll=0.01, il=0.0)])
        with open(path, "a", encoding="utf-8") as f:
            f.write("{not json\n")
            f.write('{"kind": "ll"}\n')        # missing fields
        back, skipped = read_ledger(path)
        assert len(back) == 1
        assert skipped == 2

    @pytest.mark.parametrize("field,value", [
        ("seed", True), ("seed", 1.5), ("best_accuracy", "high"),
        ("final_accuracy", None), ("ll", [0.1]), ("task", 3),
        ("checkpoint", 7)])
    def test_mistyped_fields_are_corrupt_lines(self, tmp_path, field, value):
        good = RunRecord(kind="ll", task="t", source="s", seed=0,
                         final_accuracy=0.1, best_accuracy=0.1, ll=0.01, il=0.0)
        bad = dict(good.to_dict(), **{field: value})
        path = tmp_path / "ledger.jsonl"
        append_records(path, [good])
        with open(path, "ab") as f:
            f.write(b"\n" + json.dumps(bad).encode() + b"\n\xff\n")
        assert scan_ledger(path) == ([good], [3, 4])


class TestReports:
    @staticmethod
    def gain_records():
        records = []
        for target, source, best, other, _ in REPORTED_GAIN_ROWS:
            hi_is_best = target in ("tool", "fruit")
            acc_001 = other if hi_is_best else best
            acc_01 = best if hi_is_best else other
            for ll, acc in ((0.01, acc_001), (0.1, acc_01)):
                records.append(RunRecord(kind="ll", task=target, source=source,
                                         seed=0, final_accuracy=acc / 100.0,
                                         best_accuracy=acc / 100.0, ll=ll,
                                         il=0.0))
        return records

    def test_percent_gains_recomputed_from_ledger(self):
        report = report_from_records(self.gain_records())
        gains = {(r["target"], r["source"]): r["percent_gain"]
                 for r in report["gain_table"]}
        for target, source, best, other, printed in REPORTED_GAIN_ROWS:
            expected = percent_gain(best, other)
            assert gains[(target, source)] == pytest.approx(expected, rel=1e-12)

    def test_report_numbers_recomputable_and_deterministic(self):
        records = self.gain_records()
        r1 = report_from_records(records)
        r2 = report_from_records(list(records))
        assert r1 == r2
        assert render_report(r1) == render_report(r2)
        assert json.dumps(r1, sort_keys=True)  # json-serializable

    def test_render_contains_columns(self):
        text = render_report(report_from_records(self.gain_records()))
        assert "LL-0.01" in text and "LL-0.1" in text and "% Gain" in text
        assert "status: complete" in text

    def test_one_rate_table_feeds_both_tables(self):
        def rec(task, ll, il, acc, kind="grid"):
            return RunRecord(kind=kind, task=task, source="s", seed=0, ll=ll,
                             il=il, final_accuracy=acc, best_accuracy=acc)
        records = [
            rec("u", 0.01, 0.0, 0.0, "ll"),     # a zero baseline: no gain
            rec("u", 0.1, 0.0, 0.4, "ll"), rec("u", 0.1, 0.01, 0.6),
            rec("t", 0.01, 0.0, 0.4, "ll"),
            rec("t", 0.01, 0.001, 0.6),
            rec("t", 0.1, 0.0, 0.5), rec("t", 0.1, 0.01, 0.3),
            rec("t", 0.1, 0.1, 0.5),
            rec("t", 1.0, 0.0, 0.2),            # only its IL=0 cell
            rec("t", 0.01, 0.0, 0.5),           # repeats a cell: the last wins
            rec("t", 10.0, 0.0, 0.9, "baseline")]
        assert report_from_records(records) == {
            "note": ACCURACY_NOTE,
            "gain_table": [
                # LL 0.01 and 0.1 tie at 0.5: the smaller is best
                {"target": "t", "source": "s", "best_ll": 0.01,
                 "percent_gain": percent_gain(0.5, 0.2),
                 "accuracy_by_ll": {"0.01": 0.5, "0.1": 0.5, "1": 0.2}},
                {"target": "u", "source": "s", "best_ll": 0.1,
                 "percent_gain": None,
                 "accuracy_by_ll": {"0.01": 0.0, "0.1": 0.4}}],
            "best_rate_table": [
                {"target": "t", "source": "s",
                 "alpha": {"0.01": 0.001, "0.1": 0.0},
                 "beta": {"0.01": beta([0.5, 0.6]),
                          "0.1": beta([0.5, 0.3, 0.5])},
                 "max_accuracy": {"0.01": 0.6, "0.1": 0.5},
                 "max_diff": 0.5 - 0.6},
                {"target": "u", "source": "s", "alpha": {"0.1": 0.01},
                 "beta": {"0.1": beta([0.4, 0.6])},
                 "max_accuracy": {"0.1": 0.6}, "max_diff": None}]}

    def test_rates_that_print_alike_keep_their_own_columns(self):
        # LL 0.1 and 0.1000001 are one "0.1" under :g
        def rec(ll, il, acc):
            return RunRecord(kind="grid", task="t", source="s", seed=0, ll=ll,
                             il=il, final_accuracy=acc, best_accuracy=acc)
        report = report_from_records([
            rec(0.1, 0.0, 0.3), rec(0.1, 0.01, 0.4),
            rec(0.1000001, 0.0, 0.9), rec(0.1000001, 0.01, 0.8)])
        assert report["gain_table"] == [
            {"target": "t", "source": "s", "best_ll": 0.1000001,
             "percent_gain": percent_gain(0.9, 0.3),
             "accuracy_by_ll": {"0.1": 0.3, "0.1000001": 0.9}}]
        (row,) = report["best_rate_table"]
        assert row["alpha"] == {"0.1": 0.01, "0.1000001": 0.0}
        assert row["max_accuracy"] == {"0.1": 0.4, "0.1000001": 0.9}
        text = render_report(report)
        for header in ("LL-0.1 ", "LL-0.1000001", "alpha_0.1 ", "beta_0.1000001"):
            assert header in text

    def test_empty_records_render_cleanly(self):
        text = render_report(report_from_records([]))
        assert "(no records)" in text
        assert "scale_sweep" not in report_from_records(self.gain_records())

    def test_scale_sweep_analysis_over_complete_tasks(self):
        def rec(kind, task, acc, scale=None):
            return RunRecord(kind=kind, task=task, source="s", seed=0,
                             final_accuracy=acc, best_accuracy=acc,
                             scale=scale)
        # t2 lacks scale 2, so only t3 and t1 are analyzed; t4 only has its
        # baseline
        records = [rec("graduated", "t3", 0.5, 1.0),
                   rec("graduated", "t3", 0.7, 2.0),
                   rec("graduated", "t2", 0.9, 1.0),
                   rec("graduated", "t1", 0.6, 2.0),
                   rec("graduated", "t1", 0.6, 1.0),
                   rec("baseline", "t1", 0.2), rec("baseline", "t4", 0.4)]
        report = report_from_records(records)
        assert report["scale_sweep"] == {
            "jobs_executed": 5, "scales": [1.0, 2.0],
            "task_ids": ["t3", "t2", "t1", "t4"],
            "best_per_task": {"t1": {"scale": 1.0, "accuracy": 0.6},
                              "t3": {"scale": 2.0, "accuracy": 0.7}},
            "best_per_task_mean": (0.7 + 0.6) / 2,
            "fixed_scale_means": {"1": (0.5 + 0.6) / 2, "2": (0.7 + 0.6) / 2},
            "most_frequent_best_scale": 1.0,
            "most_frequent_scale_mean": (0.5 + 0.6) / 2,
            "baseline_mean": (0.2 + 0.4) / 2}
        text = render_report(report)
        assert text.endswith("## Scale sweep analysis\n" + json.dumps(
            report["scale_sweep"], indent=2, sort_keys=True) + "\n")


def small_source_checkpoint(tmp_path, num_labels=3, seed=11):
    spec = mini_staged_spec(widths=(2, 3), input_shape=(1, 8, 8))
    model = build_staged_network(spec, (1, 8, 8), num_labels, seed=seed)
    path = tmp_path / f"source{seed}.ftlb"
    save_checkpoint(checkpoint_from_model(model, {"domain": "srcdom"}), path)
    return load_checkpoint(path)


def small_task(task_id="taskA", seed=21, rho=0.9, labels=3, per_label=12):
    ds = gen_synthetic_domain(SyntheticDomainSpec(
        task_id, labels, per_label, image_size=8, motif_size=4, num_motifs=4,
        relatedness=rho, seed=seed, family_seed=99))
    train_ds, val_ds = split_train_val(ds, 2 / 3, seed=5)
    return FinetuneTask(task_id, train_ds, val_ds)


FAST_POLICY = LrPolicy(base_lr=0.01, step_size=20, total_iterations=40)


class TestRunLlExperiment:
    def test_inner_stages_frozen_byte_identical(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        out = tmp_path / "ft.ftlb"
        run_ll_experiment(source, task, ll=0.1, policy=FAST_POLICY,
                          batch_size=6, seed=1, save_path=out)
        result = load_checkpoint(out)
        for name, arr in source.tensors.items():
            if name.startswith("fc/"):
                continue
            assert result.tensors[name].tobytes() == arr.tobytes()

    def test_two_ll_values_feed_percent_gain(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        recs = [run_ll_experiment(source, task, ll, FAST_POLICY, 6, seed=1)
                for ll in (0.01, 0.1)]
        assert len(recs) == 2
        assert {r.ll for r in recs} == {0.01, 0.1}
        assert all(0.0 <= r.best_accuracy <= 1.0 for r in recs)
        if min(r.best_accuracy for r in recs) > 0:
            best = max(r.best_accuracy for r in recs)
            other = min(r.best_accuracy for r in recs)
            assert percent_gain(best, other) >= 0.0

    def test_identical_config_identical_accuracy(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        a = run_ll_experiment(source, task, 0.05, FAST_POLICY, 6, seed=9)
        b = run_ll_experiment(source, task, 0.05, FAST_POLICY, 6, seed=9)
        assert a == b

    def test_non_positive_ll_rejected(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        with pytest.raises(ValueError, match="positive"):
            run_ll_experiment(source, task, 0.0, FAST_POLICY, 6, seed=1)


class TestPrefixMemo:
    """run_job computes a task's frozen prefix once per frozen weights."""

    LLS = (0.01, 0.05, 0.1)

    @staticmethod
    def big_task():
        # 300 training and 150 validation rows: two 256-row batches and one
        return small_task(per_label=150)

    def ll_runs(self, source, tasks, out_dir):
        """A head-only job per LL, each on its task; records and checkpoints."""
        out_dir.mkdir()
        records = [run_ll_experiment(source, task, ll, FAST_POLICY, 6, seed=4,
                                     save_path=out_dir / f"{ll:g}.ftlb")
                   for task, ll in zip(tasks, self.LLS)]
        return records, [(out_dir / f"{ll:g}.ftlb").read_bytes()
                         for ll in self.LLS]

    def test_jobs_on_one_task_run_the_frozen_convs_once(self, tmp_path,
                                                        monkeypatch):
        source = small_source_checkpoint(tmp_path)
        fresh = self.ll_runs(source, [self.big_task() for _ in self.LLS],
                             tmp_path / "fresh")
        calls = []
        original = Conv2d.forward

        def counting(layer, x):
            calls.append(len(x))
            return original(layer, x)

        monkeypatch.setattr(Conv2d, "forward", counting)
        task = self.big_task()
        shared = self.ll_runs(source, [task] * 3, tmp_path / "shared")
        # conv1 and conv2, each over two training batches and one validation
        assert sorted(calls) == sorted([256, 44, 150] * 2)
        assert len(task.prefixes) == 1
        assert shared == fresh

    def test_one_prefix_key_per_job(self, tmp_path, monkeypatch):
        keys = []
        original = optim.prefix_key

        def counting(*args):
            keys.append(original(*args))
            return keys[-1]

        monkeypatch.setattr(optim, "prefix_key", counting)
        source, task = small_source_checkpoint(tmp_path), small_task()
        counts = []
        for _ in range(2):      # a memo miss, then a hit
            before = len(keys)
            run_ll_experiment(source, task, 0.1, FAST_POLICY, 6, seed=4)
            counts.append(len(keys) - before)
        assert counts == [1, 1]
        assert list(task.prefixes) == [keys[0]]

    def test_other_frozen_weights_miss_the_memo(self, tmp_path):
        task = small_task()
        run_ll_experiment(small_source_checkpoint(tmp_path), task, 0.1,
                          FAST_POLICY, 6, seed=4)
        other = small_source_checkpoint(tmp_path, seed=12)
        record = run_ll_experiment(other, task, 0.1, FAST_POLICY, 6, seed=4)
        assert len(task.prefixes) == 2
        assert record == run_ll_experiment(other, small_task(), 0.1,
                                           FAST_POLICY, 6, seed=4)


class TestRunGrid:
    def test_grid_accounting_and_metrics(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        grid = GridSpec(ll_values=(0.01, 0.1))
        result = run_il_ll_grid(source, task, grid, FAST_POLICY, 6, seed=2)
        assert result.runs_executed == 4 + 5
        per_ll = {ll: [r for r in result.records if r.ll == ll]
                  for ll in (0.01, 0.1)}
        assert len(per_ll[0.01]) == 4
        assert len(per_ll[0.1]) == 5
        for ll, summary in result.summaries.items():
            accs = [r.best_accuracy for r in per_ll[ll]]
            assert summary.max_accuracy == max(accs)
            assert summary.beta == pytest.approx(
                (max(accs) - min(accs)) / min(accs) * 100.0, rel=1e-12)
            by_il = {r.il: r.best_accuracy for r in per_ll[ll]}
            assert summary.alpha == min(
                by_il, key=lambda il: (-by_il[il], il))
        assert result.max_diff == pytest.approx(
            result.summaries[0.1].max_accuracy
            - result.summaries[0.01].max_accuracy, rel=1e-12)

    def test_il_zero_cell_reproduces_ll_experiment_bit_exact(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        grid = GridSpec(ll_values=(0.1,))
        result = run_il_ll_grid(source, task, grid, FAST_POLICY, 6, seed=3)
        cell = next(r for r in result.records if r.il == 0.0)
        solo = run_ll_experiment(source, task, 0.1, FAST_POLICY, 6, seed=3)
        assert cell.best_accuracy == solo.best_accuracy
        assert cell.final_accuracy == solo.final_accuracy

    def test_shared_first_sweep_is_per_stage_with_the_first_repeated(
            self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task("taskA", seed=21)
        inputs = JobInputs(source, {"taskA": task}, FAST_POLICY, 6, 0.9)
        runs = []
        for multipliers, layout in (((2.0,), "shared_first"),
                                    ((2.0, 2.0), "per_stage")):
            spec = GraduatedSpec(inner_multipliers=multipliers,
                                 head_multiplier=4.0, scales=(0.25, 1.0),
                                 layout=layout)
            specs = scale_jobs(source, ["taskA"], spec, master_seed=7)
            assert specs[0].schedule.stage_multipliers == {
                "conv1": 2.0, "conv2": 2.0, "fc": 4.0}
            runs.append(run_jobs(inputs, specs))
        records, failures = runs[0]
        assert failures == [] and len(records) == 3
        assert runs[0] == runs[1]

    def test_process_pool_matches_serial(self, tmp_path):
        source = small_source_checkpoint(tmp_path)
        task = small_task()
        grid = GridSpec(ll_values=(0.01, 0.1))
        serial = run_il_ll_grid(source, task, grid, FAST_POLICY, 6, seed=3)
        for workers in (2, 3):
            pooled = run_il_ll_grid(source, task, grid, FAST_POLICY, 6, seed=3,
                                    workers=workers)
            assert pooled.records == serial.records
            assert pooled.summaries == serial.summaries
            assert pooled.max_diff == serial.max_diff
        # the IL=0 cell of a pooled grid still reproduces the head-only job
        cell = next(r for r in pooled.records if r.ll == 0.1 and r.il == 0.0)
        solo = run_ll_experiment(source, task, 0.1, FAST_POLICY, 6, seed=3)
        assert (cell.best_accuracy, cell.final_accuracy) == (
            solo.best_accuracy, solo.final_accuracy)


class TestScaleSweep:
    def sweep(self, tmp_path, workers=1, tasks=None, batch_size=6,
              out_dir=None):
        """The records and failures of a 2-task sweep over 3 scales."""
        source = small_source_checkpoint(tmp_path)
        if tasks is None:
            tasks = [small_task("taskA", seed=21), small_task("taskB", seed=22)]
        spec = GraduatedSpec(inner_multipliers=(0.0, 2.0), head_multiplier=4.0,
                             scales=(0.25, 1.0, 4.0))
        specs = scale_jobs(source, [t.task_id for t in tasks], spec,
                           master_seed=7, out_dir=out_dir)
        if out_dir is not None:
            (out_dir / "checkpoints").mkdir(parents=True)
        inputs = JobInputs(source, {t.task_id: t for t in tasks}, FAST_POLICY,
                           batch_size, 0.9)
        return run_jobs(inputs, specs, workers)

    def test_job_accounting_exact(self, tmp_path):
        records, failures = self.sweep(tmp_path)
        assert failures == []
        assert [r.kind for r in records] == ["graduated"] * 6 + ["baseline"] * 2
        assert len({(r.task, r.scale) for r in records[:6]}) == 6
        assert report_from_records(records)["scale_sweep"]["jobs_executed"] == 6

    def test_dominance_chain(self, tmp_path):
        result = report_from_records(self.sweep(tmp_path)[0])["scale_sweep"]
        fixed = result["fixed_scale_means"]
        assert result["best_per_task_mean"] >= result["most_frequent_scale_mean"]
        assert result["most_frequent_scale_mean"] >= min(fixed.values())
        assert result["most_frequent_scale_mean"] == fixed[
            f"{result['most_frequent_best_scale']:g}"]

    def test_process_pool_matches_serial(self, tmp_path):
        serial = self.sweep(tmp_path)
        for workers in (2, 3):
            assert self.sweep(tmp_path, workers=workers) == serial

    def failing_tasks(self):
        # taskB trains on 16 examples, so batch 20 fails every one of its jobs
        return [small_task("taskA", seed=21), small_task("taskB", seed=22,
                                                          labels=2)]

    def test_job_error_in_worker_reported_as_serially(self, tmp_path):
        serial, pooled = [self.sweep(tmp_path, workers, self.failing_tasks(), 20)
                          for workers in (1, 2)]
        records, failures = serial
        assert len(failures) == 4
        assert failures[0].job == "taskB scale=0.25"
        assert failures[0].error.startswith("ValueError: batch_size")
        assert {r.task for r in records} == {"taskA"}
        assert pooled == serial

    def test_dead_worker_costs_only_its_job(self, tmp_path, monkeypatch):
        serial, _ = self.sweep(tmp_path, out_dir=tmp_path / "serial")
        out_dir = tmp_path / "pooled"
        # the last job dies once the other 7 have saved their checkpoints
        die_in_worker(monkeypatch, "taskB baseline", out_dir / "checkpoints",
                      others=7)
        records, failures = self.sweep(tmp_path, workers=2, out_dir=out_dir)
        assert failures == [JobFailure("taskB baseline", "worker process died")]
        assert records == serial[:7]

    def test_seeds_derived_from_master_task_and_scale(self, tmp_path):
        records, _ = self.sweep(tmp_path)
        for r in records[:6]:
            assert r.seed == derive_seed(7, r.task, r.scale, "data")

    def test_close_scales_save_to_their_own_paths(self, tmp_path):
        spec = GraduatedSpec(inner_multipliers=(0.0, 2.0),
                             scales=(0.1, 0.1000001))
        specs = scale_jobs(small_source_checkpoint(tmp_path), ["t"], spec, 7,
                           out_dir=str(tmp_path))
        assert [s.checkpoint for s in specs] == [
            "checkpoints/t_scale0.1.ftlb", "checkpoints/t_scale0.1000001.ftlb",
            "checkpoints/t_baseline.ftlb"]
        assert len({s.save_path for s in specs}) == len({s.name for s in specs}) == 3

    def test_unique_task_ids_required(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            scale_jobs(small_source_checkpoint(tmp_path), ["same", "same"],
                       GraduatedSpec(inner_multipliers=(0.0, 2.0)), 7)

    def test_at_least_one_task_required(self, tmp_path):
        with pytest.raises(ValueError, match="^scale sweep needs at least one "
                                             "task$"):
            scale_jobs(small_source_checkpoint(tmp_path), [],
                       GraduatedSpec(inner_multipliers=(0.0, 2.0)), 7)

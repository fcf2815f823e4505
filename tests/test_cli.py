"""End-to-end CLI tests: configs, pipelines, ledgers, reports, exit codes."""

import io
import json
import os
import struct
import tracemalloc

import pytest

from conftest import (BROKEN_DATASET_CASES, FAST_POLICY, TINY_MODEL,
                      die_in_worker, write_broken_dataset, write_config)
from ftlab import binio
from ftlab.cli import ModelConfig, RunConfig, main
from ftlab.data import load_dataset
from ftlab.experiment import (RunRecord, append_records, derive_seed,
                              percent_gain)
from ftlab.model import (CheckpointError, build_staged_network,
                         checkpoint_from_model, load_checkpoint,
                         mini_staged_spec, transfer_init)
from ftlab.optim import evaluate


def crafted_checkpoint(meta: bytes, tensors: bytes = b"", count: int = 0) -> bytes:
    """FTLB header around raw metadata and raw named-tensor bytes."""
    return (b"FTLB" + struct.pack("<II", 1, len(meta)) + meta
            + struct.pack("<I", count) + tensors)


def forged_digest_checkpoint() -> bytes:
    """A whole checkpoint of the TINY_MODEL net whose digest is 64 f's."""
    shape = tuple(TINY_MODEL["input_shape"])
    net = build_staged_network(mini_staged_spec(TINY_MODEL["widths"], shape),
                               shape, 3, seed=0)
    ckpt = checkpoint_from_model(net, {"digest": "f" * 64})
    tensors = io.BytesIO()
    for name, arr in ckpt.tensors.items():
        binio.write_named_tensor(tensors, name, arr)
    return crafted_checkpoint(json.dumps(ckpt.metadata).encode(),
                              tensors.getvalue(), len(ckpt.tensors))


# each one escaped load_checkpoint as a bare Python exception before
MALFORMED_CHECKPOINTS = {
    "rank8_max_dims": crafted_checkpoint(
        b"{}", struct.pack("<H", 1) + b"w" + struct.pack("<B8I", 8, *[0xFFFFFFFF] * 8),
        count=1),
    "non_utf8_name": crafted_checkpoint(
        b"{}", struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BIf", 1, 1, 0.0),
        count=1),
    "metadata_not_object": crafted_checkpoint(b"5"),
    # a 4 GB metadata read: a MemoryError under a memory limit
    "metadata_length_past_end": b"FTLB" + struct.pack("<II", 1, 0xFFFFFFF0),
    # every field present, but "arch" cannot be iterated
    "arch_not_a_list": crafted_checkpoint(json.dumps(
        {"arch": 5, "digest": "0", "input_shape": [1, 8, 8],
         "iterations": 0, "num_labels": 3, "seed": 0}).encode()),
    # a layer size that numpy cannot take as a shape
    "layer_size_not_an_int": crafted_checkpoint(json.dumps(
        {"arch": [{"name": "conv1", "layers": [{"kind": "conv2d",
                                                "out_channels": "2"}]},
                  {"name": "fc", "layers": [{"kind": "dense"}]}],
         "digest": "0", "input_shape": [1, 8, 8], "iterations": 0,
         "num_labels": 3, "seed": 0}).encode()),
    # sound in every other way: it finetuned and exited 0
    "digest_forged": forged_digest_checkpoint(),
}


def read_ledger_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class TestRunConfig:
    def full_config_dict(self):
        return {
            "policy": dict(FAST_POLICY),
            "model": {"input_shape": [1, 8, 8], "widths": [2, 3],
                      "kernel_size": 3, "residual": True, "pools": None,
                      "head_name": "fc"},
            "batch_size": 4,
            "momentum": 0.5,
            "seed": 11,
            "workers": 2,
            "data": {"dataset": "x", "partition_seed": 1},
            "schedule": {"ll": 0.01, "il": 0.0},
            "grid": {"ll_values": [0.01, 0.1], "min_il": 0.0001},
            "graduated": {"inner_multipliers": [0, 1, 2, 4, 8],
                          "head_multiplier": 16, "scales": [0.25, 1.0],
                          "layout": "per_stage"},
            "baseline_ll_multiplier": 10.0,
            "source_checkpoint": "src.ftlb",
            "recommender": {"breakpoints": [[0.0, 0.0001], [25.0, 0.001]]},
            "domains": None,
        }

    def test_parse_serialize_round_trip(self):
        cfg = RunConfig.from_dict(self.full_config_dict())
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation_collects_every_error(self, capsys, tmp_path):
        bad = {"policy": {"base_lr": -1, "step_size": 0,
                          "total_iterations": 10},
               "batch_size": 0, "momentum": 2.0, "workers": 0,
               "bogus_field": 1}
        config = write_config(tmp_path / "bad.json", bad)
        rc = main(["train-source", config, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        for fragment in ("policy", "batch_size", "momentum", "workers",
                         "bogus_field"):
            assert fragment in err

    def test_unreadable_config_is_validation_error(self, tmp_path):
        assert main(["train-source", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_that_is_not_an_object_is_validation_error(self, tmp_path,
                                                              capsys):
        config = write_config(tmp_path / "c.json", [1])
        assert main(["train-source", config, "--out", str(tmp_path / "o")]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_default_model_config(self):
        cfg = RunConfig.from_dict({"policy": dict(FAST_POLICY)})
        assert cfg.model == ModelConfig()
        assert cfg.batch_size is None and cfg.workers == 1

    def test_training_commands_require_batch_size(self, tmp_path, capsys,
                                                  data_root):
        cfg = {"policy": dict(FAST_POLICY), "model": dict(TINY_MODEL),
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4}}
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(tmp_path / "o")]) == 1
        assert "batch_size" in capsys.readouterr().err


class TestGenData:
    def test_datasets_written_and_loadable(self, data_root):
        for name, expected in (("srcdom", 72), ("near", 36), ("far", 36)):
            ds = load_dataset(data_root / name)
            assert len(ds) == expected
            assert ds.num_labels == 3
        assert (data_root.parent / "domains" / "srcdom" / "manifest.tsv").exists()

    def test_missing_domains_section_rejected(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"policy": FAST_POLICY})
        assert main(["gen-data", config, "--out", str(tmp_path / "o")]) == 1


class TestTrainSource:
    def test_outputs_present(self, source_run):
        assert (source_run / "source.ftlb").exists()
        assert (source_run / "ledger.jsonl").exists()
        assert (source_run / "config.json").exists()
        records = read_ledger_lines(source_run / "ledger.jsonl")
        assert len(records) == 1
        assert records[0]["kind"] == "source"
        assert records[0]["checkpoint"] == "source.ftlb"

    def test_same_config_twice_byte_identical_checkpoints(self, tmp_path,
                                                          data_root):
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 6,
               "seed": 3,
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4}}
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            config = write_config(tmp_path / f"{sub}.json", cfg)
            assert main(["train-source", config, "--out", str(out)]) == 0
            blobs.append((out / "source.ftlb").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_dataset_path_names_problem(self, tmp_path, capsys):
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL,
               "data": {"dataset": str(tmp_path / "nope"),
                        "partition_seed": 1}}
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(tmp_path / "o")]) == 1
        assert "data" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BROKEN_DATASET_CASES)
    def test_broken_dataset_exits_1_naming_the_line(self, tmp_path, capsys,
                                                    case):
        write_broken_dataset(tmp_path / "ds", case)
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 2,
               "data": {"train_dir": str(tmp_path / "ds"),
                        "val_dir": str(tmp_path / "ds")}}
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(tmp_path / "o")]) == 1
        assert "manifest.tsv:2: a/1.ftt" in capsys.readouterr().err

    def test_seed_override_recorded(self, tmp_path, data_root):
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 6,
               "seed": 3,
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4}}
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(out),
                     "--seed", "555"]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["seed"] == 555
        assert read_ledger_lines(out / "ledger.jsonl")[0]["seed"] == 555


class TestFinetune:
    def finetune_cfg(self, data_root, source_run, schedule):
        return {"policy": FAST_POLICY, "batch_size": 6, "seed": 8,
                "source_checkpoint": str(source_run / "source.ftlb"),
                "data": {"dataset": str(data_root / "near"),
                         "split": {"train_fraction": 2 / 3, "seed": 5}},
                "schedule": schedule}

    def test_head_only_keeps_inner_bytes(self, tmp_path, data_root, source_run):
        cfg = self.finetune_cfg(data_root, source_run,
                                {"ll": 0.1, "il": 0.0})
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 0
        src = load_checkpoint(source_run / "source.ftlb")
        fin = load_checkpoint(out / "finetuned_near.ftlb")
        for name, arr in src.tensors.items():
            if not name.startswith("fc/"):
                assert fin.tensors[name].tobytes() == arr.tobytes()
        record = read_ledger_lines(out / "ledger.jsonl")[0]
        assert record["kind"] == "ll" and record["ll"] == 0.1

    def test_everything_frozen_equals_fresh_head_baseline(self, tmp_path,
                                                          data_root,
                                                          source_run):
        cfg = self.finetune_cfg(data_root, source_run,
                                {"stage_multipliers":
                                 {"conv1": 0.0, "conv2": 0.0, "fc": 0.0}})
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 0
        record = read_ledger_lines(out / "ledger.jsonl")[0]
        # reference: transfer-init model with the same head seed, untouched
        source = load_checkpoint(source_run / "source.ftlb")
        ds = load_dataset(data_root / "near")
        from ftlab.data import split_train_val
        _, val = split_train_val(ds, 2 / 3, seed=5)
        ref = transfer_init(source, ds.num_labels,
                            head_seed=derive_seed(8, "head"))
        assert record["final_accuracy"] == evaluate(ref, val)
        assert record["best_accuracy"] == evaluate(ref, val)

    def test_graduated_schedule_at_quarter_scale(self, tmp_path, data_root,
                                                 source_run):
        cfg = self.finetune_cfg(data_root, source_run,
                                {"graduated_scale": 0.25})
        cfg["graduated"] = {"inner_multipliers": [0, 2],
                            "head_multiplier": 16}
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 0
        record = read_ledger_lines(out / "ledger.jsonl")[0]
        assert record["kind"] == "graduated"
        assert record["scale"] == 0.25

    def test_missing_source_checkpoint_rejected(self, tmp_path, data_root,
                                                source_run, capsys):
        cfg = self.finetune_cfg(data_root, source_run, {"ll": 0.1})
        cfg["source_checkpoint"] = str(tmp_path / "ghost.ftlb")
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(tmp_path / "o")]) == 1
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_source_checkpoint_exits_1(self, tmp_path, data_root,
                                                 source_run, capsys, case):
        path = tmp_path / "bad.ftlb"
        path.write_bytes(MALFORMED_CHECKPOINTS[case])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            # no read sized by a corrupt field: nothing near its size is
            # allocated, even where the allocation itself would succeed
            assert tracemalloc.get_traced_memory()[1] < 1 << 24
        finally:
            tracemalloc.stop()
        cfg = self.finetune_cfg(data_root, source_run, {"ll": 0.1})
        cfg["source_checkpoint"] = str(path)
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(tmp_path / "o")]) == 1
        assert "source checkpoint" in capsys.readouterr().err


class TestSweep:
    def grid_cfg(self, data_root, source_run):
        return {"policy": FAST_POLICY, "batch_size": 6, "seed": 8,
                "source_checkpoint": str(source_run / "source.ftlb"),
                "data": {"dataset": str(data_root / "near"),
                         "split": {"train_fraction": 2 / 3, "seed": 5}},
                "grid": {"ll_values": [0.01, 0.1]}}

    def graduated_cfg(self, data_root, source_run):
        return {"policy": FAST_POLICY, "batch_size": 6, "seed": 8,
                "source_checkpoint": str(source_run / "source.ftlb"),
                "data": {"tasks": [
                    {"id": "near", "dataset": str(data_root / "near"),
                     "split": {"train_fraction": 2 / 3, "seed": 5}},
                    {"id": "far", "dataset": str(data_root / "far"),
                     "split": {"train_fraction": 2 / 3, "seed": 5}}]},
                "graduated": {"inner_multipliers": [0, 2],
                              "head_multiplier": 4,
                              "scales": [0.25, 1.0, 4.0]}}

    def test_grid_sweep_ledger_and_report(self, tmp_path, data_root,
                                          source_run):
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json",
                              self.grid_cfg(data_root, source_run))
        assert main(["sweep", config, "--out", str(out)]) == 0
        records = read_ledger_lines(out / "ledger.jsonl")
        assert len(records) == 9          # 4 cells at LL=0.01, 5 at LL=0.1
        report = (out / "report.txt").read_text()
        assert "alpha_0.01" in report and "beta_0.1" in report
        assert "beta_0.01" in report
        data = json.loads((out / "report.json").read_text())
        assert data["best_rate_table"]

    def test_graduated_sweep_ledger_counts(self, tmp_path, data_root,
                                           source_run):
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        assert main(["sweep", config, "--out", str(out)]) == 0
        records = read_ledger_lines(out / "ledger.jsonl")
        graduated = [r for r in records if r["kind"] == "graduated"]
        baseline = [r for r in records if r["kind"] == "baseline"]
        assert len(graduated) == 2 * 3
        assert len(baseline) == 2
        report = json.loads((out / "report.json").read_text())
        sweep = report["scale_sweep"]
        assert sweep["jobs_executed"] == 6
        fixed = sweep["fixed_scale_means"]
        assert sweep["best_per_task_mean"] >= sweep["most_frequent_scale_mean"]
        assert sweep["most_frequent_scale_mean"] >= min(fixed.values())
        # checkpoints referenced relative to the out dir
        for r in graduated:
            assert not os.path.isabs(r["checkpoint"])
            assert (out / r["checkpoint"]).exists()

    def test_rerun_with_same_seed_identical_outputs(self, tmp_path, data_root,
                                                    source_run):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            config = write_config(tmp_path / f"{sub}.json",
                                  self.graduated_cfg(data_root, source_run))
            assert main(["sweep", config, "--out", str(out)]) == 0
            blobs.append(((out / "ledger.jsonl").read_bytes(),
                          (out / "report.txt").read_bytes(),
                          (out / "report.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_partial_failure_keeps_completed_jobs(self, tmp_path, data_root,
                                                  source_run, capsys):
        cfg = self.graduated_cfg(data_root, source_run)
        # second task trains on 24 examples; batch 30 is impossible
        cfg["batch_size"] = 30
        cfg["data"]["tasks"][0]["split"] = {"train_fraction": 5 / 6, "seed": 5}
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        rc = main(["sweep", config, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "partial" in err
        records = read_ledger_lines(out / "ledger.jsonl")
        completed = [r for r in records if r["kind"] == "graduated"]
        assert 0 < len(completed) < 6
        assert "status: partial" in (out / "report.txt").read_text()

    def test_forged_source_digest_exits_1_before_any_job(self, tmp_path,
                                                         data_root, source_run,
                                                         capsys):
        path = tmp_path / "forged.ftlb"
        path.write_bytes(MALFORMED_CHECKPOINTS["digest_forged"])
        cfg = self.grid_cfg(data_root, source_run)
        cfg["source_checkpoint"] = str(path)
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "source checkpoint" in err and "digest" in err
        assert "failed job" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_override_validated_like_the_config_field(
            self, tmp_path, data_root, source_run, capsys, workers):
        config = write_config(tmp_path / "c.json",
                              self.grid_cfg(data_root, source_run))
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out),
                     "--workers", workers]) == 1
        assert "workers must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def sweep_tree(self, out):
        names = ["ledger.jsonl", "report.txt", "report.json"]
        names += sorted(f"checkpoints/{n}" for n in os.listdir(out / "checkpoints"))
        return {name: (out / name).read_bytes() for name in names}

    def test_worker_count_does_not_change_outputs(self, tmp_path, data_root,
                                                  source_run):
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", config, "--out", str(out),
                         "--workers", workers]) == 0
            trees.append(self.sweep_tree(out))
        assert len(trees[0]) == 3 + 8
        assert trees[0] == trees[1]

    def test_dead_worker_gives_partial_sweep(self, tmp_path, data_root,
                                             source_run, capsys, monkeypatch):
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        whole = tmp_path / "whole"
        assert main(["sweep", config, "--out", str(whole)]) == 0
        out = tmp_path / "o"
        # the last of the 8 jobs dies once the others have saved their models
        die_in_worker(monkeypatch, "far baseline", out / "checkpoints", others=7)
        assert main(["sweep", config, "--out", str(out), "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "failed job far baseline: worker process died" in err
        lines = (out / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        assert lines == (whole / "ledger.jsonl").read_bytes().splitlines(
            keepends=True)[:7]
        assert "status: partial" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("field, value, message", [
        ("inner_multipliers", [0, 2, 4], "2 inner stages but 3 multipliers"),
        ("baseline_ll_multiplier", -1.0, "multiplier must be >= 0")])
    def test_schedules_checked_before_any_job(self, tmp_path, data_root,
                                              source_run, capsys, field,
                                              value, message):
        cfg = self.graduated_cfg(data_root, source_run)
        if field == "inner_multipliers":     # the tiny net has 2 inner stages
            cfg["graduated"][field] = value
        else:
            cfg[field] = value
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "failed job" not in err
        assert not out.exists()

    def test_grid_and_graduated_both_given_rejected(self, tmp_path, data_root,
                                                    source_run):
        cfg = self.grid_cfg(data_root, source_run)
        cfg["graduated"] = {"inner_multipliers": [0, 2]}
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", config, "--out", str(tmp_path / "o")]) == 1


class TestReport:
    REFERENCE_GAINS = [
        ("fabric", "garment", 13.09, 11.33),
        ("oxford", "plants", 91.06, 73.17),
        ("fungus", "plant", 13.12, 5.80),
    ]

    def write_gain_ledger(self, path):
        records = []
        for target, source, a001, a01 in self.REFERENCE_GAINS:
            for ll, acc in ((0.01, a001), (0.1, a01)):
                records.append(RunRecord(kind="ll", task=target, source=source,
                                         seed=0, final_accuracy=acc / 100,
                                         best_accuracy=acc / 100, ll=ll,
                                         il=0.0))
        append_records(path, records)

    def test_percent_gain_recomputed_within_tolerance(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self.write_gain_ledger(ledger)
        out = tmp_path / "rep"
        assert main(["report", str(ledger), "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        gains = {(r["target"], r["source"]): r["percent_gain"]
                 for r in data["gain_table"]}
        for target, source, best, other in self.REFERENCE_GAINS:
            assert gains[(target, source)] == pytest.approx(
                percent_gain(best, other), abs=0.05)
        # fungus row: documented divergence from the printed 127.79
        assert gains[("fungus", "plant")] == pytest.approx(126.21, abs=0.005)

    def test_empty_ledger_exits_success(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("")
        assert main(["report", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "(no records)" in out

    def test_corrupt_records_warn_but_succeed(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self.write_gain_ledger(ledger)
        with open(ledger, "a") as f:
            f.write("garbage\n{}\n")
        assert main(["report", str(ledger)]) == 0
        assert "skipped 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", [
        b"\xff\xfe\n",
        # joins the fabric/garment row of the gain table
        b'{"kind": "ll", "task": "fabric", "source": "garment", "seed": 0, '
        b'"ll": 0.5, "il": 0.0, "final_accuracy": 0.5, '
        b'"best_accuracy": "high"}\n',
    ], ids=["not_utf8", "accuracy_not_a_number"])
    def test_malformed_line_skipped_with_its_number(self, tmp_path, capsys,
                                                    bad_line):
        ledger = tmp_path / "ledger.jsonl"
        self.write_gain_ledger(ledger)
        good_lines = len(ledger.read_bytes().splitlines())
        with open(ledger, "ab") as f:
            f.write(bad_line)
        assert main(["report", str(ledger)]) == 0
        captured = capsys.readouterr()
        assert (f"{ledger}: skipped 1 corrupt record(s) at line(s) "
                f"{good_lines + 1}") in captured.err
        assert "fabric" in captured.out
        assert "1 records skipped" in captured.out

    def test_missing_ledger_is_validation_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1


class TestGradCheckCommand:
    def test_default_model_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert "passed" in out

    def test_epsilon_flag(self, capsys):
        assert main(["grad-check", "--epsilon", "1e-5"]) == 0

"""End-to-end CLI tests: configs, pipelines, ledgers, reports, exit codes."""

import json
import os
import platform
import struct
import tracemalloc
from dataclasses import replace

import pytest

from conftest import (BROKEN_DATASET_CASES, FAST_POLICY, TINY_MODEL,
                      die_in_worker, one_conv_metadata, run_python,
                      tensor_records, write_broken_dataset, write_config)
from ftlab import cli, experiment
from ftlab.cli import ConfigError, RunConfig, load_config, main
from ftlab.codec import decode, encode
from ftlab.data import (SyntheticDomainSpec, gen_synthetic_domain,
                        load_dataset, save_dataset, split_train_val)
from ftlab.experiment import (FinetuneTask, RunRecord, append_records,
                              derive_seed, percent_gain, run_ll_experiment)
from ftlab.model import (CheckpointError, MiniNet, build_staged_network,
                         checkpoint_from_model, load_checkpoint,
                         mini_staged_spec, save_checkpoint, transfer_init)
from ftlab.optim import LrPolicy, evaluate


def crafted_checkpoint(meta: bytes, tensors: bytes = b"", count: int = 0) -> bytes:
    """FTLB header around raw metadata and raw named-tensor bytes."""
    return (b"FTLB" + struct.pack("<II", 1, len(meta)) + meta
            + struct.pack("<I", count) + tensors)


def tiny_checkpoint(edit=lambda meta: None, records=lambda items: items) -> bytes:
    """A whole checkpoint of the TINY_MODEL net, its metadata changed by edit
    and its (name, array) tensor records, in file order, replaced by
    records(items)."""
    shape = tuple(TINY_MODEL["input_shape"])
    net = build_staged_network(mini_staged_spec(TINY_MODEL["widths"], shape),
                               shape, 3, seed=0)
    ckpt = checkpoint_from_model(net)
    meta = ckpt.metadata
    edit(meta)
    items = records(list(ckpt.tensors.items()))
    return crafted_checkpoint(json.dumps(meta).encode(), tensor_records(items),
                              len(items))


# the header is sound, but the tensors do not fit its architecture
MISFIT_CHECKPOINTS = {
    "missing": (tiny_checkpoint(records=lambda items: [
        (n, a) for n, a in items if n != "conv2/0/b"]),
        "checkpoint missing tensor 'conv2/0/b'"),
    "unexpected": (tiny_checkpoint(records=lambda items: [
        ("conv2/0/c" if n == "conv2/0/b" else n, a) for n, a in items]),
        "checkpoint has unexpected tensor 'conv2/0/c'"),
    "misshapen": (tiny_checkpoint(records=lambda items: [
        (n, a[..., :2] if n == "conv1/0/w" else a) for n, a in items]),
        "tensor 'conv1/0/w' has shape (2, 1, 3, 2), model expects "
        "(2, 1, 3, 3)"),
    "repeated": (tiny_checkpoint(records=lambda items: items + items[:1]),
                 "tensor 7/7: name 'conv1/0/w' repeats"),
}


# each one escaped load_checkpoint as a bare Python exception before; the
# fault its error names
MALFORMED_CHECKPOINTS = {
    "rank8_max_dims": (crafted_checkpoint(
        b"{}", struct.pack("<H", 1) + b"w" + struct.pack("<B8I", 8, *[0xFFFFFFFF] * 8),
        count=1), "truncated stream while reading data of tensor 1/1 'w'"),
    "non_utf8_name": (crafted_checkpoint(
        b"{}", struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BIf", 1, 1, 0.0),
        count=1), "tensor 1/1: name b'\\xff\\xfe' is not valid UTF-8"),
    "metadata_not_object": (crafted_checkpoint(b"5"),
                            "metadata must be a JSON object, got int"),
    # a 4 GB metadata read: a MemoryError under a memory limit
    "metadata_length_past_end": (
        b"FTLB" + struct.pack("<II", 1, 0xFFFFFFF0),
        "truncated stream while reading metadata (wanted 4294967280 bytes"),
    # every field present, but "arch" cannot be iterated
    "arch_not_a_list": (crafted_checkpoint(json.dumps(
        {"arch": 5, "digest": "0", "input_shape": [1, 8, 8],
         "iterations": 0, "num_labels": 3, "seed": 0}).encode()),
        "metadata: arch must be a list, got 5"),
    # a layer size that numpy cannot take as a shape
    "layer_size_not_an_int": (crafted_checkpoint(json.dumps(
        {"arch": [{"name": "conv1", "layers": [{"kind": "conv2d",
                                                "out_channels": "2"}]},
                  {"name": "fc", "layers": [{"kind": "dense"}]}],
         "digest": "0", "input_shape": [1, 8, 8], "iterations": 0,
         "num_labels": 3, "seed": 0}).encode()),
        "arch[0].layers[0].out_channels must be an integer, got '2'"),
    # sound in every other way: it finetuned and exited 0
    "digest_forged": (tiny_checkpoint(lambda meta: meta.update(digest="f" * 64)),
                      "metadata digest does not match the stored architecture"),
    # the digest masks the head's size, so it matched; a 7-way head with
    # num_labels 3 failed only when the model was rebuilt
    "head_size_not_num_labels": (tiny_checkpoint(
        lambda meta: meta["arch"][-1]["layers"][0].update(out_features=7)),
        "head outputs 7 but num_labels is 3"),
    # the two below loaded: the bytes after the last tensor were ignored, and
    # the second tensor of one name silently replaced the first
    "trailing_bytes": (tiny_checkpoint() + b"\0" * 700,
                       "trailing bytes after the last tensor"),
    "tensor_name_repeats": (MISFIT_CHECKPOINTS["repeated"][0],
                            "tensor 7/7: name 'conv1/0/w' repeats"),
    # a NaN in the last tensor, the head's bias, which finetune re-initializes
    "nan_in_tensor": (tiny_checkpoint()[:-4] + struct.pack("<f", float("nan")),
                      "tensor 6/6 'fc/0/b': data holds NaN or infinity"),
    # cut inside the 12-byte header, 100 bytes into the metadata, and inside
    # the last tensor
    "cut_in_header": (tiny_checkpoint()[:6],
                      "truncated stream while reading version"),
    "cut_in_metadata": (tiny_checkpoint()[:112],
                        "truncated stream while reading metadata"),
    "cut_in_last_tensor": (
        tiny_checkpoint()[:-2],
        "truncated stream while reading data of tensor 6/6 'fc/0/b'"),
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
            "data": {"dataset": "x", "partition_seed": 1, "split": None,
                     "train_dir": None, "val_dir": None, "tasks": None},
            "schedule": {"stage_multipliers": None, "ll": 0.01, "il": 0.0,
                         "graduated_scale": None, "scale": None},
            "grid": {"ll_values": [0.01, 0.1], "min_il": 0.0001},
            "graduated": {"inner_multipliers": [0, 1, 2, 4, 8],
                          "head_multiplier": 16, "scales": [0.25, 1.0],
                          "layout": "per_stage"},
            "baseline_ll_multiplier": 10.0,
            "source_checkpoint": "src.ftlb",
            "domains": None,
        }

    def test_parse_serialize_round_trip(self):
        cfg = decode(RunConfig, self.full_config_dict())
        assert encode(cfg) == self.full_config_dict()
        assert decode(RunConfig, encode(cfg)) == cfg

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
        cfg = decode(RunConfig, {"policy": dict(FAST_POLICY)})
        assert cfg.model == MiniNet()
        assert cfg.batch_size is None and cfg.workers == 1

    def test_training_commands_require_batch_size(self, tmp_path, capsys,
                                                  data_root):
        cfg = {"policy": dict(FAST_POLICY), "model": dict(TINY_MODEL),
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4}}
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(tmp_path / "o")]) == 1
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields", [
        ("train-source", {}), ("finetune", {"schedule": {"ll": 0.1}}),
        ("sweep", {"grid": {"ll_values": [0.1]}})])
    def test_training_commands_require_policy(self, tmp_path, capsys,
                                              data_root, source_run,
                                              command, fields):
        # both errors at once, and no traceback, though finetune's ll
        # schedule and the grid's jobs are rates that need the policy
        cfg = {"model": dict(TINY_MODEL), "seed": 3,
               "source_checkpoint": str(source_run / "source.ftlb"),
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4}}
        config = write_config(tmp_path / "c.json", dict(cfg, **fields))
        out = tmp_path / "o"
        assert main([command, config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: policy is required",
                                             "error: batch_size is required"]
        assert captured.out == ""
        assert not out.exists()


# (command, config fields replaced, a fragment of the error); each one ran, or
# ended in a traceback, before
MALFORMED_CONFIGS = {
    "momentum_not_a_number": ("train-source", {"momentum": "x"},
                              "momentum must be a finite number"),
    "batch_size_bool": ("train-source", {"batch_size": True},
                        "batch_size must be an integer"),
    "seed_bool": ("train-source", {"seed": True}, "seed must be an integer"),
    # config.json was written, then the model's rng raised a ValueError
    "seed_negative": ("train-source", {"seed": -1},
                      "seed must be a non-negative integer, got -1"),
    "residual_not_a_bool": ("train-source",
                            {"model": dict(TINY_MODEL, residual="no")},
                            "model.residual must be a boolean"),
    "grid_key_typo": ("sweep", {"grid": {"ll_value": [5]}},
                      "unknown field 'grid.ll_value'"),
    # every (ll, il) cell ran, and was recorded, twice
    "grid_repeated_ll": ("sweep", {"grid": {"ll_values": [0.1, 0.1],
                                            "min_il": 0.1}},
                         "grid: last-layer rates must not repeat"),
    # only the baseline ran, and the report had no scale-sweep section
    "graduated_no_scales": ("sweep", {"grid": None, "graduated": {
        "inner_multipliers": [0, 2], "scales": []}},
        "graduated: graduated sweep needs at least one scale"),
    # decoded and copied into config.json, but read by no command
    "recommender_section": ("sweep", {"recommender": {
        "breakpoints": [[0, 0.0001], [25, 0.001]]}},
        "unknown field 'recommender'"),
    "zero_width": ("train-source", {"model": dict(TINY_MODEL, widths=[4, 0])},
                   "out_channels must be a positive integer"),
    "even_kernel": ("train-source", {"model": dict(TINY_MODEL, kernel_size=4)},
                    "kernel size must be odd"),
    # trained nothing, but the head's shape check named no model field
    "no_widths": ("train-source", {"model": dict(TINY_MODEL, widths=[])},
                  "widths must list at least one stage width"),
    "no_widths_zero_kernel": ("train-source", {"model": dict(
        TINY_MODEL, widths=[], kernel_size=0)},
        "kernel_size must be a positive integer, got 0"),
    "pools_wrong_length": ("train-source",
                           {"model": dict(TINY_MODEL, pools=[True])},
                           "pools and widths must have the same length"),
    # a checkpoint whose digest matches its arch, which has a 4x4 kernel
    "even_kernel_checkpoint": ("sweep", {}, "kernel size must be odd"),
    # the data and schedule sections; fields given as a function take the
    # path of a real dataset
    "dataset_not_a_string": ("finetune",
                             {"data": {"dataset": 5, "partition_seed": 4},
                              "schedule": {"ll": 0.1}},
                             "data.dataset must be a string"),
    "task_not_an_object": ("sweep",
                           {"grid": None, "data": {"tasks": [5]},
                            "graduated": {"inner_multipliers": [0, 2]}},
                           "data.tasks[0] must be an object"),
    "train_fraction_not_a_number": (
        "finetune", lambda ds: {"data": {"dataset": ds, "split": {
            "train_fraction": "0.5", "seed": 5}}, "schedule": {"ll": 0.1}},
        "data.split.train_fraction must be a finite number"),
    "split_without_seed": (
        "finetune", lambda ds: {"data": {"dataset": ds, "split": {
            "train_fraction": 0.5}}, "schedule": {"ll": 0.1}},
        "data.split.seed is required"),
    "data_key_unknown": (
        "finetune", lambda ds: {"data": {"dataset": ds, "partition_seed": 4,
                                         "partition": 1},
                                "schedule": {"ll": 0.1}},
        "unknown field 'data.partition'"),
    # the tasks were ignored
    "tasks_beside_one_task": (
        "finetune", lambda ds: {"data": {"dataset": ds, "partition_seed": 4,
                                         "tasks": [{"train_dir": ds,
                                                    "val_dir": ds}]},
                                "schedule": {"ll": 0.1}},
        "data entry needs dataset+partition_seed"),
    # the one task was ignored
    "one_task_beside_tasks": (
        "sweep", lambda ds: {"grid": None,
                             "graduated": {"inner_multipliers": [0, 2],
                                           "scales": [1.0]},
                             "data": {"dataset": ds, "partition_seed": 4,
                                      "tasks": [{"dataset": ds,
                                                 "partition_seed": 4}]}},
        "graduated sweep needs data.tasks and no other data field"),
    "schedule_key_unknown": ("finetune", {"schedule": {"ll": 0.1, "lr": 0.1}},
                             "unknown field 'schedule.lr'"),
    "ll_not_a_number": ("finetune", {"schedule": {"ll": "0.1"}},
                        "schedule.ll must be a finite number"),
    # trained at ll and recorded scale 0.25
    "ll_with_graduated_scale": (
        "finetune", {"schedule": {"ll": 0.1, "graduated_scale": 0.25}},
        "schedule needs one of stage_multipliers"),
    "multiplier_not_a_number": (
        "finetune", {"schedule": {"stage_multipliers": {
            "conv1": 0.0, "conv2": "1", "fc": 1.0}}},
        "schedule.stage_multipliers.conv2 must be a finite number"),
    "source_checkpoint_missing": ("finetune", {"source_checkpoint": None,
                                               "schedule": {"ll": 0.1}},
                                  "config needs 'source_checkpoint'"),
    "graduated_scale_without_graduated": (
        "finetune", {"schedule": {"graduated_scale": 0.25}},
        "schedule: graduated_scale needs a 'graduated' section"),
    # failed only after config.json was written
    "stage_multipliers_missing_a_stage": (
        "finetune", {"schedule": {"stage_multipliers": {"conv1": 0.0,
                                                        "conv2": 1.0}}},
        "missing ['fc']"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["report", "l.jsonl", "--seed", "-1", "--workers", "0"],
        ["report", "l.jsonl", "--seed", "1"],
        ["grad-check", "--workers", "1"],
        ["gen-data", "c.json", "--out", "o", "--workers", "1"],
        ["train-source", "c.json", "--out", "o", "--workers", "1"],
        ["finetune", "c.json", "--out", "o", "--workers", "2"]])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv,
                                                             capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_exits_1_with_only_errors_before_any_output(
            self, tmp_path, data_root, source_run, capsys, case):
        command, fields, fragment = MALFORMED_CONFIGS[case]
        if callable(fields):
            fields = fields(str(data_root / "srcdom"))
        source = source_run / "source.ftlb"
        if case == "even_kernel_checkpoint":
            source = tmp_path / "even.ftlb"
            source.write_bytes(crafted_checkpoint(
                json.dumps(one_conv_metadata(4)).encode()))
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 6,
               "seed": 3, "source_checkpoint": str(source),
               "data": {"dataset": str(data_root / "srcdom"),
                        "partition_seed": 4},
               "grid": {"ll_values": [0.1]}}
        config = write_config(tmp_path / "c.json", dict(cfg, **fields))
        out = tmp_path / "o"
        assert main([command, config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines)
        assert fragment in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-source", "finetune", "sweep",
                                         "grad-check", "grad-check-default"])
    def test_negative_seed_flag_exits_1_before_any_output(
            self, tmp_path, data_root, source_run, capsys, command):
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 6,
               "source_checkpoint": str(source_run / "source.ftlb"),
               "data": {"dataset": str(data_root / "near"),
                        "partition_seed": 4},
               "schedule": {"ll": 0.1}, "grid": {"ll_values": [0.1]}}
        config = [write_config(tmp_path / "c.json", cfg)]
        if command == "grad-check-default":
            command, config = "grad-check", []
        out = tmp_path / "o"
        assert main([command, *config, "--out", str(out), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: seed must be a non-negative integer, got -1"]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, data, line", [
        *[(command, data, line)
          for command in ("train-source", "finetune", "sweep")
          for data, line in (
              ({"dataset": "d", "partition_seed": -1},
               "data.partition_seed must be a non-negative integer, got -1"),
              ({"dataset": "d", "split": {"train_fraction": 0.5, "seed": -3}},
               "data.split.seed must be a non-negative integer, got -3"))],
        ("sweep", {"tasks": [{"dataset": "d", "partition_seed": 4},
                             {"dataset": "d", "partition_seed": -2}]},
         "data.tasks[1].partition_seed must be a non-negative integer, "
         "got -2"),
        ("sweep", {"tasks": [{"dataset": "d", "split": {
            "train_fraction": 0.5, "seed": -1}}]},
         "data.tasks[0].split.seed must be a non-negative integer, got -1")])
    def test_negative_data_seed_exits_1_naming_the_field(
            self, tmp_path, capsys, command, data, line):
        # it reached numpy, whose error named neither the field nor the value
        cfg = {"policy": FAST_POLICY, "batch_size": 6,
               "source_checkpoint": "s.ftlb", "data": data,
               "schedule": {"ll": 0.1}, "grid": {"ll_values": [0.1]}}
        out = tmp_path / "o"
        assert main([command, write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {line}"]
        assert captured.out == ""
        assert not out.exists()

    def test_even_kernel_model_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "c.json",
                              {"policy": FAST_POLICY,
                               "model": {"kernel_size": 4}})
        with pytest.raises(ConfigError, match="kernel size must be odd"):
            load_config(config)

    @pytest.mark.parametrize("command", ["train-source", "finetune", "sweep"])
    def test_examples_that_do_not_fit_the_model_exit_1_before_any_output(
            self, tmp_path, source_run, capsys, command):
        images = tmp_path / "4x4"
        save_dataset(gen_synthetic_domain(SyntheticDomainSpec(
            "small", num_labels=3, examples_per_label=4, image_size=4,
            motif_size=4, num_motifs=2)), images)
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 2,
               "source_checkpoint": str(source_run / "source.ftlb"),
               "data": {"train_dir": str(images), "val_dir": str(images)},
               "schedule": {"ll": 0.1}, "grid": {"ll_values": [0.1]}}
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main([command, config, "--out", str(out)]) == 1
        assert ("examples of shape (1, 4, 4) do not fit the model input shape "
                "(1, 8, 8)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-source", "finetune", "sweep"])
    def test_batch_larger_than_a_training_set_exits_1_before_any_output(
            self, tmp_path, data_root, source_run, capsys, command):
        near = {"dataset": str(data_root / "near"),
                "split": {"train_fraction": 2 / 3, "seed": 5}}   # 24 examples
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 30,
               "source_checkpoint": str(source_run / "source.ftlb"),
               "data": near, "schedule": {"ll": 0.1}}
        if command == "sweep":
            # only the second task is too small: this ran a partial sweep
            big = dict(near, id="big", split={"train_fraction": 5 / 6, "seed": 5})
            cfg.update(graduated={"inner_multipliers": [0, 2]},
                       data={"tasks": [big, dict(near, id="small")]})
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main([command, config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: data ({'small' if command == 'sweep' else 'near'}): "
            f"batch_size 30 exceeds the 24 training examples"]
        assert captured.out == ""
        assert not out.exists()

    @staticmethod
    def command_args(tmp_path, data_root, source_run, command) -> list[str]:
        """The arguments, --out aside, of a run of command that succeeds."""
        cfg = {"policy": FAST_POLICY, "model": TINY_MODEL, "batch_size": 6,
               "source_checkpoint": str(source_run / "source.ftlb"),
               "data": {"dataset": str(data_root / "near"),
                        "split": {"train_fraction": 2 / 3, "seed": 5}},
               "schedule": {"ll": 0.1}, "grid": {"ll_values": [0.1]},
               "domains": [{"name": "d", "num_labels": 2,
                            "examples_per_label": 4, "image_size": 8,
                            "motif_size": 4, "num_motifs": 2}]}
        return {"report": [str(source_run / "ledger.jsonl")],
                "grad-check": []}.get(
                    command, [write_config(tmp_path / "c.json", cfg)])

    @pytest.mark.parametrize("under_a_file", [False, True])
    @pytest.mark.parametrize("command", ["gen-data", "train-source", "finetune",
                                         "sweep", "report", "grad-check"])
    def test_out_that_cannot_be_a_directory_exits_1(
            self, tmp_path, data_root, source_run, capsys, command,
            under_a_file):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        args = self.command_args(tmp_path, data_root, source_run, command)
        out = afile / "sub" if under_a_file else afile
        assert main([command, *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {command}: ")
        assert str(out) in lines[0]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command, name", [
        ("gen-data", "config.json"), ("train-source", "config.json"),
        ("finetune", "config.json"), ("sweep", "config.json"),
        ("train-source", "ledger.jsonl"), ("sweep", "report.json"),
        ("report", "report.txt"), ("grad-check", "grad_check.txt")])
    def test_output_file_that_cannot_be_written_exits_1(
            self, tmp_path, data_root, source_run, capsys, command, name):
        # a directory where the file goes ended in a traceback
        args = self.command_args(tmp_path, data_root, source_run, command)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {command}: ")
        assert str(out / name) in line


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

    def test_config_of_domains_alone(self, tmp_path):
        # gen-data reads no policy, so it needs none
        domain = {"name": "d", "num_labels": 2, "examples_per_label": 4,
                  "image_size": 8, "motif_size": 4, "num_motifs": 2}
        config = write_config(tmp_path / "c.json", {"domains": [domain]})
        out = tmp_path / "o"
        assert main(["gen-data", config, "--out", str(out)]) == 0
        assert len(load_dataset(out / "d")) == 8
        copy = json.loads((out / "config.json").read_text(encoding="utf-8"))
        assert copy["policy"] is None


    @pytest.mark.parametrize("field, value, message", [
        ("motif_size", 0, "motif_size must be >= 1, got 0"),
        ("motif_size", -4, "motif_size must be >= 1, got -4"),
        ("num_motifs", 0, "num_motifs must be >= 1, got 0"),
        ("num_motifs", -1, "num_motifs must be >= 1, got -1"),
        ("image_size", 0, "image_size must be >= motif_size 4, got 0"),
        ("image_size", -16, "image_size must be >= motif_size 4, got -16"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("family_seed", -1, "family_seed must be >= 0, got -1"),
        # these wrote into --out itself, into its parent or below another
        # domain's directory, or raised a bare Python exception
        *[("name", name, f"name must be one plain path component, got {name!r}")
          for name in ("", ".", "..", "d/e", "e\0")],
        # the second domain overwrote the first
        ("name", "d", "name 'd' is already the name of domains[0]")])
    def test_malformed_domain_exits_1_with_one_error_line(
            self, tmp_path, capsys, field, value, message):
        # each raised a bare Python exception or wrote a degenerate dataset
        first = {"name": "d", "num_labels": 2, "examples_per_label": 4}
        config = write_config(tmp_path / "c.json", {"domains": [
            first, {**first, "name": "e", field: value}]})
        out = tmp_path / "o"
        assert main(["gen-data", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: domains[1]: {message}"]
        assert captured.out == ""
        assert not out.exists()

    def test_domain_that_cannot_be_written_exits_1_with_one_error_line(
            self, tmp_path, capsys):
        # a file where the domain's directory goes raised a bare exception
        out = tmp_path / "o"
        out.mkdir()
        (out / "d").write_text("kept\n")
        domain = {"name": "d", "num_labels": 2, "examples_per_label": 4}
        config = write_config(tmp_path / "c.json", {"domains": [domain]})
        assert main(["gen-data", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: gen-data: ") and str(out / "d") in line
        assert captured.out == ""
        assert (out / "d").read_text() == "kept\n"

    def test_existing_domain_directory_refused_before_anything_is_written(
            self, tmp_path, capsys):
        # the second run merged its 8 examples into the first run's 24
        out = tmp_path / "o"
        domain = {"name": "d", "image_size": 8}
        first, second = (write_config(tmp_path / f"{i}.json", {"domains": [
            dict(domain, num_labels=labels, examples_per_label=per_label)]})
            for i, labels, per_label in ((1, 3, 8), (2, 2, 4)))
        assert main(["gen-data", first, "--out", str(out)]) == 0
        files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["gen-data", second, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: gen-data: {out / 'd'} already exists: gen-data into a "
            f"new directory"]
        assert captured.out == ""
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == files
        assert len(load_dataset(out / "d")) == 24


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

    @pytest.mark.parametrize("base_lr, error", [
        # weights that overflow float32, the training precision, with no
        # warning from a cast
        pytest.param(1e6, "stage 'conv4': non-finite activation",
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        # a rate that overflows every update, with no numpy warning before
        # the error line
        pytest.param(1e300, "stage 'conv1': non-finite activation",
                     marks=pytest.mark.filterwarnings("error"))])
    def test_diverged_run_exits_1_saving_and_recording_nothing(
            self, tmp_path, capsys, base_lr, error):
        # the README walkthrough's source run at a huge base_lr
        save_dataset(gen_synthetic_domain(SyntheticDomainSpec(
            "srcdom", num_labels=4, examples_per_label=160, relatedness=1.0,
            seed=1, family_seed=5)), tmp_path / "srcdom")
        cfg = {"policy": {"base_lr": base_lr, "step_size": 300,
                          "total_iterations": 30},
               "batch_size": 8, "seed": 7,
               "data": {"dataset": str(tmp_path / "srcdom"),
                        "partition_seed": 4}}
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["train-source", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == ""
        assert sorted(os.listdir(out)) == ["config.json"]

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
        out = tmp_path / "o"
        assert main(["train-source", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: data (source): {tmp_path / 'ds'}"
                               f"{os.sep}manifest.tsv:2: a/1.ftt")
        assert BROKEN_DATASET_CASES[case] in line
        assert captured.out == ""
        assert not out.exists()

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
        assert record["kind"] == "custom"
        assert record["ll"] is record["il"] is record["scale"] is None
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

    def test_ll_run_is_run_ll_experiment(self, tmp_path, data_root,
                                         source_run):
        cfg = self.finetune_cfg(data_root, source_run, {"ll": 0.1})
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 0
        task = FinetuneTask("near", *split_train_val(
            load_dataset(data_root / "near"), 2 / 3, seed=5))
        ref = run_ll_experiment(load_checkpoint(source_run / "source.ftlb"),
                                task, 0.1, LrPolicy(**FAST_POLICY), 6, seed=8,
                                save_path=tmp_path / "ref.ftlb",
                                checkpoint_ref="ref.ftlb")
        assert ((out / "finetuned_near.ftlb").read_bytes()
                == (tmp_path / "ref.ftlb").read_bytes())
        # the domain of the training set, as finetune wrote before
        assert (load_checkpoint(out / "finetuned_near.ftlb").metadata["domain"]
                == "near/train")
        record = read_ledger_lines(out / "ledger.jsonl")[0]
        assert record["checkpoint"] == "finetuned_near.ftlb"
        assert dict(record, checkpoint="ref.ftlb") == ref.to_dict()

    def test_source_without_domain_recorded_by_its_seed(self, tmp_path,
                                                        data_root,
                                                        source_run):
        source = load_checkpoint(source_run / "source.ftlb")
        save_checkpoint(replace(source, extra={}), tmp_path / "anonymous.ftlb")
        cfg = self.finetune_cfg(data_root, source_run, {"ll": 0.1})
        cfg["source_checkpoint"] = str(tmp_path / "anonymous.ftlb")
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 0
        record = read_ledger_lines(out / "ledger.jsonl")[0]
        assert record["source"] == str(source.metadata["seed"])

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
        blob, fault = MALFORMED_CHECKPOINTS[case]
        path = tmp_path / "bad.ftlb"
        path.write_bytes(blob)
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
        out = tmp_path / "o"
        assert main(["finetune", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: source checkpoint: ")
        assert fault in line
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")     # no numpy warning either
    def test_diverged_run_exits_1_saving_and_recording_nothing(
            self, tmp_path, data_root, source_run, capsys):
        cfg = self.finetune_cfg(data_root, source_run, {"stage_multipliers": {
            "conv1": 1.0, "conv2": 1.0, "fc": 1.0}})
        cfg["policy"] = dict(FAST_POLICY, base_lr=1e300)
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["finetune", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: stage 'conv1': non-finite activation"]
        assert captured.out == ""
        assert sorted(os.listdir(out)) == ["config.json"]


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
                                                  source_run, capsys,
                                                  monkeypatch):
        run_job = experiment.run_job

        def failing(inputs, spec):
            if spec.task_id == "far":
                raise ValueError("injected")
            return run_job(inputs, spec)

        monkeypatch.setattr(experiment, "run_job", failing)
        out = tmp_path / "o"
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        rc = main(["sweep", config, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "failed job far scale=0.25: ValueError: injected" in err
        assert "sweep partial: 4 job(s) failed" in err
        records = read_ledger_lines(out / "ledger.jsonl")
        assert [(r["kind"], r["task"]) for r in records] == (
            [("graduated", "near")] * 3 + [("baseline", "near")])
        assert "status: partial" in (out / "report.txt").read_text()
        # the analysis names the tasks that the ledger holds
        report = json.loads((out / "report.json").read_text())
        assert report["scale_sweep"]["task_ids"] == ["near"]

    @pytest.mark.parametrize("kind", ["grid", "graduated"])
    def test_report_rewrites_a_complete_sweeps_report(self, tmp_path, data_root,
                                                      source_run, kind):
        cfg = getattr(self, f"{kind}_cfg")(data_root, source_run)
        out = tmp_path / "o"
        assert main(["sweep", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 0
        again = tmp_path / "again"
        assert main(["report", str(out / "ledger.jsonl"), "--out",
                     str(again)]) == 0
        for name in ("report.txt", "report.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_second_sweep_into_one_directory_exits_1_writing_nothing(
            self, tmp_path, data_root, source_run, capsys):
        config = write_config(tmp_path / "c.json",
                              self.grid_cfg(data_root, source_run))
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["sweep", config, "--out", str(out)]) == 1
        ledger = out / "ledger.jsonl"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ledger} already exists: sweep into a new directory"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_repeated_task_id_exits_1_before_any_output(self, tmp_path,
                                                        data_root, source_run,
                                                        capsys):
        cfg = self.graduated_cfg(data_root, source_run)
        cfg["data"]["tasks"][1]["id"] = "near"
        out = tmp_path / "o"
        assert main(["sweep", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: sweep: task ids must be unique, got ['near', 'near']"]
        assert not out.exists()

    def test_forged_source_digest_exits_1_before_any_job(self, tmp_path,
                                                         data_root, source_run,
                                                         capsys):
        path = tmp_path / "forged.ftlb"
        path.write_bytes(MALFORMED_CHECKPOINTS["digest_forged"][0])
        cfg = self.grid_cfg(data_root, source_run)
        cfg["source_checkpoint"] = str(path)
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "source checkpoint" in err and "digest" in err
        assert "failed job" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MISFIT_CHECKPOINTS))
    @pytest.mark.parametrize("run", ["finetune", "grid", "graduated"])
    def test_misfit_source_tensors_exit_1_before_any_output(
            self, tmp_path, data_root, source_run, capsys, run, case):
        blob, message = MISFIT_CHECKPOINTS[case]
        path = tmp_path / "misfit.ftlb"
        path.write_bytes(blob)
        command, cfg = {
            "finetune": ("finetune", TestFinetune().finetune_cfg(
                data_root, source_run, {"ll": 0.1})),
            "grid": ("sweep", self.grid_cfg(data_root, source_run)),
            "graduated": ("sweep", self.graduated_cfg(data_root, source_run)),
        }[run]
        cfg["source_checkpoint"] = str(path)
        out = tmp_path / "o"
        assert main([command, write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: source checkpoint: {message}"]
        assert captured.out == ""
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

    def test_one_worker_does_not_load_multiprocessing(self, tmp_path,
                                                      data_root, source_run):
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        argv = ["sweep", config, "--out", str(tmp_path / "o"), "--workers", "1"]
        done = run_python("-c", "import sys\nfrom ftlab.cli import main\n"
                          f"assert main({argv!r}) == 0\n"
                          "print('multiprocessing' in sys.modules)")
        assert done.stdout.splitlines()[-1] == "False"

    def test_dead_worker_gives_partial_sweep(self, tmp_path, data_root,
                                             source_run, capsys, monkeypatch):
        config = write_config(tmp_path / "c.json",
                              self.graduated_cfg(data_root, source_run))
        whole = tmp_path / "whole"
        assert main(["sweep", config, "--out", str(whole)]) == 0
        out = tmp_path / "o"
        # the first of the 8 jobs kills its worker; the other 7 still run
        die_in_worker(monkeypatch, "near scale=0.25")
        assert main(["sweep", config, "--out", str(out), "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "failed job near scale=0.25: worker process died" in err
        lines = (out / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        assert lines == (whole / "ledger.jsonl").read_bytes().splitlines(
            keepends=True)[1:]
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

    def test_last_layer_rate_of_1e308_exits_1_with_one_error_line(
            self, tmp_path, data_root, source_run, capsys):
        # the grid's inner rates stop at 1e308; the head's multiplier,
        # 1e308 over base_lr 0.01, overflows to inf
        cfg = self.grid_cfg(data_root, source_run)
        cfg["grid"] = {"ll_values": [1e308]}
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["sweep", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == ["error: sweep: stage 'fc' multiplier must "
                                    "be >= 0 and finite, got inf"]
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

    def test_out_report_carries_the_printed_status(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self.write_gain_ledger(ledger)
        with open(ledger, "a") as f:
            f.write("garbage\n")
        out = tmp_path / "rep"
        assert main(["report", str(ledger), "--out", str(out)]) == 0
        status = "# status: complete (1 records skipped)"
        assert capsys.readouterr().out.splitlines()[0] == status
        assert (out / "report.txt").read_text().splitlines()[0] == status

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

    def test_zero_accuracy_cell_leaves_beta_undefined(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        append_records(ledger, [
            RunRecord(kind="grid", task="t", source="s", seed=0, ll=0.1, il=il,
                      final_accuracy=acc, best_accuracy=acc)
            for il, acc in ((0.0, 0.0), (0.01, 0.5))])
        out = tmp_path / "rep"
        assert main(["report", str(ledger), "--out", str(out)]) == 0
        (row,) = json.loads((out / "report.json").read_text())["best_rate_table"]
        assert row["beta"] == {"0.1": None}
        assert row["alpha"] == {"0.1": 0.01}
        text = (out / "report.txt").read_text()
        assert capsys.readouterr().out == text
        header, _, cells = text.split("## Best inner rate")[1].splitlines()[2:5]
        assert header.split() == ["Target", "Source", "alpha_0.1", "beta_0.1",
                                  "max_hi-max_lo"]
        assert cells.split() == ["t", "s", "0.01", "-", "-"]


class TestGradCheckCommand:
    def test_default_model_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert "passed" in out

    def test_config_of_a_model_alone_writes_its_report(self, tmp_path,
                                                      capsys):
        # grad-check reads no policy, so it needs none
        config = write_config(tmp_path / "c.json", {"model": TINY_MODEL})
        out = tmp_path / "o"
        assert main(["grad-check", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "grad_check.txt").read_text(encoding="utf-8") == printed
        assert printed.splitlines()[-1] == "gradient check passed (< 1e-4)"

    def test_epsilon_flag(self, capsys):
        assert main(["grad-check", "--epsilon", "1e-5"]) == 0

    @staticmethod
    def refused(argv, out, capsys) -> list:
        """The stderr lines of a grad-check run that must exit 1, print no
        traceback and write nothing."""
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()
        return captured.err.splitlines()

    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
    def test_epsilon_out_of_range_exits_1_with_one_error_line(
            self, tmp_path, capsys, epsilon):
        lines = self.refused(["grad-check", f"--epsilon={epsilon}"],
                             tmp_path / "o", capsys)
        assert lines == [f"error: grad-check: epsilon must be positive and "
                         f"finite, got {float(epsilon)}"]

    def test_net_too_large_to_check_exits_1_with_one_error_line(
            self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              {"model": {"widths": [32, 32, 32, 32, 32]}})
        lines = self.refused(["grad-check", config], tmp_path / "o", capsys)
        assert lines == ["error: grad-check: model has 37411 parameters; "
                         "grad_check supports at most 10000"]

    def test_failed_check_exits_1_and_reports_it(self, tmp_path, capsys):
        # differences over a step of 0.5 cross kinks and curvature alike
        out = tmp_path / "o"
        assert main(["grad-check", "--epsilon", "0.5", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert (out / "grad_check.txt").read_text(encoding="utf-8") == printed
        assert printed.splitlines()[-1] == "gradient check FAILED (>= 1e-4)"


class FakeLibc:
    """A libc whose mallopt records its calls and returns result."""

    def __init__(self, result):
        self.result = result
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.result


# 20 all-live evaluation passes of the default net at batch 100, after one
# that sizes the heap; prints the minor page faults per pass
FAULTS_SCRIPT = """
import resource
import numpy as np
from ftlab.cli import keep_freed_heap
from ftlab.model import build_staged_network, mini_staged_spec
from ftlab.nn_core import run_stages
keep_freed_heap()
net = build_staged_network(mini_staged_spec(), (1, 16, 16), 4, seed=0)
x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(100, 1, 16, 16))
run_stages(net.stages, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    run_stages(net.stages, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


class TestMallocPolicy:
    def test_mmap_threshold_then_trim_threshold(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        cli.keep_freed_heap()
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 << 20),
                              (cli.M_TRIM_THRESHOLD, 1 << 30)]

    def test_trim_threshold_alone_is_never_set(self, monkeypatch):
        # alone it turns off glibc's dynamic mmap threshold
        libc = FakeLibc(0)
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        cli.keep_freed_heap()
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 << 20)]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        # a libc without mallopt (macOS), and one that cannot be loaded
        def no_libc():
            raise OSError("no libc")
        for load in (object, no_libc):
            monkeypatch.setattr(cli, "_libc", load)
            cli.keep_freed_heap()

    def test_main_sets_the_policy_before_parsing_arguments(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert len(libc.calls) == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt's thresholds are glibc's")
    def test_evaluation_passes_do_not_page_fault(self):
        # a fresh process, so no earlier test has set the policy; without
        # it each pass takes about 400 faults
        assert float(run_python("-c", FAULTS_SCRIPT).stdout) < 40

"""Model builder, checkpoint format, digest, and transfer-init tests."""

import itertools
import json
import pickle
import struct

import numpy as np
import pytest

from conftest import float64_model, one_conv_metadata, tensor_records
from ftlab import binio, codec, model
from ftlab.codec import decode
from ftlab.data import LabeledDataset
from ftlab.experiment import FinetuneTask, run_ll_experiment
from ftlab.model import (CheckpointError, LayerSpec, StageSpec, arch_digest,
                         build_staged_network, checkpoint_from_model,
                         layer_shapes, load_checkpoint, mini_staged_spec,
                         model_from_checkpoint, save_checkpoint, transfer_init)
from ftlab.nn_core import Conv2d, backward, forward, grad_check, run_stages
from ftlab.optim import LrPolicy, train, uniform_schedule


def params_of(model):
    return {name: arr.copy() for name, arr in model.named_parameters()}


def write_checkpoint_file(path, meta: dict, tensors=()) -> None:
    """A checkpoint file holding meta as its metadata and tensors, (name,
    array) pairs, as its tensor records in that order. Files with a header
    error need no tensors: it is reported before any tensor is placed."""
    blob = json.dumps(meta).encode()
    path.write_bytes(b"FTLB" + struct.pack("<II", 1, len(blob)) + blob
                     + struct.pack("<I", len(tensors)) + tensor_records(tensors))


def one_conv_tensors() -> list:
    """Tensors that fit one_conv_metadata(3), in file order."""
    rng = np.random.default_rng(0)
    return [(name, rng.uniform(-1, 1, shape).astype(np.float32))
            for name, shape in (("conv1/0/w", (2, 1, 3, 3)), ("conv1/0/b", (2,)),
                                ("fc/0/w", (2, 3)), ("fc/0/b", (3,)))]


def tiny_spec(residual=False):
    return mini_staged_spec(widths=(2, 3), input_shape=(1, 8, 8),
                            residual=residual)


class TestBuild:
    def test_same_seed_gives_bit_identical_parameters(self):
        spec = tiny_spec()
        a = build_staged_network(spec, (1, 8, 8), 3, seed=5)
        b = build_staged_network(spec, (1, 8, 8), 3, seed=5)
        pa, pb = params_of(a), params_of(b)
        assert set(pa) == set(pb)
        for name in pa:
            assert np.array_equal(pa[name], pb[name])

    def test_different_seed_gives_different_parameters(self):
        spec = tiny_spec()
        a = build_staged_network(spec, (1, 8, 8), 3, seed=5)
        b = build_staged_network(spec, (1, 8, 8), 3, seed=6)
        assert not np.array_equal(params_of(a)["conv1/0/w"],
                                  params_of(b)["conv1/0/w"])

    def test_five_inner_stages_plus_head_gives_six_stage_names(self):
        spec = mini_staged_spec(widths=(2, 2, 3, 3, 3), input_shape=(1, 16, 16))
        m = build_staged_network(spec, (1, 16, 16), 4, seed=0)
        assert m.stage_names == ("conv1", "conv2", "conv3", "conv4", "conv5", "fc")
        assert len(m.stage_names) == 6   # one multiplier slot per stage

    def test_flowers_style_head_has_102_outputs(self):
        spec = tiny_spec()
        m = build_staged_network(spec, (1, 8, 8), 102, seed=1)
        assert dict(m.named_parameters())["fc/0/w"].shape[1] == 102

    def test_incompatible_shapes_name_both_stages(self):
        spec = (StageSpec("conv1", (LayerSpec("conv2d", out_channels=2),
                                    LayerSpec("global-average-pool"))),
                StageSpec("conv2", (LayerSpec("conv2d", out_channels=2),)),
                StageSpec("fc", (LayerSpec("dense"),)))
        with pytest.raises(ValueError) as exc:
            build_staged_network(spec, (1, 8, 8), 3, seed=0)
        assert "conv1" in str(exc.value) and "conv2" in str(exc.value)

    def test_rejects_empty_spec_and_bad_head(self):
        with pytest.raises(ValueError, match="at least one stage"):
            build_staged_network((), (4,), 3, seed=0)
        bad_head = (StageSpec("s", (LayerSpec("dense", out_features=3),
                                    LayerSpec("relu"))),)
        with pytest.raises(ValueError, match="dense head"):
            build_staged_network(bad_head, (4,), 3, seed=0)

    def test_rejects_duplicate_stage_names(self):
        spec = (StageSpec("a", (LayerSpec("relu"),)),
                StageSpec("a", (LayerSpec("dense"),)))
        with pytest.raises(ValueError, match="unique"):
            build_staged_network(spec, (4,), 3, seed=0)

    def test_head_out_features_must_match_num_labels(self):
        spec = (StageSpec("fc", (LayerSpec("dense", out_features=7),)),)
        with pytest.raises(ValueError, match="num_labels"):
            build_staged_network(spec, (4,), 3, seed=0)

    def test_odd_spatial_dims_reject_pooling(self):
        spec = (StageSpec("conv1", (LayerSpec("conv2d", out_channels=2),
                                    LayerSpec("max-pool"),
                                    LayerSpec("global-average-pool"))),
                StageSpec("fc", (LayerSpec("dense"),)))
        with pytest.raises(ValueError, match="even"):
            build_staged_network(spec, (1, 7, 7), 3, seed=0)

    @pytest.mark.parametrize("shape, pools", [
        ((1, 16, 16), (True, True, True, False, False)),
        ((1, 8, 8), (True, True, False, False, False)),
        ((1, 16, 6), (True, False, False, False, False)),
        ((1, 16, 2), (False,) * 5)])
    def test_default_pools_halve_both_dims_while_even_and_at_least_4(
            self, shape, pools):
        assert mini_staged_spec(input_shape=shape) == \
            mini_staged_spec(input_shape=shape, pools=pools)

    @pytest.mark.parametrize("shape", [(1, 16, 6), (1, 16, 2)])
    def test_default_spec_of_a_non_square_input_trains(self, shape):
        m = build_staged_network(mini_staged_spec(input_shape=shape), shape, 2,
                                 seed=0)
        x = np.random.default_rng(0).uniform(size=(4,) + shape)
        ds = LabeledDataset(x, np.arange(4) % 2, ("a", "b"), "d")
        before = m.params.copy()
        train(m, ds, ds, uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0),
              LrPolicy(0.01, 1, 1), batch_size=4, seed=0)
        assert not np.array_equal(m.params, before)


class TestLayerShapes:
    def test_residual_inner_layers_walked_in_build_order(self):
        records = layer_shapes(tiny_spec(residual=True), (1, 8, 8))
        conv1 = [(r.path, r.kind, r.in_shape, r.out_shape, r.param_shapes)
                 for r in records if r.stage == "conv1"]
        assert conv1 == [
            ("0", "conv2d", (1, 8, 8), (2, 8, 8), ((2, 1, 3, 3), (2,))),
            ("1", "relu", (2, 8, 8), (2, 8, 8), ()),
            ("2", "residual-add", (2, 8, 8), (2, 8, 8), ()),
            ("2/0", "conv2d", (2, 8, 8), (2, 8, 8), ((2, 2, 3, 3), (2,))),
            ("2/1", "relu", (2, 8, 8), (2, 8, 8), ()),
            ("3", "max-pool", (2, 8, 8), (2, 4, 4), ())]
        assert records[-1].param_shapes == ((3, None), (None,))

    def test_weights_then_biases_drawn_from_the_fan_in_range(self):
        m = build_staged_network(tiny_spec(residual=True), (1, 8, 8), 3, seed=9)
        rng = np.random.default_rng(9)
        params = [arr for _, arr in m.named_parameters()]
        for w, b in zip(params[::2], params[1::2]):
            limit = 1.0 / np.sqrt(w.size // b.size)         # 1 / sqrt(fan_in)
            # drawn in float64, rounded once to float32
            for arr in (w, b):
                assert arr.tobytes() == rng.uniform(
                    -limit, limit, size=arr.shape).astype(np.float32).tobytes()

    @pytest.mark.parametrize("kernel_size", [2, 4])
    def test_even_kernel_rejected(self, kernel_size):
        with pytest.raises(ValueError, match="kernel size must be odd"):
            layer_shapes(mini_staged_spec((2, 3), (1, 8, 8), kernel_size), (1, 8, 8))

    def test_dense_below_head_needs_out_features(self):
        spec = (StageSpec("hidden", (LayerSpec("dense"),)),
                StageSpec("fc", (LayerSpec("dense"),)))
        with pytest.raises(ValueError, match="out_features"):
            layer_shapes(spec, (4,))

    def test_conv2d_needs_out_channels(self):
        with pytest.raises(ValueError, match="^conv2d layer needs out_channels$"):
            LayerSpec("conv2d")

    @pytest.mark.parametrize("shape", [(), (1, 0, 8), (1, 8, -8)])
    def test_input_shape_must_hold_positive_sizes(self, shape):
        with pytest.raises(ValueError, match="^input shape must hold positive "
                                             "sizes, got "):
            layer_shapes(tiny_spec(), shape)

    def test_dense_needs_a_flat_input(self):
        spec = (StageSpec("fc", (LayerSpec("dense"),)),)
        with pytest.raises(ValueError, match="between stages '<input>' and "
                                             "'fc': dense needs a flat input, "
                                             r"got \(1, 8, 8\)$"):
            layer_shapes(spec, (1, 8, 8))

    def test_residual_chain_must_keep_its_shape(self):
        widen = LayerSpec("residual-add",
                          inner=(LayerSpec("conv2d", out_channels=3),))
        spec = (StageSpec("conv1", (LayerSpec("conv2d", out_channels=2), widen,
                                    LayerSpec("global-average-pool"))),
                StageSpec("fc", (LayerSpec("dense"),)))
        with pytest.raises(ValueError, match=r"residual-add inner chain changed "
                                             r"shape \(2, 8, 8\) -> "
                                             r"\(3, 8, 8\)$"):
            layer_shapes(spec, (1, 8, 8))

    @pytest.mark.parametrize("num_labels", [1, 0])
    def test_at_least_two_labels(self, num_labels):
        message = f"^num_labels must be at least 2, got {num_labels}$"
        with pytest.raises(ValueError, match=message):
            build_staged_network(tiny_spec(), (1, 8, 8), num_labels, seed=0)
        source = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=0))
        with pytest.raises(ValueError, match=message):
            transfer_init(source, num_labels, head_seed=0)


class TestCheckpoint:
    def test_save_load_preserves_names_and_shapes(self, tmp_path):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=2)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        ckpt = load_checkpoint(path)
        expected = dict(m.named_parameters())
        assert list(ckpt.tensors) == list(expected)
        for name, arr in ckpt.tensors.items():
            assert arr.shape == expected[name].shape
            assert arr.dtype == np.float32

    def test_round_trip_is_byte_identical(self, tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=3)
        p1, p2 = tmp_path / "a.ftlb", tmp_path / "b.ftlb"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_editing_the_metadata_dict_changes_nothing(self, tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        ckpt = checkpoint_from_model(m, {"domain": "d"})
        before, after = tmp_path / "before.ftlb", tmp_path / "after.ftlb"
        save_checkpoint(ckpt, before)
        meta = ckpt.metadata
        meta.update(digest="f" * 64, num_labels=7, domain="e")
        meta["arch"][-1]["layers"][0]["out_features"] = 7
        save_checkpoint(ckpt, after)
        assert after.read_bytes() == before.read_bytes()
        assert model_from_checkpoint(ckpt).num_labels == 3
        loaded = load_checkpoint(before)
        assert (loaded.header, loaded.extra) == (ckpt.header, {"domain": "d"})
        assert loaded.metadata == ckpt.metadata

    @pytest.mark.filterwarnings("error")     # no overflow warning from the cast
    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e39])
    def test_parameter_not_finite_as_float32_refused_before_any_file(
            self, tmp_path, value):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        if value == 1e39:       # only a float64 model's vector holds it
            m = float64_model(m)
        params = dict(m.named_parameters())
        params["conv2/0/b"][1] = value
        params["fc/0/w"][0, 0] = value
        path = tmp_path / "m.ftlb"
        with pytest.raises(ValueError, match=r"^checkpoint: parameter "
                                             r"'conv2/0/b' is not finite as "
                                             r"float32$"):
            save_checkpoint(m, path)
        assert not path.exists()

    def test_tensor_the_format_refuses_leaves_no_file(self, tmp_path):
        # a hand-built checkpoint does not pass checkpoint_from_model's check;
        # fc/0/b is its last tensor, written after the header and the rest
        ckpt = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5))
        assert list(ckpt.tensors)[-1] == "fc/0/b"
        ckpt.tensors["fc/0/b"][1] = np.nan
        path = tmp_path / "m.ftlb"
        with pytest.raises(binio.FormatError, match="not finite as float32"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    def test_model_from_checkpoint_restores_parameters(self, tmp_path):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=4)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        m2 = model_from_checkpoint(load_checkpoint(path))
        # float32 in the model as in the file: byte for byte
        assert m2.params.dtype == np.float32
        assert m2.params.tobytes() == m.params.tobytes()
        p1, p2 = params_of(m), params_of(m2)
        for name in p1:
            assert p1[name].tobytes() == p2[name].tobytes()

    def test_truncated_file_names_missing_tensor(self, tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ftlb"
        cut.write_bytes(blob[:len(blob) - 40])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)
        with pytest.raises(CheckpointError, match="tensor"):
            load_checkpoint(cut)

    @pytest.mark.parametrize("field,value", [
        ("arch", 5), ("arch", []), ("arch", [{"name": 1, "layers": []}]),
        ("arch", [{"name": "a", "layers": [{"kind": "warp"}]}]),
        ("arch", [{"name": "a", "layers": [{"kind": "conv2d",
                                            "out_channels": "2"}]}]),
        ("input_shape", "1x8x8"), ("input_shape", [1, 8.5, 8]),
        ("num_labels", "3"), ("seed", None), ("iterations", True),
        ("digest", 0)])
    def test_mistyped_metadata_rejected(self, tmp_path, field, value):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        meta = checkpoint_from_model(m).metadata
        meta[field] = value
        path = tmp_path / "m.ftlb"
        write_checkpoint_file(path, meta)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_even_kernel_arch_rejected_although_digest_matches(self, tmp_path):
        odd, even = tmp_path / "odd.ftlb", tmp_path / "even.ftlb"
        write_checkpoint_file(odd, one_conv_metadata(3), one_conv_tensors())
        write_checkpoint_file(even, one_conv_metadata(4))
        arch = load_checkpoint(odd).header.arch     # the digest formula holds
        assert arch_digest(arch, (1, 8, 8)) == one_conv_metadata(3)["digest"]
        with pytest.raises(CheckpointError, match="kernel size must be odd"):
            load_checkpoint(even)

    @pytest.mark.parametrize("field,value,message", [
        ("num_labels", 1, "num_labels must be at least 2, got 1"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("iterations", -4, "iterations must be a non-negative integer, got -4")])
    def test_out_of_range_header_field_rejected_at_load(self, tmp_path, field,
                                                        value, message):
        path = tmp_path / "m.ftlb"
        write_checkpoint_file(path, dict(one_conv_metadata(3), **{field: value}))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_header_is_decoded_once_per_load_never_per_job(self, tmp_path,
                                                           monkeypatch):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        calls = []
        monkeypatch.setattr(model, "decode",
                            lambda *a: calls.append(a) or decode(*a))
        ckpt = load_checkpoint(path)
        assert len(calls) == 1
        x = np.random.default_rng(0).uniform(size=(6, 1, 8, 8))
        ds = LabeledDataset(x, np.arange(6) % 3, ("a", "b", "c"), "d")
        run_ll_experiment(ckpt, FinetuneTask("t", ds, ds), 0.1,
                          LrPolicy(0.01, 2, 4), 3, seed=0)
        model_from_checkpoint(ckpt)
        assert len(calls) == 1

    def test_architecture_is_hashed_once_per_load_never_per_job(self, tmp_path,
                                                                monkeypatch):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        path, saved = tmp_path / "m.ftlb", tmp_path / "ft.ftlb"
        save_checkpoint(m, path)
        ckpt = load_checkpoint(path)
        calls = []
        monkeypatch.setattr(model, "arch_digest",
                            lambda *a: calls.append(a) or arch_digest(*a))
        x = np.random.default_rng(0).uniform(size=(6, 1, 8, 8))
        ds = LabeledDataset(x, np.arange(6) % 2, ("a", "b"), "d")
        run_ll_experiment(ckpt, FinetuneTask("t", ds, ds), 0.1,
                          LrPolicy(0.01, 2, 4), 3, seed=0, save_path=saved)
        clone = model_from_checkpoint(ckpt).clone()
        target = transfer_init(ckpt, 2, head_seed=1)
        assert calls == []
        monkeypatch.undo()
        # the carried digests are the ones the architecture hashes to
        assert load_checkpoint(saved).header.digest == ckpt.header.digest
        for net in (clone, target):
            assert net.digest() == arch_digest(net.spec, net.input_shape)

    def test_head_size_must_be_num_labels_although_digest_matches(self,
                                                                  tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        ckpt = checkpoint_from_model(m)
        meta = ckpt.metadata
        meta["arch"][-1]["layers"][0]["out_features"] = 7
        path = tmp_path / "m.ftlb"
        write_checkpoint_file(path, meta)
        with pytest.raises(CheckpointError,
                           match="head outputs 7 but num_labels is 3"):
            load_checkpoint(path)
        # in memory, the model is built from the header, not the edited dict
        assert model_from_checkpoint(ckpt).num_labels == 3

    @pytest.mark.parametrize("edit, message", [
        (lambda t: [(n, a) for n, a in t if n != "conv2/0/b"],
         "checkpoint missing tensor 'conv2/0/b'"),
        (lambda t: t + [("extra", np.zeros(2, np.float32))],
         "checkpoint has unexpected tensor 'extra'"),
        (lambda t: [(n, a[..., :2] if n == "conv1/0/w" else a) for n, a in t],
         r"tensor 'conv1/0/w' has shape \(2, 1, 3, 2\), model expects "
         r"\(2, 1, 3, 3\)"),
        (lambda t: [(n, a[:3] if n == "fc/0/b" else a) for n, a in t],
         r"tensor 'fc/0/b' has shape \(3,\), model expects \(4,\)"),
        (lambda t: t + t[2:3], "tensor 7/7: name 'conv2/0/w' repeats")])
    def test_tensors_that_do_not_fit_the_header_rejected(self, tmp_path, edit,
                                                         message):
        ckpt = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 4, seed=7))
        path = tmp_path / "m.ftlb"
        write_checkpoint_file(path, ckpt.metadata,
                              edit(list(ckpt.tensors.items())))
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            load_checkpoint(path)

    def test_tensors_in_any_order_load_to_the_same_params(self, tmp_path):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=2)
        path, permuted, saved = (tmp_path / n for n in ("a.ftlb", "p.ftlb",
                                                        "s.ftlb"))
        save_checkpoint(m, path)
        ckpt = load_checkpoint(path)
        items = list(ckpt.tensors.items())
        order = np.random.default_rng(0).permutation(len(items))
        assert list(order) != sorted(order)
        write_checkpoint_file(permuted, ckpt.metadata, [items[i] for i in order])
        loaded = load_checkpoint(permuted)
        assert loaded.params.dtype == np.float32
        assert loaded.params.tobytes() == ckpt.params.tobytes()
        # saved back in architecture order: the file save_checkpoint wrote
        save_checkpoint(loaded, saved)
        assert saved.read_bytes() == path.read_bytes()

    def test_tensors_map_is_read_only(self):
        ckpt = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 4, seed=7))
        with pytest.raises(TypeError):
            ckpt.tensors["conv2/0/b"] = np.zeros(3, np.float32)
        with pytest.raises(TypeError):
            del ckpt.tensors["conv2/0/b"]
        # each tensor is a view of params, so an edit through it is kept
        ckpt.tensors["conv2/0/b"][...] = 0.5
        assert (ckpt.params[ckpt.header.architecture()
                            .slices["conv2/0/b"]] == 0.5).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ftlb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=5)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


class TestDigest:
    def test_forged_digest_rejected_by_every_reader(self, tmp_path):
        m = build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=6)
        with pytest.raises(ValueError, match=r"model gives: \['digest'\]"):
            checkpoint_from_model(m, {"digest": "f" * 64, "domain": "d"})
        meta = checkpoint_from_model(m).metadata
        meta["digest"] = "f" * 64
        path = tmp_path / "forged.ftlb"
        write_checkpoint_file(path, meta)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_digest_ignores_head_output_size(self):
        spec = tiny_spec()
        a = build_staged_network(spec, (1, 8, 8), 10, seed=0)
        b = build_staged_network(spec, (1, 8, 8), 102, seed=0)
        assert a.digest() == b.digest()

    def test_digest_detects_stage_rename(self):
        base = tiny_spec()
        renamed = tuple(StageSpec("x" + s.name, s.layers) if s.name == "conv1"
                        else s for s in base)
        assert (arch_digest(base, (1, 8, 8))
                != arch_digest(renamed, (1, 8, 8)))

    def test_digest_detects_kind_and_shape_changes(self):
        base = tiny_spec()
        wider = mini_staged_spec(widths=(4, 3), input_shape=(1, 8, 8))
        residual = tiny_spec(residual=True)
        d = arch_digest(base, (1, 8, 8))
        assert d != arch_digest(wider, (1, 8, 8))
        assert d != arch_digest(residual, (1, 8, 8))
        assert d != arch_digest(base, (1, 16, 16))


class TestTransferInit:
    def source_checkpoint(self, tmp_path, num_labels=4, seed=7):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), num_labels, seed=seed)
        path = tmp_path / "src.ftlb"
        save_checkpoint(checkpoint_from_model(m, {"domain": "src"}), path)
        return m, load_checkpoint(path)

    def test_inner_stages_copied_bit_exact(self, tmp_path):
        src, ckpt = self.source_checkpoint(tmp_path)
        target = transfer_init(ckpt, target_num_labels=102, head_seed=9)
        src_params = params_of(src)
        for name, arr in target.named_parameters():
            if name.startswith("fc/"):
                continue
            assert np.array_equal(arr, src_params[name].astype(np.float32)
                                  .astype(np.float64))

    def test_head_is_reinitialized_even_for_same_label_count(self, tmp_path):
        src, ckpt = self.source_checkpoint(tmp_path, num_labels=4)
        target = transfer_init(ckpt, target_num_labels=4, head_seed=9)
        src_params = params_of(src)
        tgt_params = params_of(target)
        assert tgt_params["fc/0/w"].shape == src_params["fc/0/w"].shape
        assert not np.array_equal(tgt_params["fc/0/w"], src_params["fc/0/w"])
        # head weight AND bias both come from head_seed
        again = transfer_init(ckpt, target_num_labels=4, head_seed=9)
        assert np.array_equal(params_of(again)["fc/0/w"], tgt_params["fc/0/w"])
        assert np.array_equal(params_of(again)["fc/0/b"], tgt_params["fc/0/b"])

    def test_only_head_shape_differs_for_new_label_count(self, tmp_path):
        src, ckpt = self.source_checkpoint(tmp_path, num_labels=4)
        target = transfer_init(ckpt, target_num_labels=102, head_seed=1)
        src_params = params_of(src)
        for name, arr in target.named_parameters():
            if name.startswith("fc/"):
                assert arr.shape != src_params[name].shape
            else:
                assert arr.shape == src_params[name].shape
        assert target.num_labels == 102

    def test_zero_training_keeps_inner_equal_to_source(self, tmp_path):
        # transfer_init alone must not disturb inner weights at all
        src, ckpt = self.source_checkpoint(tmp_path)
        t1 = transfer_init(ckpt, 4, head_seed=3)
        t2 = transfer_init(ckpt, 4, head_seed=4)
        for (n1, a1), (n2, a2) in zip(t1.named_parameters(),
                                      t2.named_parameters()):
            if not n1.startswith("fc/"):
                assert np.array_equal(a1, a2)

    def test_save_after_transfer_keeps_inner_bytes(self, tmp_path):
        _, ckpt = self.source_checkpoint(tmp_path)
        target = transfer_init(ckpt, 7, head_seed=2)
        out = tmp_path / "t.ftlb"
        save_checkpoint(target, out)
        reloaded = load_checkpoint(out)
        for name, arr in ckpt.tensors.items():
            if name.startswith("fc/"):
                continue
            assert reloaded.tensors[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("head_seed", [0, 9, 2 ** 40 + 3])
    @pytest.mark.parametrize("labels", [2, 3, 7])
    def test_params_equal_a_full_init_then_copy(self, labels, head_seed,
                                                residual):
        # the first formula: a random init of the whole target from
        # head_seed, every inner tensor then overwritten by the source's
        m = build_staged_network(tiny_spec(residual), (1, 8, 8), 4, seed=7)
        ckpt = checkpoint_from_model(m)
        want = build_staged_network(tiny_spec(residual), (1, 8, 8), labels,
                                    seed=head_seed)
        views = dict(want.named_parameters())
        for name, arr in ckpt.tensors.items():
            if not name.startswith("fc/"):
                views[name][...] = arr
        got = transfer_init(ckpt, labels, head_seed)
        assert got.params.tobytes() == want.params.tobytes()
        assert (got.spec, got.layout, got.seed) == (want.spec, want.layout,
                                                     want.seed)



def test_mini_spec_pool_defaults_keep_spatial_dims_valid():
    # 16x16 with 5 stages: pooling stops once maps reach 2x2
    spec = mini_staged_spec(widths=(2, 2, 2, 2, 2), input_shape=(1, 16, 16))
    m = build_staged_network(spec, (1, 16, 16), 3, seed=0)
    x = np.zeros((2, 1, 16, 16))
    scores = run_stages(m.stages, x)
    assert scores.shape == (2, 3)


def test_clone_copies_parameters_and_shares_no_state():
    m = build_staged_network(tiny_spec(residual=True), (1, 8, 8), 3, seed=4)
    rng = np.random.default_rng(5)
    x, x2 = (rng.uniform(-1, 1, size=(6, 1, 8, 8)) for _ in range(2))
    y = np.arange(6) % 3
    _, _, cache = forward(m.stages, x2, y)       # m's layers hold buffers now
    backward(m.stages, cache)
    c = m.clone()
    want = build_staged_network(tiny_spec(residual=True), (1, 8, 8), 3, seed=4)
    cloned = dict(c.named_parameters())
    assert list(cloned) == list(params_of(m))
    for name, arr in m.named_parameters():
        assert cloned[name].tobytes() == arr.tobytes()
        assert not np.shares_memory(cloned[name], arr)

    loss, probs, cache = forward(c.stages, x, y)
    forward(m.stages, x2, y)                      # the original runs again
    for _, arr in m.named_parameters():
        arr += 1.0                                # and its parameters move
    grads = backward(c.stages, cache)
    want_loss, want_probs, want_cache = forward(want.stages, x, y)
    want_grads = backward(want.stages, want_cache)
    assert (loss, probs.tobytes()) == (want_loss, want_probs.tobytes())
    for name, g in want_grads.items():
        assert grads[name].tobytes() == g.tobytes()
    for name, arr in want.named_parameters():
        assert cloned[name].tobytes() == arr.tobytes()


class TestParameterVector:
    """Every model's parameters are views of its own one vector."""

    def models(self, tmp_path):
        built = build_staged_network(tiny_spec(residual=True), (1, 8, 8), 3,
                                     seed=4)
        path = tmp_path / "m.ftlb"
        save_checkpoint(built, path)
        ckpt = load_checkpoint(path)
        return {"built": built, "loaded": model_from_checkpoint(ckpt),
                "transferred": transfer_init(ckpt, 3, head_seed=2),
                "cloned": built.clone()}

    def test_parameters_are_views_of_the_model_vector(self, tmp_path):
        models = self.models(tmp_path)
        for kind, m in models.items():
            assert m.params.dtype == np.float32 and m.params.flags.c_contiguous
            assert m.param_count() == sum(a.size for _, a in m.named_parameters())
            for name, arr in m.named_parameters():
                assert np.shares_memory(arr, m.params), (kind, name)
                assert arr.reshape(-1).tobytes() == m.params[m.slices[name]].tobytes()
            # each stage's parameters are one contiguous slice, in stage order
            stops = [0]
            for stage in m.stages:
                for name, _ in stage.named_params():
                    assert m.slices[name].start == stops[-1]
                    stops.append(m.slices[name].stop)
            assert stops[-1] == m.params.size
        for a, b in itertools.combinations(models.values(), 2):
            assert not np.shares_memory(a.params, b.params)

    def test_writes_reach_the_vector_and_the_layers(self, tmp_path):
        m = self.models(tmp_path)["cloned"]
        m.stages[1].layers[0].w[0, 0, 0, 0] = 7.5
        assert m.params[m.slices["conv2/0/w"].start] == 7.5
        m.params[m.slices["fc/0/b"]] = 0.25
        assert (dict(m.named_parameters())["fc/0/b"] == 0.25).all()

    def test_checkpoint_round_trip_is_byte_identical(self, tmp_path):
        for kind, m in self.models(tmp_path).items():
            first, second = tmp_path / f"{kind}-1.ftlb", tmp_path / f"{kind}-2.ftlb"
            save_checkpoint(m, first)
            save_checkpoint(model_from_checkpoint(load_checkpoint(first)), second)
            assert first.read_bytes() == second.read_bytes(), kind

    def test_grad_check_checks_a_float64_copy_and_writes_no_weight(
            self, tmp_path, monkeypatch):
        x = np.random.default_rng(8).uniform(-1, 1, size=(4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        models = self.models(tmp_path)
        before = {kind: m.params.tobytes() for kind, m in models.items()}
        for kind, m in models.items():
            assert grad_check(m.stages, x, y) < 1e-4, kind
        # backward reaches conv1's parameter gradients through param_grads,
        # which the copy's conv layers share
        original = Conv2d.param_grads

        def doubled(layer, dy, cache, out):
            grads = original(layer, dy, cache, out)
            for g in grads.values():
                g *= 2
            return grads
        monkeypatch.setattr(Conv2d, "param_grads", doubled)
        for kind, m in models.items():
            assert grad_check(m.stages, x, y) > 1e-4, kind
        for kind, m in models.items():
            assert m.params.dtype == np.float32, kind
            assert m.params.tobytes() == before[kind], kind


def reference_checkpoint_bytes(ckpt) -> bytes:
    """The file that ckpt's metadata and tensors make, written one field and
    one tensor at a time from the format as README.md gives it."""
    meta = json.dumps(ckpt.metadata, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    out = [b"FTLB", struct.pack("<I", 1), struct.pack("<I", len(meta)), meta,
           struct.pack("<I", len(ckpt.tensors))]
    for name, arr in ckpt.tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        out += [struct.pack("<H", len(name.encode("utf-8"))), name.encode("utf-8"),
                struct.pack("<B", data.ndim)]
        out += [struct.pack("<I", d) for d in data.shape] + [data.tobytes()]
    return b"".join(out)


class TestArchitectureRecord:
    """One Architecture per (spec, input shape, head size), shared by
    reference; what it caches is what a checkpoint header fixes."""

    def test_saving_a_job_checkpoint_encodes_no_spec(self, tmp_path,
                                                     monkeypatch):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=5)
        path, saved = tmp_path / "m.ftlb", tmp_path / "ft.ftlb"
        save_checkpoint(checkpoint_from_model(m, {"domain": "d"}), path)
        ckpt = load_checkpoint(path)
        encoded = []

        def spy(value, encode=codec.encode):
            encoded.append(type(value))
            return encode(value)
        # codec.encode recurses through its own module's name
        monkeypatch.setattr(codec, "encode", spy)
        monkeypatch.setattr(model, "encode", spy)
        x = np.random.default_rng(0).uniform(size=(6, 1, 8, 8))
        ds = LabeledDataset(x, np.arange(6) % 2, ("a", "b"), "d")
        run_ll_experiment(ckpt, FinetuneTask("t", ds, ds), 0.1,
                          LrPolicy(0.01, 2, 4), 3, seed=0, save_path=saved)
        assert encoded and not {StageSpec, LayerSpec} & set(encoded)
        monkeypatch.undo()
        assert saved.read_bytes() == reference_checkpoint_bytes(
            load_checkpoint(saved))

    def test_params_edited_in_place_reach_the_next_target(self):
        ckpt = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 4, seed=7))
        first = transfer_init(ckpt, 3, head_seed=1)
        slices = ckpt.header.architecture().slices
        ckpt.params[slices["conv1/0/w"]] += 1.0
        ckpt.params[slices["conv2/0/b"]] = 0.5
        second = transfer_init(ckpt, 3, head_seed=1)
        assert second.arch is first.arch
        got = dict(second.named_parameters())
        for name, arr in first.named_parameters():
            edited = name in ("conv1/0/w", "conv2/0/b")
            assert (got[name].tobytes() == arr.tobytes()) != edited, name
            if not name.startswith("fc/"):
                assert got[name].tobytes() == ckpt.tensors[name].tobytes()

    def test_checkpoints_of_one_architecture_keep_their_own_tensors(
            self, tmp_path):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=4)
        other = m.clone()
        other.params += 0.25
        paths = [tmp_path / "a.ftlb", tmp_path / "b.ftlb"]
        ckpts = [checkpoint_from_model(net) for net in (m, other)]
        assert ckpts[0].header.architecture() is m.arch
        assert ckpts[1].header.architecture() is m.arch
        for ckpt, path in zip(ckpts, paths):
            save_checkpoint(ckpt, path)
        assert paths[0].read_bytes() != paths[1].read_bytes()
        for net, path in zip((m, other), paths):
            loaded = load_checkpoint(path)
            want = dict(net.named_parameters())
            for name, arr in loaded.tensors.items():
                assert arr.tobytes() == want[name].astype(np.float32).tobytes()
            target = transfer_init(loaded, 2, head_seed=3)
            for name, arr in target.named_parameters():
                if not name.startswith("fc/"):
                    assert arr.tobytes() == loaded.tensors[name].tobytes()

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("labels", [2, 3, 7])
    def test_file_bytes_equal_a_per_tensor_writer(self, tmp_path, labels,
                                                  residual):
        built = build_staged_network(tiny_spec(residual), (1, 8, 8), labels,
                                     seed=labels)
        source = checkpoint_from_model(
            build_staged_network(tiny_spec(residual), (1, 8, 8), 5, seed=1),
            {"domain": "src"})
        edited = checkpoint_from_model(built, {"z": [1, {"b": None}]})
        edited.tensors["fc/0/b"][...] = 0.0
        ckpts = {"built": checkpoint_from_model(built, {"domain": "d"}),
                 "transferred": checkpoint_from_model(
                     transfer_init(source, labels, head_seed=2)),
                 "edited": edited}
        path = tmp_path / "c.ftlb"
        save_checkpoint(built, path)
        ckpts["loaded"] = load_checkpoint(path)
        for kind, ckpt in ckpts.items():
            save_checkpoint(ckpt, path)
            assert path.read_bytes() == reference_checkpoint_bytes(ckpt), kind

    def test_models_and_clones_share_the_record_not_the_parameters(
            self, tmp_path):
        built = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=4)
        path = tmp_path / "m.ftlb"
        save_checkpoint(built, path)
        ckpt = load_checkpoint(path)
        groups = {
            "built": [built, built.clone(), built.clone().clone()],
            "loaded": [model_from_checkpoint(ckpt), model_from_checkpoint(ckpt),
                       model_from_checkpoint(ckpt).clone()],
            "3-way targets": [transfer_init(ckpt, 3, head_seed=s)
                              for s in (1, 2)],
            "5-way targets": [transfer_init(ckpt, 5, head_seed=s)
                              for s in (1, 2)]}
        for kind, nets in groups.items():
            assert all(net.arch is nets[0].arch for net in nets), kind
        assert groups["loaded"][0].arch is groups["3-way targets"][0].arch
        assert groups["5-way targets"][0].arch is not groups["loaded"][0].arch
        assert groups["built"][0].arch is not groups["loaded"][0].arch
        nets = [net for group in groups.values() for net in group]
        for a, b in itertools.combinations(nets, 2):
            assert not np.shares_memory(a.params, b.params)
            for (_, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
                assert not np.shares_memory(x, y)

    def test_a_head_size_that_is_no_integer_is_refused(self):
        ckpt = checkpoint_from_model(
            build_staged_network(tiny_spec(), (1, 8, 8), 3, seed=7))
        for _ in range(2):          # before and after a 3-way target is built
            with pytest.raises(ValueError, match="positive integer, got 3.0"):
                transfer_init(ckpt, 3.0, head_seed=1)
            transfer_init(ckpt, 3, head_seed=1)

    def test_models_and_checkpoints_pickle(self, tmp_path):
        built = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=4)
        ckpt = checkpoint_from_model(built, {"domain": "d"})
        target = transfer_init(ckpt, 2, head_seed=1)
        for obj in (built, ckpt, target):
            copy = pickle.loads(pickle.dumps(obj))
            want, got = tmp_path / "want.ftlb", tmp_path / "got.ftlb"
            save_checkpoint(obj, want)
            save_checkpoint(copy, got)
            assert got.read_bytes() == want.read_bytes()

    def test_unset_head_size_is_kept_through_load_and_save(self, tmp_path):
        # the digest masks the head's size, so a file may leave it unset; its
        # arch is written back as read, not as the head size resizes it
        meta = one_conv_metadata(3)
        meta["arch"][-1]["layers"][0]["out_features"] = None
        tensors = dict(one_conv_tensors())
        path = tmp_path / "unset.ftlb"
        write_checkpoint_file(path, meta, list(tensors.items()))
        saved, again = tmp_path / "saved.ftlb", tmp_path / "again.ftlb"
        save_checkpoint(load_checkpoint(path), saved)
        reloaded = load_checkpoint(saved)
        assert reloaded.metadata["arch"] == meta["arch"]
        save_checkpoint(reloaded, again)
        assert again.read_bytes() == saved.read_bytes()
        target = transfer_init(reloaded, 4, head_seed=1)
        got = dict(target.named_parameters())
        assert got["fc/0/w"].shape == (2, 4)
        for name in ("conv1/0/w", "conv1/0/b"):
            assert got[name].tobytes() == tensors[name].tobytes()

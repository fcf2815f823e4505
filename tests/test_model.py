"""Model builder, checkpoint format, digest, and transfer-init tests."""

import numpy as np
import pytest

from ftlab.model import (CheckpointError, LayerSpec, StageSpec, arch_digest,
                         build_staged_network, checkpoint_from_model,
                         load_checkpoint, mini_staged_spec,
                         model_from_checkpoint, save_checkpoint, transfer_init)


def params_of(model):
    return {name: arr.copy() for name, arr in model.named_parameters()}


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

    def test_model_from_checkpoint_restores_parameters(self, tmp_path):
        m = build_staged_network(tiny_spec(True), (1, 8, 8), 3, seed=4)
        path = tmp_path / "m.ftlb"
        save_checkpoint(m, path)
        m2 = model_from_checkpoint(load_checkpoint(path))
        p1, p2 = params_of(m), params_of(m2)
        for name in p1:
            # one float32 round trip, then exact
            assert np.array_equal(p1[name].astype(np.float32), p2[name])

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
        ckpt = checkpoint_from_model(m)
        ckpt.metadata[field] = value
        path = tmp_path / "m.ftlb"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

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
        ckpt = checkpoint_from_model(m, {"digest": "f" * 64})
        path = tmp_path / "forged.ftlb"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="digest"):
            model_from_checkpoint(ckpt)
        with pytest.raises(CheckpointError, match="digest"):
            transfer_init(ckpt, 5, head_seed=0)

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


def test_mini_spec_pool_defaults_keep_spatial_dims_valid():
    # 16x16 with 5 stages: pooling stops once maps reach 2x2
    spec = mini_staged_spec(widths=(2, 2, 2, 2, 2), input_shape=(1, 16, 16))
    m = build_staged_network(spec, (1, 16, 16), 3, seed=0)
    x = np.zeros((2, 1, 16, 16))
    scores = m.predict(x)
    assert scores.shape == (2, 3)

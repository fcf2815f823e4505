"""Partitioning protocol, splits, synthetic domains, and on-disk format tests."""

import builtins
import collections
import os
import struct

import numpy as np
import pytest

from conftest import (BROKEN_DATASET_CASES, load_as_reference_does,
                      write_broken_dataset)
from ftlab import binio
from ftlab.data import (LabeledDataset, SyntheticDomainSpec, domain_parameters,
                        gen_synthetic_domain, images_per_label, load_dataset,
                        partition_domain, save_dataset, split_train_val)
from ftlab.model import LayerSpec, StageSpec, build_staged_network
from ftlab.optim import LrPolicy, evaluate, train, uniform_schedule


def make_dataset(per_label, labels=4, dim=3, seed=0, name="d"):
    rng = np.random.default_rng(seed)
    n = per_label * labels
    feats = rng.normal(size=(n, dim))
    ys = np.repeat(np.arange(labels), per_label)
    return LabeledDataset(feats, ys, tuple(f"c{i}" for i in range(labels)), name)


class TestLabeledDataset:
    def test_subset_may_miss_labels_but_not_be_empty(self):
        ds = LabeledDataset(np.zeros((2, 3)), np.array([0, 0]), ("a", "b"), "d")
        assert ds.num_labels == 2
        with pytest.raises(ValueError, match="no examples"):
            ds.subset([])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="label ids"):
            LabeledDataset(np.zeros((2, 3)), np.array([0, 2]), ("a", "b"), "d")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), ("a", "b"), "d")


    def test_features_are_float32(self):
        ds = LabeledDataset(np.ones((2, 3)), np.array([0, 1]), ("a", "b"))
        assert ds.features.dtype == np.float32
        assert ds.subset([1]).features.dtype == np.float32

    @pytest.mark.filterwarnings("error")     # no overflow warning from a cast
    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
    def test_features_not_finite_as_float32_rejected(self, value):
        features = np.zeros((2, 3))
        features[1, 2] = value
        with pytest.raises(ValueError, match="^dataset features are not "
                                             "finite as float32$"):
            LabeledDataset(features, np.array([0, 1]), ("a", "b"))


class TestImagesPerLabel:
    def test_oxford_configuration_is_exactly_10(self):
        ds = make_dataset(per_label=10, labels=102)
        assert images_per_label(ds) == 10.0

    def test_api_task_configuration_is_50(self):
        ds = make_dataset(per_label=50, labels=5)
        assert images_per_label(ds) == 50.0

    def test_single_example_single_label(self):
        ds = LabeledDataset(np.zeros((1, 2)), np.array([0]), ("only",), "d")
        assert images_per_label(ds) == 1.0

    def test_empty_rejected(self):
        class Empty:
            num_labels = 3

            def __len__(self):
                return 0

        with pytest.raises(ValueError, match="empty"):
            images_per_label(Empty())


class TestPartitionDomain:
    def test_large_domain_splits_exactly(self):
        ds = make_dataset(per_label=250, labels=4)   # 1000 examples
        part = partition_domain(ds, seed=0)
        assert len(part.source_train) == 250
        assert len(part.val_source) == 250
        assert len(part.val_target) == 250
        assert len(part.transfer_pool) == 250
        assert len(part.target) == 25

    def test_minimum_one_target_example(self):
        ds = make_dataset(per_label=4, labels=2)     # 8 examples
        part = partition_domain(ds, seed=1)
        for p in (part.source_train, part.val_source, part.val_target,
                  part.transfer_pool):
            assert len(p) == 2
        assert len(part.target) == 1

    def test_same_seed_gives_identical_partitions(self):
        ds = make_dataset(per_label=13, labels=3, seed=2)
        a = partition_domain(ds, seed=7)
        b = partition_domain(ds, seed=7)
        for pa, pb in ((a.source_train, b.source_train),
                       (a.val_source, b.val_source),
                       (a.val_target, b.val_target),
                       (a.transfer_pool, b.transfer_pool),
                       (a.target, b.target)):
            assert np.array_equal(pa.features, pb.features)
            assert np.array_equal(pa.labels, pb.labels)

    @pytest.mark.parametrize("per_label,labels,seed", [
        (4, 2, 0), (5, 3, 1), (11, 4, 2), (27, 5, 3), (13, 7, 4)])
    def test_partitions_disjoint_union_and_balanced(self, per_label, labels, seed):
        ds = make_dataset(per_label=per_label, labels=labels, seed=seed)
        # tag every row uniquely through a feature value
        ds.features[:, 0] = np.arange(len(ds))
        part = partition_domain(ds, seed=seed)
        pieces = [part.source_train, part.val_source, part.val_target,
                  part.transfer_pool]
        ids = [set(p.features[:, 0].astype(int).tolist()) for p in pieces]
        union = set()
        for s in ids:
            assert not (union & s)          # pairwise disjoint
            union |= s
        assert union == set(range(len(ds)))  # union is the whole input
        sizes = [len(p) for p in pieces]
        assert max(sizes) - min(sizes) <= 1
        for label in range(labels):
            counts = [int((p.labels == label).sum()) for p in pieces]
            assert max(counts) - min(counts) <= 1
        # target is a subset of the pool
        pool_ids = set(part.transfer_pool.features[:, 0].astype(int).tolist())
        target_ids = set(part.target.features[:, 0].astype(int).tolist())
        assert target_ids <= pool_ids
        assert len(part.target) == max(1, len(part.transfer_pool) // 10)

    def test_minimum_one_rule_gives_a_rare_label_a_target_example(self):
        # a pool of 50/50/50/3 per label: the tenth's 15 examples apportion
        # as 5/5/5/0, so the rule moves one from label 0, the first of the
        # largest quotas, to label 3
        ys = np.repeat(np.arange(4), [200, 200, 200, 12])
        ds = LabeledDataset(np.zeros((len(ys), 2)), ys, ("a", "b", "c", "d"),
                            "d")
        part = partition_domain(ds, seed=0)
        assert np.bincount(part.transfer_pool.labels).tolist() == [50, 50, 50, 3]
        assert np.bincount(part.target.labels).tolist() == [4, 5, 5, 1]

    def test_label_below_four_examples_rejected_by_name(self):
        feats = np.zeros((7, 2))
        ys = np.array([0, 0, 0, 0, 1, 1, 1])
        ds = LabeledDataset(feats, ys, ("plenty", "scarce"), "d")
        with pytest.raises(ValueError, match="scarce"):
            partition_domain(ds, seed=0)


class TestSplitTrainVal:
    def test_api_style_80_20(self):
        ds = make_dataset(per_label=50, labels=5)    # 250 examples
        tr, va = split_train_val(ds, 0.8, seed=0)
        assert len(tr) == 200 and len(va) == 50
        for label in range(5):
            assert int((tr.labels == label).sum()) == 40
            assert int((va.labels == label).sum()) == 10

    def test_two_example_label_splits_one_one(self):
        ds = make_dataset(per_label=2, labels=3)
        tr, va = split_train_val(ds, 0.5, seed=0)
        for label in range(3):
            assert int((tr.labels == label).sum()) == 1
            assert int((va.labels == label).sum()) == 1

    def test_same_seed_identical(self):
        ds = make_dataset(per_label=9, labels=3, seed=5)
        a = split_train_val(ds, 0.7, seed=3)
        b = split_train_val(ds, 0.7, seed=3)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_fraction_validation(self):
        ds = make_dataset(per_label=4)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="train_fraction"):
                split_train_val(ds, bad, seed=0)

    def test_empty_side_rejected_with_label_name(self):
        ds = make_dataset(per_label=2, labels=2)
        with pytest.raises(ValueError, match="empty side"):
            split_train_val(ds, 0.9, seed=0)   # round(1.8) = 2 -> empty val

    def test_counts_within_one_of_fraction(self):
        ds = make_dataset(per_label=13, labels=4, seed=6)
        tr, _ = split_train_val(ds, 0.6, seed=1)
        for label in range(4):
            got = int((tr.labels == label).sum())
            assert abs(got - 0.6 * 13) <= 1


class TestSyntheticDomains:
    def test_same_spec_same_dataset(self):
        spec = SyntheticDomainSpec("dom", 3, 6, seed=4, family_seed=2)
        a = gen_synthetic_domain(spec)
        b = gen_synthetic_domain(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_relatedness_rejected(self):
        with pytest.raises(ValueError, match="relatedness"):
            SyntheticDomainSpec("d", 3, 6, relatedness=1.5)
        with pytest.raises(ValueError, match="relatedness"):
            SyntheticDomainSpec("d", 3, 6, relatedness=-0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="num_labels"):
            SyntheticDomainSpec("d", 1, 6)
        with pytest.raises(ValueError, match="examples_per_label"):
            SyntheticDomainSpec("d", 3, 3)
        with pytest.raises(ValueError, match="motif_size"):
            SyntheticDomainSpec("d", 3, 6, image_size=10, motif_size=4)

    def test_full_relatedness_duplicates_generative_parameters(self):
        a = SyntheticDomainSpec("a", 3, 6, relatedness=1.0, seed=1, family_seed=9)
        b = SyntheticDomainSpec("b", 3, 6, relatedness=1.0, seed=2, family_seed=9)
        pa, pb = domain_parameters(a), domain_parameters(b)
        assert np.array_equal(pa.motifs, pb.motifs)
        assert np.array_equal(pa.compositions, pb.compositions)

    def test_zero_relatedness_is_independent_of_family(self):
        a = SyntheticDomainSpec("a", 3, 6, relatedness=0.0, seed=1, family_seed=9)
        b = SyntheticDomainSpec("a", 3, 6, relatedness=0.0, seed=1, family_seed=13)
        pa, pb = domain_parameters(a), domain_parameters(b)
        assert np.array_equal(pa.motifs, pb.motifs)   # family ignored at rho=0

    def test_shared_labels_stable_across_label_counts(self):
        small = SyntheticDomainSpec("a", 3, 6, relatedness=1.0, family_seed=4)
        large = SyntheticDomainSpec("b", 5, 6, relatedness=1.0, family_seed=4)
        ps, pl = domain_parameters(small), domain_parameters(large)
        assert np.array_equal(ps.compositions, pl.compositions[:3])

    def test_linear_probe_transfers_between_related_domains(self):
        # threshold frozen from an oracle run: cross-domain top-1 was 1.00
        # at rho=0.9 against 0.25 chance
        fam = 7
        a = gen_synthetic_domain(SyntheticDomainSpec(
            "a", 4, 30, relatedness=1.0, seed=1, family_seed=fam))
        b = gen_synthetic_domain(SyntheticDomainSpec(
            "b", 4, 30, relatedness=0.9, seed=2, family_seed=fam))

        def flat(ds):
            return LabeledDataset(ds.features.reshape(len(ds), -1), ds.labels,
                                  ds.label_names, ds.domain_name)

        fa, fb = flat(a), flat(b)
        spec = (StageSpec("fc", (LayerSpec("dense"),)),)
        m = build_staged_network(spec, (fa.features.shape[1],), 4, seed=0)
        sched = uniform_schedule(m.stage_names, m.head_name, 1.0, 1.0)
        policy = LrPolicy(0.05, step_size=100, total_iterations=300)
        train(m, fa, fa, sched, policy, batch_size=8, seed=5)
        assert evaluate(m, fb) >= 0.6


class TestOnDiskFormat:
    def test_tensor_file_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)
        path = tmp_path / "t.ftt"
        binio.save_tensor_file(path, arr)
        out = binio.load_tensor_file(path)
        assert np.array_equal(out, arr)
        assert out.dtype == np.float32

    @pytest.mark.filterwarnings("error")     # no overflow warning either
    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_tensor_not_finite_as_float32_refused_before_the_file(self,
                                                                  tmp_path,
                                                                  value):
        path = tmp_path / "t.ftt"
        with pytest.raises(binio.FormatError, match="not finite as float32"):
            binio.save_tensor_file(path, np.array([[1.0, value]]))
        assert not path.exists()
        with pytest.raises(binio.FormatError, match="not finite as float32"):
            binio.finite_float32(np.array([value]))

    def test_tensor_file_bad_magic(self, tmp_path):
        path = tmp_path / "t.ftt"
        path.write_bytes(b"XXXX\x01\x02")
        with pytest.raises(binio.FormatError, match="magic"):
            binio.load_tensor_file(path)

    def test_rank_beyond_the_maximum_refused_before_the_file(self, tmp_path):
        path = tmp_path / "t.ftt"
        with pytest.raises(binio.FormatError,
                           match="^tensor rank 9 exceeds maximum 8$"):
            binio.save_tensor_file(path, np.zeros((1,) * 9))
        assert not path.exists()
        binio.save_tensor_file(path, np.zeros((1,) * 8))
        assert binio.load_tensor_file(path).shape == (1,) * 8

    def test_tensor_name_longer_than_its_u16_length_refused(self):
        assert binio.named_tensor_header("n" * 0xFFFF, (1,))[:2] == b"\xff\xff"
        with pytest.raises(binio.FormatError,
                           match="^tensor name too long: 65536 bytes$"):
            binio.named_tensor_header("n" * 0x10000, (1,))
        with pytest.raises(binio.FormatError, match="too long: 65536 bytes"):
            binio.named_tensor_header("\u00e9" * 0x8000, (1,))

    def test_zero_dim_beside_huge_dims_is_format_error(self, tmp_path):
        path = tmp_path / "t.ftt"
        # no data to read, but numpy cannot make an array of this shape
        path.write_bytes(b"FTT0" + bytes([3]) + struct.pack(
            "<3I", 0, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(binio.FormatError, match="dims"):
            binio.load_tensor_file(path)

    def test_dataset_round_trip(self, tmp_path):
        ds = gen_synthetic_domain(SyntheticDomainSpec("dom", 3, 5, seed=3))
        save_dataset(ds, tmp_path / "dom")
        back = load_dataset(tmp_path / "dom")
        assert back.domain_name == "dom"
        assert back.label_names == ds.label_names
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.features,
                              ds.features.astype(np.float32).astype(np.float64))

    def test_example_the_format_refuses_leaves_no_file(self, tmp_path):
        ds = gen_synthetic_domain(SyntheticDomainSpec("dom", 3, 4, seed=3)
                                  ).subset(range(6))
        ds.features[4, 0, 2, 3] = np.inf
        with pytest.raises(binio.FormatError, match="not finite as float32"):
            save_dataset(ds, tmp_path / "dom")
        assert list(tmp_path.rglob("*.ftt")) == []
        assert list(tmp_path.rglob("manifest.tsv")) == []

    def test_manifest_assigns_ids_by_first_appearance(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        for i, label in enumerate(["zebra", "apple", "zebra"]):
            (d / label).mkdir(exist_ok=True)
            binio.save_tensor_file(d / label / f"{i}.ftt",
                                   np.full((2, 2), float(i), dtype=np.float32))
        manifest = "\n".join([f"zebra/0.ftt\tzebra",
                              f"apple/1.ftt\tapple",
                              f"zebra/2.ftt\tzebra"]) + "\n"
        (d / "manifest.tsv").write_text(manifest, encoding="utf-8")
        ds = load_dataset(d)
        assert ds.label_names == ("zebra", "apple")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_sound_dataset_opens_each_example_file_once(self, tmp_path,
                                                         monkeypatch):
        d = str(tmp_path / "dom")
        save_dataset(gen_synthetic_domain(SyntheticDomainSpec(
            "dom", 3, 4, image_size=8, seed=3)), d)
        opened = collections.Counter()
        with monkeypatch.context() as m:
            for module in (builtins, os):
                def recording(path, *args, _open=module.open, **kwargs):
                    opened[os.fspath(path)] += 1
                    return _open(path, *args, **kwargs)
                m.setattr(module, "open", recording)
            load_dataset(d)
        manifest = os.path.join(d, "manifest.tsv")
        with open(manifest, encoding="utf-8") as f:
            examples = [os.path.join(d, line.split("\t")[0]) for line in f]
        assert opened == collections.Counter([manifest] + examples)
        assert len(examples) == 12

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_blank_manifest_lines_skipped(self, tmp_path):
        (tmp_path / "a").mkdir()
        for i in range(2):
            binio.save_tensor_file(tmp_path / "a" / f"{i}.ftt",
                                   np.full((2, 2), float(i), np.float32))
        (tmp_path / "manifest.tsv").write_text("\na/0.ftt\ta\n\na/1.ftt\ta\n\n",
                                               encoding="utf-8")
        ds = load_dataset(tmp_path)
        assert ds.labels.tolist() == [0, 0]
        assert ds.features[:, 0, 0].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("manifest", ["", "\n\n"], ids=["empty", "blank"])
    def test_manifest_of_no_examples_rejected(self, tmp_path, manifest):
        (tmp_path / "manifest.tsv").write_text(manifest, encoding="utf-8")
        with pytest.raises(ValueError, match=r"manifest\.tsv lists no examples$"):
            load_dataset(tmp_path)

    def test_mixed_shapes_rejected(self, tmp_path):
        d = tmp_path / "ds"
        (d / "a").mkdir(parents=True)
        binio.save_tensor_file(d / "a" / "0.ftt", np.zeros((2, 2), np.float32))
        binio.save_tensor_file(d / "a" / "1.ftt", np.zeros((3, 3), np.float32))
        (d / "manifest.tsv").write_text("a/0.ftt\ta\na/1.ftt\ta\n",
                                        encoding="utf-8")
        with pytest.raises(ValueError, match="mixed"):
            load_dataset(d)

    @pytest.mark.parametrize("case", BROKEN_DATASET_CASES)
    def test_broken_example_names_its_manifest_line(self, tmp_path, case):
        write_broken_dataset(tmp_path / "ds", case)
        with pytest.raises(ValueError, match=r"manifest\.tsv:2: ") as info:
            load_dataset(tmp_path / "ds")
        assert "a/1.ftt" in str(info.value)

    @pytest.mark.parametrize("shapes, loads", [
        ([(1, 4, 4)], True),
        ([(5,)] * 4, True),
        ([(2, 3, 4)] * 4, True),
        ([(0, 4)] * 3, True),
        ([(2, 2)] + [(3, 3)] * 3, False),
        ([(0, 4)] + [(1, 4)] * 2, False),
        ([(1, 4)] + [(0, 4)] * 2, False),
    ], ids=["one_example", "rank_1", "rank_3", "zero_size",
            "first_shape_differs", "zero_size_first", "zero_size_after"])
    def test_edge_shapes_load_as_the_per_file_reference_does(self, tmp_path,
                                                            shapes, loads):
        rng = np.random.default_rng(0)
        (tmp_path / "a").mkdir()
        for i, shape in enumerate(shapes):
            binio.save_tensor_file(tmp_path / "a" / f"{i}.ftt",
                                   rng.normal(size=shape))
        (tmp_path / "manifest.tsv").write_text(
            "".join(f"a/{i}.ftt\t{'ab'[i % 2]}\n" for i in range(len(shapes))),
            encoding="utf-8")
        error = load_as_reference_does(tmp_path)
        assert (error is None) == loads, error
        if not loads:
            assert "manifest.tsv:2: a/1.ftt: mixed shapes" in error

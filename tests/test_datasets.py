"""Synthetic generators, geometric shift, lifting, batching, CSV round trip."""

import pickle
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

import renlab.datasets
from renlab.datasets import (
    BLOCK_ROWS,
    DataSpec,
    DomainDataset,
    batch_stream,
    batches,
    lift,
    lift_embedding,
    load_dataset,
    make_blobs,
    make_domain_dataset,
    make_two_moons,
    release_free_heap,
    save_dataset,
    standard_benchmark,
)
from renlab.exceptions import ConfigError, ContractError
from renlab.trainer import TrainConfig, Trainer


def test_two_moons_counts_and_determinism():
    x, y = make_two_moons(100, 0.1, 7)
    assert np.sum(y == 0) == 50
    assert np.sum(y == 1) == 50
    again, _ = make_two_moons(100, 0.1, 7)
    assert np.array_equal(x, again)
    other, _ = make_two_moons(100, 0.1, 8)
    assert not np.array_equal(x, other)


def test_two_moons_noiseless_class0_on_unit_circle():
    x, y = make_two_moons(80, 0.0, 1)
    r = np.linalg.norm(x[y == 0], axis=1)
    assert np.abs(r - 1.0).max() < 1e-12
    assert (x[y == 0][:, 1] >= -1e-12).all()  # upper half


def test_two_moons_validation():
    with pytest.raises(ConfigError):
        make_two_moons(1, 0.1, 0)
    with pytest.raises(ConfigError):
        make_two_moons(10, -0.1, 0)


def test_blobs_zero_sigma_and_counts():
    centers = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
    x, y = make_blobs(9, 3, centers, 0.0, 5)
    for k in range(3):
        assert np.sum(y == k) == 3
        assert np.array_equal(x[y == k], np.tile(centers[k], (3, 1)))


def test_blobs_class_means_near_centers():
    # sample mean within 3 sigma / sqrt(n) of each center, seeded draw
    centers = [[0.0, 0.0], [10.0, 0.0]]
    sigma = 0.5
    for seed in range(5):
        x, y = make_blobs(400, 2, centers, sigma, seed)
        for k in range(2):
            pts = x[y == k]
            bound = 3.0 * sigma / np.sqrt(len(pts))
            assert np.abs(pts.mean(axis=0) - centers[k]).max() < bound


def test_blobs_imbalance_ratio():
    _, y = make_blobs(300, 3, [[0, 0], [1, 0], [2, 0]], 0.1, 2, imbalance_ratio=2.0)
    counts = [int(np.sum(y == k)) for k in range(3)]
    assert sum(counts) == 300
    assert counts[0] < counts[1] < counts[2]
    assert counts[2] == pytest.approx(2 * counts[0], abs=2)


def test_blobs_validation():
    with pytest.raises(ConfigError):
        make_blobs(10, 1, [[0, 0]], 0.1, 0)
    with pytest.raises(ConfigError):
        make_blobs(10, 2, [[0, 0]], 0.1, 0)  # one center for two classes
    with pytest.raises(ConfigError, match="^imbalance_ratio must be > 0, got 0.0$"):
        make_blobs(12, 3, [[0, 0], [1, 0], [2, 0]], 0.1, 0, imbalance_ratio=0.0)


def test_data_spec_validation():
    with pytest.raises(ConfigError):
        DataSpec(scale=0.0)
    with pytest.raises(ConfigError):
        DataSpec(shift_noise=-1.0)
    with pytest.raises(ConfigError):
        DataSpec(gen="blobs", imbalance=0.0)
    with pytest.raises(ConfigError, match="lift_noise must be >= 0"):
        DataSpec(lift_noise=-0.5)
    with pytest.raises(ConfigError, match="^gen must be 'two_moons' or 'blobs', got 'spirals'"):
        DataSpec(gen="spirals")
    with pytest.raises(ConfigError, match="n must be >= 1, got 0"):
        DataSpec(n=0)
    with pytest.raises(ConfigError, match="n_target must be >= 1, got -5"):
        DataSpec(gen="blobs", n_target=-5)


@pytest.mark.parametrize("name, value", [
    ("n", 2.5), ("classes", 2.0), ("n", True), ("lift_dim", True), ("rot", "45"),
    ("lift_noise", True), ("trans_x", (1.0, 2.0)), ("trans_y", "0"),
], ids=["n-float", "classes-float", "n-bool", "lift_dim-bool", "rot-text", "lift_noise-bool",
        "trans_x-pair", "trans_y-text"])
def test_data_spec_rejects_a_value_of_the_wrong_type_by_name(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        DataSpec(**{name: value})


@pytest.mark.parametrize("build", [
    lambda: make_domain_dataset(DataSpec(n=10), -1),
    lambda: standard_benchmark(-1, n=10),
], ids=["make_domain_dataset", "standard_benchmark"])
def test_a_negative_seed_is_refused_where_it_enters(build):
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        build()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: DataSpec(rot=NAN),
    lambda: DataSpec(trans_y=INF),
    lambda: DataSpec(scale=INF),
    lambda: DataSpec(shift_noise=NAN),
    lambda: DataSpec(gen="blobs", imbalance=INF),
    lambda: make_two_moons(10, NAN, 0),
    lambda: make_blobs(10, 2, [[0, 0], [1, 0]], NAN, 0),
    lambda: make_blobs(10, 2, [[0, 0], [1, NAN]], 0.1, 0),
    lambda: make_blobs(10, 2, [[0, 0], [1, 0]], 0.1, 0, imbalance_ratio=NAN),
    lambda: lift(np.ones((2, 2)), lift_embedding(2, 4, 0), NAN, 0),
    lambda: DataSpec(lift_dim=0, lift_noise=NAN),
], ids=["rotation", "translation", "scale", "shift-noise", "imbalance", "moons-noise",
        "blobs-sigma", "blobs-center", "blobs-imbalance", "lift-noise", "unused-lift-noise"])
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ConfigError, match="finite"):
        build()


def test_identity_shift_reproduces_the_source_process():
    ds = make_domain_dataset(DataSpec(n=4000, noise=0.12, rot=0.0, lift_dim=0), 3)
    src_x, tgt_x = ds.source_x, ds.target_x
    assert not np.array_equal(src_x, tgt_x)  # a fresh draw, not a copy
    # same distribution: first and second moments agree within sampling error
    assert np.abs(src_x.mean(axis=0) - tgt_x.mean(axis=0)).max() < 0.05
    assert np.abs(np.cov(src_x.T) - np.cov(tgt_x.T)).max() < 0.05
    assert np.sum(ds.target_y == 0) == 2000


def test_rotation_180_swaps_moon_positions():
    ds = make_domain_dataset(DataSpec(n=600, noise=0.05, rot=180.0, lift_dim=0), 11)
    # rotated class-0 points land on the class-1 locus and vice versa
    c0_target = ds.target_x[ds.target_y == 0].mean(axis=0)
    c1_source = ds.source_x[ds.source_y == 1].mean(axis=0)
    assert np.abs(c0_target - c1_source).max() < 0.05
    c1_target = ds.target_x[ds.target_y == 1].mean(axis=0)
    c0_source = ds.source_x[ds.source_y == 0].mean(axis=0)
    assert np.abs(c1_target - c0_source).max() < 0.05


def test_moons_reject_imbalance():
    with pytest.raises(ConfigError):
        DataSpec(n=100, noise=0.1, imbalance=2.0)


def test_shift_drops_source_only_accuracy():
    # a source-only classifier must lose >= 10 points under rotation plus
    # translation, relative to an identity-shift control, 5-seed mean
    identity = DataSpec(rot=0.0, lift_dim=0)
    hard = DataSpec(rot=45.0, trans_x=0.3, trans_y=0.1, lift_dim=0)
    drops = []
    for seed in range(5):
        cfg = TrainConfig(variant="source_only", seed=seed, total_steps=400)
        accs = {}
        for name, spec in (("identity", identity), ("hard", hard)):
            ds = make_domain_dataset(spec, seed)
            accs[name] = Trainer(cfg, ds).run()[0].final_accuracy
        drops.append(accs["identity"] - accs["hard"])
    assert float(np.mean(drops)) >= 0.10


def test_lift_embedding_shapes_and_determinism():
    emb = lift_embedding(2, 16, 5)
    assert emb.shape == (2, 16)
    assert np.array_equal(emb, lift_embedding(2, 16, 5))
    with pytest.raises(ConfigError):
        lift_embedding(4, 2, 5)


def test_lift_applies_embedding_then_noise(rng):
    x = rng.normal(size=(10, 2))
    emb = lift_embedding(2, 8, 1)
    clean = lift(x, emb, 0.0, 3)
    assert np.array_equal(clean, x @ emb)
    noisy = lift(x, emb, 0.1, 3)
    assert not np.array_equal(clean, noisy)
    assert np.array_equal(noisy, lift(x, emb, 0.1, 3))
    with pytest.raises(ConfigError, match="must be >= 0"):
        lift(x, emb, -0.5, 3)


def test_domain_dataset_validation(rng):
    x, y = rng.normal(size=(3, 2)), np.array([0, 1, 1])
    with pytest.raises(ContractError, match="counts differ"):
        DomainDataset(x, y[:2], x, y)
    # each case below used to be accepted and broke training late, or
    # trained on labels gather_rows truncated
    bad = [
        ((x, y, rng.normal(size=(3, 3)), y), "2 coordinates, target samples 3"),
        ((x[:, 0], y, x, y), "source samples must be a 2-D array, got 1-D"),
        ((x, y, x[:, 0], y), "target samples must be a 2-D array, got 1-D"),
        ((x, y + 0.5, x, y), "source labels must be a 1-D integer array, got 1-D float64"),
        ((x, y, x, y.astype(bool)), "target labels must be a 1-D integer array, got 1-D bool"),
        ((x, y[:, None], x, y), "source labels must be a 1-D integer array, got 2-D int64"),
        ((x[:1], y[:1], x, y), "source labels must name at least 2 classes, got 1"),
        ((x, np.zeros(3, dtype=np.uint8), x, y), "at least 2 classes, got 1"),
    ]
    for args, message in bad:
        with pytest.raises(ContractError, match=message):
            DomainDataset(*args)
    for dtype in (np.int32, np.uint8):  # the integer dtypes a CSV round trip keeps
        assert DomainDataset(x, y.astype(dtype), x, y.astype(dtype)).n_classes == 2


def test_make_domain_dataset_properties():
    spec = DataSpec(n=60, noise=0.1, rot=30.0, lift_dim=10, lift_noise=0.05)
    ds = make_domain_dataset(spec, 4)
    assert ds.n_source == 60
    assert ds.n_target == 60
    assert ds.n_classes == 2
    assert ds.input_dim == 10
    assert ds.meta["rot"] == 30.0
    assert ds.meta == {"seed": 4, **asdict(spec)}
    assert list(ds.meta) == ["seed", *(f.name for f in fields(DataSpec))]


def test_standard_benchmark_recipe():
    ds = standard_benchmark(0)
    assert (ds.n_source, ds.n_target, ds.input_dim, ds.n_classes) == (500, 500, 16, 2)
    assert np.array_equal(ds.source_x, standard_benchmark(0).source_x)
    smaller = standard_benchmark(0, n_target=123)
    assert smaller.n_target == 123
    assert np.array_equal(smaller.source_x, ds.source_x)  # same source draw
    assert smaller.meta["n"] == 500 and smaller.meta["n_target"] == 123
    assert (smaller.source_x.shape[0], smaller.target_x.shape[0]) == (500, 123)


def test_data_spec_pickles_and_rebuilds_identical_arrays():
    spec = DataSpec(gen="blobs", n=50, n_target=40, classes=4, imbalance=2.0,
                    trans_x=0.5, shift_noise=0.3, lift_dim=6)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec
    a, b = make_domain_dataset(spec, 2), make_domain_dataset(back, 2)
    for name in ("source_x", "source_y", "target_x", "target_y"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.meta == b.meta


def test_batches_counts_and_id_ranges():
    ds = standard_benchmark(1, n=100, n_target=100)
    got = batches(ds, 32, 5, epoch=0)
    assert len(got) == 3  # floor(100/32), short tail dropped
    for b in got:
        assert b.xs.shape == (32, 16)
        assert b.xt.shape == (32, 16)
        assert b.src_ids.min() >= 0 and b.src_ids.max() < 100
        assert b.tgt_ids.min() >= 100 and b.tgt_ids.max() < 200


def test_batches_each_id_at_most_once_per_epoch():
    ds = standard_benchmark(1, n=100, n_target=100)
    for epoch in range(3):
        got = batches(ds, 32, 5, epoch=epoch)
        sids = np.concatenate([b.src_ids for b in got])
        tids = np.concatenate([b.tgt_ids for b in got])
        assert len(np.unique(sids)) == len(sids)
        assert len(np.unique(tids)) == len(tids)


def test_batches_reshuffle_between_epochs_reproducibly():
    ds = standard_benchmark(1, n=100, n_target=100)
    e0 = batches(ds, 32, 5, epoch=0)
    e1 = batches(ds, 32, 5, epoch=1)
    assert not np.array_equal(e0[0].src_ids, e1[0].src_ids)
    again = batches(ds, 32, 5, epoch=0)
    assert np.array_equal(e0[0].src_ids, again[0].src_ids)


def test_batches_validate_size():
    ds = standard_benchmark(1, n=50, n_target=100)
    with pytest.raises(ConfigError):
        batches(ds, 51, 0, 0)
    with pytest.raises(ConfigError):
        batches(ds, 0, 0, 0)


@pytest.mark.parametrize("size", [2.5, True, "4"])
def test_batches_refuse_a_size_that_is_not_an_integer(size):
    # True ran as a batch size of 1, and 2.5 raised a bare TypeError
    with pytest.raises(ConfigError, match="^batch_size must be "):
        batches(standard_benchmark(1, n=50, n_target=100), size, 0, 0)


def test_batch_stream_crosses_epochs():
    ds = standard_benchmark(1, n=64, n_target=64)
    stream = batch_stream(ds, 32, 9)
    seen = [next(stream) for _ in range(5)]  # 2 batches/epoch, so 3 epochs
    assert len(seen) == 5
    assert not np.array_equal(seen[0].src_ids, seen[2].src_ids)


def test_dataset_csv_roundtrip(tmp_path):
    ds = standard_benchmark(2, n=40, n_target=30)
    csv_path = tmp_path / "d.csv"
    meta_path = tmp_path / "d.meta"
    save_dataset(ds, csv_path, meta_path)
    back = load_dataset(csv_path)
    assert np.array_equal(back.source_x, ds.source_x)  # repr round trip, exact
    assert np.array_equal(back.target_x, ds.target_x)
    assert np.array_equal(back.source_y, ds.source_y)
    assert np.array_equal(back.target_y, ds.target_y)
    assert (back.n_source, back.n_target) == (40, 30)
    text = meta_path.read_text().splitlines()
    assert "rot = 45.0" in text
    assert "n = 40" in text and "n_target = 30" in text
    # saving the loaded copy reproduces the file byte for byte
    save_dataset(DomainDataset(back.source_x, back.source_y, back.target_x,
                               back.target_y, ds.meta), tmp_path / "d2.csv", meta_path)
    assert (tmp_path / "d2.csv").read_bytes() == csv_path.read_bytes()


def test_load_dataset_releases_the_freed_heap_before_returning(tmp_path, monkeypatch):
    save_dataset(standard_benchmark(2, n=40), tmp_path / "d.csv", tmp_path / "d.meta")
    calls = []
    monkeypatch.setattr(renlab.datasets, "release_free_heap", lambda: calls.append(1))
    load_dataset(tmp_path / "d.csv")
    assert calls == [1]
    monkeypatch.undo()
    release_free_heap()  # runs on any C library, with or without malloc_trim


def test_load_dataset_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n")
    with pytest.raises(ContractError):
        load_dataset(p)


def small_dataset_csv(tmp_path):
    path = tmp_path / "d.csv"
    ds = standard_benchmark(2, n=4, n_target=3, lift_dim=0)
    save_dataset(ds, path, tmp_path / "d.meta")
    return path, path.read_text()


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace(",source,", ",elsewhere,", 1),
    lambda t: t.replace(",source,0,", ",source,zero,", 1),
    lambda t: t.replace(",target,", ",target,1,", 1),  # one column too many
    lambda t: t[:t.rindex(",")] + "\n",  # last row lost a coordinate
    lambda t: t[:t.rindex(",") + 1] + "nan\n",
    lambda t: t[:t.index(",target,")].rsplit("\n", 1)[0] + "\n",  # no target rows
    lambda t: t.replace("\n2,source,", "\nbanana,source,", 1),
    lambda t: t.replace("\n2,source,", "\n1,source,", 1),  # id 1 twice
    lambda t: t.replace(",source,0,", ",source,99999999999999999999,", 1),
    lambda t: t.replace(",source,0,", ",source,-1,", 1),
    lambda t: t.replace(",target,0,", ",target,7,", 1),  # beyond the source's classes
], ids=["unknown-split", "word-label", "long-row", "short-row", "non-finite", "no-target",
        "bad-id", "repeated-id", "huge-label", "negative-label", "target-label-7"])
def test_load_dataset_rejects_corrupt_files(tmp_path, corrupt):
    path, text = small_dataset_csv(tmp_path)
    path.write_text(corrupt(text))
    with pytest.raises(ContractError):
        load_dataset(path)


def test_load_dataset_rejects_every_mid_line_truncation(tmp_path):
    path, text = small_dataset_csv(tmp_path)
    for cut in range(len(text)):
        if cut and text[cut - 1] == "\n":
            continue  # whole rows dropped: a smaller dataset, not a corrupt one
        path.write_text(text[:cut])
        with pytest.raises(ContractError):
            load_dataset(path)


def test_load_dataset_names_a_bad_or_misplaced_id(tmp_path):
    path, text = small_dataset_csv(tmp_path)
    lines = text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]  # ids 2 then 1: both out of place
    path.write_text("\n".join(lines))
    with pytest.raises(ContractError, match="line 3 "):
        load_dataset(path)


def reference_csv(ds: DomainDataset) -> str:
    """The dataset CSV written one row at a time with repr(float(v))."""
    lines = ["id,split,label," + ",".join(f"x_{j}" for j in range(ds.input_dim))]
    for i in range(ds.n_source):
        coords = ",".join(repr(float(v)) for v in ds.source_x[i])
        lines.append(f"{i},source,{ds.source_y[i]},{coords}")
    for i in range(ds.n_target):
        coords = ",".join(repr(float(v)) for v in ds.target_x[i])
        lines.append(f"{ds.n_source + i},target,{ds.target_y[i]},{coords}")
    return "\n".join(lines) + "\n"


def test_csv_spanning_several_blocks_matches_the_per_row_reference(tmp_path):
    n_source, n_target = 2 * BLOCK_ROWS + 37, BLOCK_ROWS + 5
    ds = standard_benchmark(3, n=n_source, n_target=n_target, lift_dim=5)
    path = tmp_path / "d.csv"
    save_dataset(ds, path, tmp_path / "d.meta")
    assert path.read_bytes() == reference_csv(ds).encode()
    back = load_dataset(path)
    for field in ("source_x", "source_y", "target_x", "target_y"):
        want, got = getattr(ds, field), getattr(back, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_dtype", [np.int64, np.int32, np.float32])
@pytest.mark.parametrize("y_dtype", [np.int64, np.int32, np.uint8])
def test_csv_of_other_dtypes_matches_the_per_row_reference(tmp_path, rng, x_dtype, y_dtype):
    n = BLOCK_ROWS + 3
    def coords():
        return (rng.normal(size=(n, 3)) * 50).astype(x_dtype)
    ds = DomainDataset(coords(), rng.integers(0, 4, n).astype(y_dtype),
                       coords(), rng.integers(0, 4, n).astype(y_dtype))
    path = tmp_path / "d.csv"
    save_dataset(ds, path, tmp_path / "d.meta")
    assert path.read_bytes() == reference_csv(ds).encode()


def test_bad_number_in_a_later_block_names_its_line(tmp_path):
    ds = standard_benchmark(4, n=BLOCK_ROWS + 20, n_target=BLOCK_ROWS + 20, lift_dim=0)
    path = tmp_path / "d.csv"
    save_dataset(ds, path, tmp_path / "d.meta")
    lines = path.read_text().split("\n")
    bad = 2 * BLOCK_ROWS + 7  # 0-based list index of a row in the third block
    lines[bad] = lines[bad].rsplit(",", 1)[0] + ",1.2.3"
    path.write_text("\n".join(lines))
    with pytest.raises(ContractError, match=f"bad number on line {bad + 1} "):
        load_dataset(path)


def test_the_first_bad_line_is_named_even_inside_a_block(tmp_path):
    path, text = small_dataset_csv(tmp_path)
    lines = text.split("\n")
    lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"  # bad number, line 3
    lines[4] = "4,elsewhere,0,1.0,2.0"  # malformed, line 5
    path.write_text("\n".join(lines))
    with pytest.raises(ContractError, match="bad number on line 3 "):
        load_dataset(path)


def test_failed_write_leaves_no_csv(tmp_path, monkeypatch):
    ds = standard_benchmark(5, n=3 * BLOCK_ROWS, n_target=BLOCK_ROWS, lift_dim=0)
    write_rows = renlab.datasets._write_rows

    def dies_at_the_target_rows(fh, x, y, split, first_id):
        if split == "target":  # after three blocks of source rows
            raise OSError("disk full")
        write_rows(fh, x, y, split, first_id)

    monkeypatch.setattr(renlab.datasets, "_write_rows", dies_at_the_target_rows)
    path = tmp_path / "dataset.csv"
    with pytest.raises(OSError, match="disk full"):
        save_dataset(ds, path, tmp_path / "dataset.meta")
    assert list(tmp_path.iterdir()) == []
    # an existing file is left as it was
    path.write_text("previous\n")
    with pytest.raises(OSError, match="disk full"):
        save_dataset(ds, path, tmp_path / "dataset.meta")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv"]
    assert path.read_text() == "previous\n"


@pytest.mark.parametrize("split", ["source", "target"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_a_non_finite_coordinate_is_refused_before_anything_is_written(tmp_path, split, value):
    ds = standard_benchmark(5, n=40)
    arrays = {"source_x": ds.source_x.copy(), "source_y": ds.source_y,
              "target_x": ds.target_x.copy(), "target_y": ds.target_y}
    arrays[f"{split}_x"][-1, 3] = value  # which load_dataset would refuse
    out = tmp_path / "out"
    with pytest.raises(ContractError, match="non-finite coordinate"):
        save_dataset(DomainDataset(**arrays), out / "dataset.csv", out / "dataset.meta")
    assert not out.exists()


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs, and its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - start, out
    finally:
        tracemalloc.stop()


def test_csv_codec_memory_scales_with_the_arrays(tmp_path):
    spec = DataSpec(gen="blobs", n=3000, classes=6, noise=0.5, rot=30.0, lift_dim=64,
                    lift_noise=0.05)
    ds = make_domain_dataset(spec, 1)
    path = tmp_path / "d.csv"
    save_peak, _ = traced_peak(lambda: save_dataset(ds, path, tmp_path / "d.meta"))
    assert save_peak <= 0.5 * path.stat().st_size
    load_peak, back = traced_peak(lambda: load_dataset(path))
    returned = sum(getattr(back, f).nbytes
                   for f in ("source_x", "source_y", "target_x", "target_y"))
    assert load_peak <= 2.5 * returned

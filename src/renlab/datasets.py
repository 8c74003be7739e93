"""Seeded synthetic domain-shift benchmarks.

A source set is drawn from a 2-D generator (two moons or Gaussian blobs), a
target set is a fresh draw from the same process pushed through a geometric
shift (rotate, scale, translate), and both are optionally lifted to a higher
dimension by one shared random linear embedding plus noise.  A DataSpec
names every parameter, and a dataset is a pure function of its spec and seed.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .exceptions import ConfigError, ContractError, open_text
from .recipe import SEED_RANGE, check_fields, check_value

GENERATORS = ("two_moons", "blobs")
BLOCK_ROWS = 256  # rows per write and per numpy parse in the dataset CSV codec


@dataclass(frozen=True)
class DataSpec:
    """The recipe of one source/target benchmark.

    Each field is a CLI data flag and a key of a run manifest's ``data``.
    The target is a fresh draw of the source process (n_target rows, with
    shift_noise in place of noise unless it is None), rotated and scaled
    about the generator centroid and then translated.  lift_dim 0 keeps
    the raw 2-D data.
    """

    gen: str = field(default="two_moons", metadata={"choices": GENERATORS})
    n: int = field(default=500, metadata={"help": "source sample count", "ge": 1})
    n_target: int | None = field(default=None, metadata={
        "help": "target sample count (default: same as --n)", "ge": 1})
    noise: float = field(default=0.15, metadata={"help": "generator noise sigma", "ge": 0})
    classes: int = field(default=3, metadata={"help": "class count (blobs only)", "ge": 2})
    imbalance: float = field(default=1.0, metadata={
        "help": "target class imbalance ratio (blobs only)", "gt": 0})
    rot: float = field(default=45.0, metadata={"help": "target rotation, degrees"})
    trans_x: float = 0.0
    trans_y: float = 0.0
    scale: float = field(default=1.0, metadata={"gt": 0})
    shift_noise: float | None = field(default=None, metadata={
        "help": "target noise sigma override (default: inherit --noise)", "ge": 0})
    lift_dim: int = field(default=16, metadata={
        "help": "embed 2-D data into this many dimensions (0 = keep 2-D)", "ge": 0})
    lift_noise: float = field(default=0.05, metadata={"ge": 0})

    def __post_init__(self):
        check_fields(self)
        for name in ("imbalance", "classes"):
            if self.gen == "two_moons" and getattr(self, name) != getattr(DataSpec, name):
                raise ConfigError(f"{name} applies to the blobs generator only")


def make_two_moons(n: int, noise_sigma: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving half-circles with Gaussian coordinate noise, as
    (points, labels).

    Class 0 sits on the unit upper half-circle centered at the origin,
    class 1 on a lower half-circle offset to interleave with it.
    """
    if n < 2:
        raise ConfigError(f"two moons needs n >= 2, got {n}")
    check_value("noise_sigma", "float", {"ge": 0}, noise_sigma)
    n0 = n - n // 2
    n1 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    x = np.vstack([
        np.column_stack([np.cos(t0), np.sin(t0)]),
        np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
    ])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    if noise_sigma > 0:
        x = x + rng.normal(0.0, noise_sigma, size=x.shape)
    return x, y


def _class_counts(n: int, c: int, ratio: float) -> np.ndarray:
    """Split n into c counts whose weights ramp linearly from 1 to ratio,
    rounded by largest remainder so they always sum to n.  Needs c >= 2."""
    weights = 1.0 + (ratio - 1.0) * np.arange(c) / (c - 1)
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    remainder = exact - counts
    for i in np.argsort(-remainder)[: n - counts.sum()]:
        counts[i] += 1
    return counts


def make_blobs(n: int, n_classes: int, centers, sigma: float, seed,
               imbalance_ratio: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters, optionally with ramped class imbalance,
    as (points, labels)."""
    if n_classes < 2:
        raise ConfigError(f"blobs needs at least 2 classes, got {n_classes}")
    check_value("sigma", "float", {"ge": 0}, sigma)
    check_value("imbalance_ratio", "float", {"gt": 0}, imbalance_ratio)
    ctr = np.asarray(centers, dtype=np.float64)
    if ctr.ndim != 2 or ctr.shape[0] != n_classes:
        raise ConfigError(f"{ctr.shape[0] if ctr.ndim == 2 else '?'} centers "
                          f"for {n_classes} classes")
    if not np.isfinite(ctr).all():
        raise ConfigError(f"centers must be finite, got {ctr}")
    counts = _class_counts(n, n_classes, imbalance_ratio)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k in range(n_classes):
        pts = np.tile(ctr[k], (counts[k], 1))
        if sigma > 0:
            pts = pts + rng.normal(0.0, sigma, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(counts[k], k, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _blob_centers(classes: int) -> np.ndarray:
    """The blobs generator's class centers, evenly spaced on a radius-2 circle."""
    angles = 2.0 * np.pi * np.arange(classes) / classes
    return np.column_stack([2.0 * np.cos(angles), 2.0 * np.sin(angles)])


def _draw(spec: DataSpec, n: int, noise: float, imbalance: float, seed):
    if spec.gen == "two_moons":
        return make_two_moons(n, noise, seed)
    return make_blobs(n, spec.classes, _blob_centers(spec.classes), noise, seed, imbalance)


def apply_shift(x: np.ndarray, spec: DataSpec) -> np.ndarray:
    """Rotate and scale a fresh target draw about the population mean of
    spec's generator, then translate it."""
    theta = np.deg2rad(spec.rot)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    if spec.gen == "two_moons":
        # each moon's half-circle mean is (0, 2/pi) shifted by its offset;
        # the equal-count mixture lands at (0.5, 0.25)
        c = np.array([0.5, 0.25])
    else:
        c = _blob_centers(spec.classes).mean(axis=0)
    return spec.scale * ((x - c) @ rot.T) + c + np.array([spec.trans_x, spec.trans_y])


def lift_embedding(dim_in: int, dim_out: int, seed) -> np.ndarray:
    """Fixed random linear map, the same for both domains of a dataset."""
    if dim_out < dim_in:
        raise ConfigError(f"lift cannot reduce dimension ({dim_in} -> {dim_out})")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(dim_in), size=(dim_in, dim_out))


def lift(x: np.ndarray, embedding: np.ndarray, noise_sigma: float, seed) -> np.ndarray:
    check_value("lift noise_sigma", "float", {"ge": 0}, noise_sigma)
    lifted = x @ embedding
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        lifted += rng.normal(0.0, noise_sigma, size=lifted.shape)
    return lifted


@dataclass
class DomainDataset:
    """Labeled source samples plus unlabeled-for-training target samples.

    target_y is held out for evaluation; the batch view never exposes it.
    meta is the recipe: the seed, then every DataSpec field in order.
    Both sample arrays are non-empty, 2-D and of one width; both label
    arrays are 1-D integer arrays of matching length; the source labels
    name n_classes >= 2 classes (0 to their maximum), and every label of
    either split lies among them.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for split, x, y in (("source", self.source_x, self.source_y),
                            ("target", self.target_x, self.target_y)):
            if x.ndim != 2:
                raise ContractError(f"{split} samples must be a 2-D array, got {x.ndim}-D")
            if y.ndim != 1 or y.dtype.kind not in "iu":
                raise ContractError(f"{split} labels must be a 1-D integer array, "
                                    f"got {y.ndim}-D {y.dtype}")
            if x.shape[0] != y.shape[0]:
                raise ContractError(f"{split} sample/label counts differ")
        if self.source_x.shape[1] != self.target_x.shape[1]:
            raise ContractError(f"source samples have {self.source_x.shape[1]} coordinates, "
                                f"target samples {self.target_x.shape[1]}")
        if self.source_x.shape[0] == 0 or self.target_x.shape[0] == 0:
            raise ContractError("both domains must be non-empty")
        n_classes = self.n_classes
        if n_classes < 2:
            raise ContractError(f"source labels must name at least 2 classes, got {n_classes}")
        for split, y in (("source", self.source_y), ("target", self.target_y)):
            outside = y[(y < 0) | (y >= n_classes)]
            if outside.size:
                raise ContractError(f"{split} label {outside[0]} lies outside [0, {n_classes}), "
                                    f"the classes the source labels name")

    @property
    def n_source(self) -> int:
        return self.source_x.shape[0]

    @property
    def n_target(self) -> int:
        return self.target_x.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.source_y.max()) + 1

    @property
    def input_dim(self) -> int:
        return self.source_x.shape[1]


def make_domain_dataset(spec: DataSpec, seed) -> DomainDataset:
    """The source draw and its shifted target redraw, both lifted through
    one shared embedding unless spec.lift_dim is 0."""
    check_value("seed", "int", SEED_RANGE, seed)
    # seed offsets 900.. keep dataset streams disjoint from network-init seeds
    sx, sy = _draw(spec, spec.n, spec.noise, 1.0, [seed, 900])
    n_target = spec.n if spec.n_target is None else spec.n_target
    noise = spec.noise if spec.shift_noise is None else spec.shift_noise
    tx, ty = _draw(spec, n_target, noise, spec.imbalance, [seed, 901])
    tx = apply_shift(tx, spec)
    if spec.lift_dim:
        emb = lift_embedding(sx.shape[1], spec.lift_dim, [seed, 902])
        sx = lift(sx, emb, spec.lift_noise, [seed, 903])
        tx = lift(tx, emb, spec.lift_noise, [seed, 904])
    return DomainDataset(sx, sy, tx, ty, {"seed": seed, **asdict(spec)})


def standard_benchmark(seed, **fields) -> DomainDataset:
    """The DataSpec defaults, two moons against their rotated redraw lifted
    to 16-D, with any field overridden by keyword."""
    return make_domain_dataset(DataSpec(**fields), seed)


@dataclass(frozen=True)
class Batch:
    """One training step's view: labeled source rows, unlabeled target rows.

    Sample ids are stable across epochs (source rows keep their dataset
    index, target rows are offset by the source count) so per-sample
    prediction smoothing can key on them.
    """

    xs: np.ndarray
    ys: np.ndarray
    xt: np.ndarray
    src_ids: np.ndarray
    tgt_ids: np.ndarray


def batches(dataset: DomainDataset, batch_size: int, seed, epoch: int) -> list[Batch]:
    """Independent per-domain shuffles for one epoch; short tail dropped."""
    check_value("batch_size", "int", {"ge": 1}, batch_size)
    if batch_size > min(dataset.n_source, dataset.n_target):
        raise ConfigError(f"batch_size {batch_size} exceeds the smaller domain "
                          f"({min(dataset.n_source, dataset.n_target)} samples)")
    perm_s = np.random.default_rng([seed, 101, epoch]).permutation(dataset.n_source)
    perm_t = np.random.default_rng([seed, 202, epoch]).permutation(dataset.n_target)
    n = min(dataset.n_source // batch_size, dataset.n_target // batch_size)
    out = []
    for b in range(n):
        rows_s = perm_s[b * batch_size:(b + 1) * batch_size]
        rows_t = perm_t[b * batch_size:(b + 1) * batch_size]
        out.append(Batch(
            xs=dataset.source_x[rows_s],
            ys=dataset.source_y[rows_s],
            xt=dataset.target_x[rows_t],
            src_ids=rows_s.astype(np.int64),
            tgt_ids=(dataset.n_source + rows_t).astype(np.int64),
        ))
    return out


def batch_stream(dataset: DomainDataset, batch_size: int, seed) -> Iterator[Batch]:
    """Endless batch iterator cycling through reshuffled epochs."""
    epoch = 0
    while True:
        yield from batches(dataset, batch_size, seed, epoch)
        epoch += 1


# ---------------------------------------------------------------------------
# dataset export / import: CSV with a key = repr(value) recipe sidecar


def _write_rows(fh, x: np.ndarray, y: np.ndarray, split: str, first_id: int) -> None:
    for start in range(0, x.shape[0], BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        # float64 first, so integer-valued coordinates write "1.0" like repr(float(v))
        coords = np.asarray(x[block], dtype=np.float64).tolist()
        fh.writelines(f"{first_id + start + i},{split},{label},{','.join(map(repr, row))}\n"
                      for i, (label, row) in enumerate(zip(y[block].tolist(), coords)))


def save_dataset(dataset: DomainDataset, csv_path, meta_path) -> None:
    """Write the CSV BLOCK_ROWS rows at a time to a sibling temp file, then
    rename it into place: a write that dies midway leaves no CSV that loads.
    The sidecar holds one ``key = repr(value)`` line per item of dataset.meta.
    A NaN or infinite coordinate raises before the CSV's directory is made."""
    csv_path = Path(csv_path)
    if not all(np.isfinite(x).all() for x in (dataset.source_x, dataset.target_x)):
        raise ContractError(f"non-finite coordinate in the dataset for {csv_path}")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = csv_path.with_name(csv_path.name + ".tmp")
    dim = dataset.input_dim
    try:
        with open(tmp_path, "w") as fh:
            fh.write("id,split,label," + ",".join(f"x_{j}" for j in range(dim)) + "\n")
            _write_rows(fh, dataset.source_x, dataset.source_y, "source", 0)
            _write_rows(fh, dataset.target_x, dataset.target_y, "target", dataset.n_source)
        os.replace(tmp_path, csv_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    with open(meta_path, "w") as fh:
        fh.writelines(f"{k} = {v!r}\n" for k, v in dataset.meta.items())


def _parse_block(texts: list[str], linenos: list[int], csv_path) -> np.ndarray:
    """One float64 parse for a block's coordinate texts; on a bad number the
    block is parsed again row by row to name the line."""
    try:
        return np.array(",".join(texts).split(","), dtype=np.float64)
    except ValueError:
        for text, lineno in zip(texts, linenos):
            try:
                np.array(text.split(","), dtype=np.float64)
            except ValueError:
                raise ContractError(f"bad number on line {lineno} in {csv_path}") from None
        raise  # unreachable: some row of the block failed above


def load_dataset(csv_path) -> DomainDataset:
    """Read a dataset CSV; a corrupt or truncated file raises ContractError.

    Lines are streamed and checked one by one; coordinates are parsed
    BLOCK_ROWS rows per numpy call.  A row's id must be its 0-based position
    among the data rows.  The first bad line in file order is the one named.
    """
    splits = ("source", "target")
    src_blocks: list[np.ndarray] = []
    tgt_blocks: list[np.ndarray] = []
    is_source: list[bool] = []
    labels: list[int] = []
    texts: list[str] = []
    linenos: list[int] = []

    def flush() -> None:
        if texts:
            block = _parse_block(texts, linenos, csv_path).reshape(-1, dim)
            in_source = np.array(is_source[len(is_source) - len(texts):], dtype=bool)
            src_blocks.append(block[in_source])
            tgt_blocks.append(block[~in_source])
            texts.clear()
            linenos.clear()

    def error(message: str, lineno: int) -> ContractError:
        flush()  # a bad number on an earlier line of the block is reported first
        return ContractError(f"{message} {lineno} in {csv_path}")

    with open_text(csv_path) as fh:
        header = fh.readline()
        if not header.startswith("id,split,label,"):
            raise ContractError(f"unrecognized dataset header in {csv_path}")
        dim = header.count(",") - 2
        for lineno, line in enumerate(fh, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split(",", 3)
            if (not line.endswith("\n") or len(parts) != 4 or parts[1] not in splits
                    or parts[3].count(",") != dim - 1):
                raise error("malformed or truncated line", lineno)
            if parts[0] != str(len(labels)):
                raise error("bad row id on line", lineno)
            try:
                label = int(parts[2])
            except ValueError:
                raise error("bad number on line", lineno) from None
            if label < 0:
                raise error("negative label on line", lineno)
            labels.append(label)
            is_source.append(parts[1] == "source")
            texts.append(parts[3])
            linenos.append(lineno)
            if len(texts) == BLOCK_ROWS:
                flush()
    flush()
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ContractError(f"label out of the int64 range in {csv_path}") from None
    src = np.array(is_source, dtype=bool)
    source_x, target_x = (np.concatenate(blocks) if blocks else np.empty((0, dim))
                          for blocks in (src_blocks, tgt_blocks))
    del src_blocks[:], tgt_blocks[:]  # free the split blocks before the heap is trimmed
    dataset = DomainDataset(source_x, y[src], target_x, y[~src])
    if not (np.isfinite(dataset.source_x).all() and np.isfinite(dataset.target_x).all()):
        raise ContractError(f"non-finite coordinate in {csv_path}")
    release_free_heap()  # the parsed and split row blocks: as large as the arrays returned
    return dataset


# glibc mallopt's M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_TOP_PAD, and the
# values release_free_heap pins them to
_MALLOC_PINS = ((-3, 8 << 20), (-1, 128 << 10), (-2, 4 << 20))


def release_free_heap() -> None:
    """Pin glibc's malloc thresholds and hand the heap's free pages back to
    the OS (a no-op off glibc).  Left dynamic, glibc raises its thresholds
    to the largest mapped block freed so far and keeps freed heap pages
    mapped, so a large block allocated next lands in them or past them by
    the heap's layout: the peak RSS of one CLI command sequence moved by
    20 MB with the bytes of the environment.  Pinned, each block of 8 MiB
    and up gets its own mapping, and at most 4 MiB of free heap top stays."""
    with suppress(AttributeError, OSError, TypeError):  # no C library, or not glibc
        libc = ctypes.CDLL(None)
        for param, value in _MALLOC_PINS:
            libc.mallopt(param, value)
        libc.malloc_trim(0)

"""Seeded synthetic domain-shift benchmarks.

A source set is drawn from a 2-D generator (two moons or Gaussian blobs), a
target set is a fresh draw from the same process pushed through a geometric
shift (rotate, scale, translate), and both are optionally lifted to a higher
dimension by one shared random linear embedding plus noise.  A DataSpec
names every parameter, and a dataset is a pure function of its spec and seed.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .exceptions import ConfigError, ContractError

GENERATORS = ("two_moons", "blobs")
BLOCK_ROWS = 256  # rows per write and per numpy parse in the dataset CSV codec


def _require_finite(name: str, value) -> None:
    # nan slips through every range check (nan < 0 is False), so test first
    if not np.isfinite(value).all():
        raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DataSpec:
    """The recipe of one source/target benchmark.

    Each field is a CLI data flag and a key of a run manifest's ``data``.
    The target is a fresh draw of the source process (n_target rows, with
    shift_noise in place of noise unless it is None), rotated and scaled
    about the generator centroid and then translated.  lift_dim 0 keeps
    the raw 2-D data.
    """

    gen: str = "two_moons"
    n: int = field(default=500, metadata={"help": "source sample count"})
    n_target: int | None = field(default=None, metadata={
        "help": "target sample count (default: same as --n)"})
    noise: float = field(default=0.15, metadata={"help": "generator noise sigma"})
    classes: int = field(default=3, metadata={"help": "class count (blobs only)"})
    imbalance: float = field(default=1.0, metadata={
        "help": "target class imbalance ratio (blobs only)"})
    rot: float = field(default=45.0, metadata={"help": "target rotation, degrees"})
    trans: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    shift_noise: float | None = field(default=None, metadata={
        "help": "target noise sigma override (default: inherit --noise)"})
    lift_dim: int = field(default=16, metadata={
        "help": "embed 2-D data into this many dimensions (0 = keep 2-D)"})
    lift_noise: float = 0.05

    def __post_init__(self):
        if self.gen not in GENERATORS:
            raise ConfigError(f"unknown generator {self.gen!r}")
        for name in ("n", "n_target"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("noise", "imbalance", "rot", "trans", "scale", "shift_noise",
                     "lift_noise"):
            if getattr(self, name) is not None:
                _require_finite(name, getattr(self, name))
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        for name in ("shift_noise", "lift_noise"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.imbalance <= 0:
            raise ConfigError(f"imbalance must be positive, got {self.imbalance}")
        if self.gen == "two_moons" and self.imbalance != 1.0:
            raise ConfigError("imbalance applies to the blobs generator only")


def make_two_moons(n: int, noise_sigma: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving half-circles with Gaussian coordinate noise, as
    (points, labels).

    Class 0 sits on the unit upper half-circle centered at the origin,
    class 1 on a lower half-circle offset to interleave with it.
    """
    if n < 2:
        raise ConfigError(f"two moons needs n >= 2, got {n}")
    _require_finite("noise_sigma", noise_sigma)
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
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
    rounded by largest remainder so they always sum to n."""
    if c == 1:
        return np.array([n])
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
    _require_finite("sigma", sigma)
    _require_finite("imbalance_ratio", imbalance_ratio)
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    ctr = np.asarray(centers, dtype=np.float64)
    if ctr.ndim != 2 or ctr.shape[0] != n_classes:
        raise ConfigError(f"{ctr.shape[0] if ctr.ndim == 2 else '?'} centers "
                          f"for {n_classes} classes")
    _require_finite("centers", ctr)
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
    return spec.scale * ((x - c) @ rot.T) + c + np.asarray(spec.trans, dtype=np.float64)


def lift_embedding(dim_in: int, dim_out: int, seed) -> np.ndarray:
    """Fixed random linear map, the same for both domains of a dataset."""
    if dim_out < dim_in:
        raise ConfigError(f"lift cannot reduce dimension ({dim_in} -> {dim_out})")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(dim_in), size=(dim_in, dim_out))


def lift(x: np.ndarray, embedding: np.ndarray, noise_sigma: float, seed) -> np.ndarray:
    _require_finite("lift noise_sigma", noise_sigma)
    if noise_sigma < 0:
        raise ConfigError(f"lift noise_sigma must be >= 0, got {noise_sigma}")
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
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source_x.shape[0] != self.source_y.shape[0]:
            raise ContractError("source sample/label counts differ")
        if self.target_x.shape[0] != self.target_y.shape[0]:
            raise ContractError("target sample/label counts differ")
        if self.source_x.shape[0] == 0 or self.target_x.shape[0] == 0:
            raise ContractError("both domains must be non-empty")

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
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
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
    The sidecar holds one ``key = repr(value)`` line per item of dataset.meta."""
    csv_path = Path(csv_path)
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
    coords: list[np.ndarray] = []
    is_source: list[bool] = []
    labels: list[int] = []
    texts: list[str] = []
    linenos: list[int] = []

    def flush() -> None:
        if texts:
            coords.append(_parse_block(texts, linenos, csv_path))
            texts.clear()
            linenos.clear()

    def error(message: str, lineno: int) -> ContractError:
        flush()  # a bad number on an earlier line of the block is reported first
        return ContractError(f"{message} {lineno} in {csv_path}")

    with open(csv_path) as fh:
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
    x = np.concatenate(coords).reshape(-1, dim) if coords else np.empty((0, dim))
    del coords  # free the blocks before the split copies rows out of x
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ContractError(f"label out of the int64 range in {csv_path}") from None
    src = np.array(is_source, dtype=bool)
    dataset = DomainDataset(x[src], y[src], x[~src], y[~src])
    if not (np.isfinite(dataset.source_x).all() and np.isfinite(dataset.target_x).all()):
        raise ContractError(f"non-finite coordinate in {csv_path}")
    return dataset

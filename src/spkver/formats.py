"""On-disk formats: a binary named-tensor container, checkpoints, text
sidecar files, and the INI experiment config.

The tensor container is deliberately simple and language-neutral: a magic
string, a format version, then little-endian records of (name, dtype code,
shape, payload).  Feature, embedding and checkpoint payloads are 32-bit
floats: float32 is the dtype models compute in, so a reloaded model
reproduces forward passes bit for bit.  Backend models keep 64-bit
payloads.  Records are written in sorted name order so a write -> read ->
write cycle is byte-identical.

Container I/O copies each payload once:

- ``write_archive`` hands every record's packed header and its array's own
  buffer to the file; no byte string of the whole archive is built.
- ``read_archive`` reads each payload straight into the array it returns,
  in the payload's dtype: float32 for 32-bit payloads, float64 for 64-bit
  ones.  Asked for a dtype, it converts each payload to it as it is read,
  which is then the one copy: ``read_embeddings`` widens to float64 this
  way.  A checkpoint's float32 arrays become the model's state as read.
  (Payloads smaller than the file buffer, like the headers, pass through
  that buffer on the way.)
- Before allocating a payload, ``read_archive`` checks its size against the
  bytes left in the file, so a corrupt header cannot ask for more memory
  than the file holds.
- ``read_archive`` can skip the payloads of records named by a prefix: it
  checks their headers the same way and seeks past them.  Extraction skips
  a checkpoint's momentum buffers, half of its bytes, this way.
- The byte format is the one described above, unchanged.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, asdict, fields

import numpy as np

from .models import ARCHS, adopt, check_width_scale, model_from_arch_dict, parameter_table
from .objectives import MARGINS

MAGIC = b"SPKVTAR\x00"
FORMAT_VERSION = 1

_DTYPE_F32 = 0
_DTYPE_F64 = 1
_DTYPE_JSON = 2
_ARRAY_DTYPES = {_DTYPE_F32: np.dtype("<f4"), _DTYPE_F64: np.dtype("<f8")}
_U32 = struct.Struct("<I")
_CODE_RANK = struct.Struct("<BI")
# File buffer: headers and small payloads gather here, so the 2.8 MB archive
# of 1,360 embeddings takes 11 reads or writes rather than 345 with the
# default 8 KiB; larger payloads bypass it.
_FILE_BUFFER = 1 << 18

META_KEY = "__meta__"


def write_archive(path, arrays: dict[str, np.ndarray], meta: dict | None, dtype: str):
    """Write named arrays plus an optional JSON metadata record."""
    records: dict[str, tuple[int, bytes | memoryview, tuple[int, ...]]] = {}
    np_dtype = np.dtype("<" + dtype)
    code = _DTYPE_F32 if dtype == "f4" else _DTYPE_F64
    for name, arr in arrays.items():
        if name == META_KEY:
            raise ValueError(f"array name {META_KEY!r} is reserved")
        a = np.ascontiguousarray(arr, dtype=np_dtype)
        records[name] = (code, a.data, a.shape)
    if meta is not None:
        payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        records[META_KEY] = (_DTYPE_JSON, payload, (len(payload),))

    chunks = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(records))]
    for name in sorted(records):
        code, payload, shape = records[name]
        encoded = name.encode("utf-8")
        chunks.append(struct.pack(f"<I{len(encoded)}sBI{len(shape)}Q",
                                  len(encoded), encoded, code, len(shape), *shape))
        chunks.append(payload)
    with open(path, "wb", buffering=_FILE_BUFFER) as fh:
        fh.writelines(chunks)


def read_archive(path, skip_prefix: str | None = None, dtype=None):
    """Read a container; returns (arrays, meta-or-None).

    Every array is a fresh, writable array of its payload's dtype (float32
    or float64), or of ``dtype`` when one is given, that shares memory with
    no other, except for array records whose name starts with
    ``skip_prefix``: their payloads are not read, and each comes back as a
    read-only all-NaN placeholder of its shape and dtype that holds no
    memory.  A file that ends inside a record (or whose record claims more
    bytes than the file holds), a metadata record that is not 1-D and an
    unknown dtype code raise ValueError naming the path, skipped records
    included.
    """
    with open(path, "rb", buffering=_FILE_BUFFER) as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a tensor container (bad magic)")
        offset = len(MAGIC)     # tracked here: fh.tell() costs a system call

        def claim(n):
            """Advance past n bytes; fail first if the file does not hold them."""
            nonlocal offset
            if n > size - offset:
                raise ValueError(f"{path}: truncated archive")
            offset += n

        def take(n):
            claim(n)
            chunk = fh.read(n)
            if len(chunk) != n:
                raise ValueError(f"{path}: truncated archive")
            return chunk

        (version,) = _U32.unpack(take(4))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        (count,) = _U32.unpack(take(4))
        arrays: dict[str, np.ndarray] = {}
        meta = None
        for _ in range(count):
            (name_len,) = _U32.unpack(take(4))
            name = take(name_len).decode("utf-8")
            code, ndim = _CODE_RANK.unpack(take(5))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            if code == _DTYPE_JSON:
                if ndim != 1:
                    raise ValueError(f"{path}: metadata record {name!r} has rank {ndim}, not 1")
                meta = json.loads(take(shape[0]).decode("utf-8"))
                continue
            if code not in _ARRAY_DTYPES:
                raise ValueError(f"{path}: record {name!r} has unknown dtype code {code}")
            np_dtype = _ARRAY_DTYPES[code]
            nbytes = math.prod(shape) * np_dtype.itemsize
            claim(nbytes)
            if skip_prefix is not None and name.startswith(skip_prefix):
                fh.seek(nbytes, os.SEEK_CUR)
                arrays[name] = np.broadcast_to(np.dtype(dtype or np_dtype).type(np.nan), shape)
                continue
            arr = np.empty(shape, np_dtype)
            # an empty array has no bytes to read (and memoryview cannot cast it)
            if nbytes and fh.readinto(memoryview(arr).cast("B")) != nbytes:
                raise ValueError(f"{path}: truncated archive")
            arrays[name] = arr if dtype is None else arr.astype(dtype, copy=False)
    return arrays, meta


def write_features(path, features: dict[str, np.ndarray], frame_shift_ms: float):
    dims = {f.shape[1] for f in features.values()}
    if len(dims) > 1:
        raise ValueError("all feature matrices must share one dimension")
    meta = {"kind": "features", "frame_shift_ms": frame_shift_ms,
            "dim": dims.pop() if dims else 0}
    write_archive(path, features, meta, dtype="f4")


def read_features(path):
    """(utterance id -> 2-D float32 matrix as stored, all of one width, metadata);
    frame_shift_ms is finite, > 0."""
    arrays, meta = read_archive(path)
    if meta is None or meta.get("kind") != "features":
        raise ValueError(f"{path}: not a feature archive")
    shift = meta.get("frame_shift_ms")
    if isinstance(shift, bool) or not isinstance(shift, (int, float)) or not 0 < shift < math.inf:
        raise ValueError(f"{path}: key frame_shift_ms holds {shift!r}, not a finite number > 0")
    first = next(iter(arrays), None)
    for utt, feats in arrays.items():
        if feats.ndim != 2:
            raise ValueError(f"{path}: features of {utt!r} have shape {feats.shape}, not (T, dim)")
        if feats.shape[1] != arrays[first].shape[1]:
            raise ValueError(f"{path}: features of {utt!r} have width {feats.shape[1]}, "
                             f"those of {first!r} {arrays[first].shape[1]}")
        if not np.isfinite(feats).all():
            raise ValueError(f"{path}: features of {utt!r} hold a non-finite value")
    return arrays, meta


def write_embeddings(path, embeddings: dict[str, np.ndarray]):
    dims = {e.shape[0] for e in embeddings.values()}
    if len(dims) > 1:
        raise ValueError("all embeddings must share one dimension")
    meta = {"kind": "embeddings", "dim": dims.pop() if dims else 0}
    write_archive(path, embeddings, meta, dtype="f4")


def read_embeddings(path):
    """Utterance id -> float64 1-D embedding, all of one length; backends score in float64."""
    arrays, meta = read_archive(path, dtype=np.float64)
    if meta is None or meta.get("kind") != "embeddings":
        raise ValueError(f"{path}: not an embedding archive")
    first = next(iter(arrays), None)
    for utt, emb in arrays.items():
        if emb.ndim != 1:
            raise ValueError(f"{path}: embedding of {utt!r} has shape {emb.shape}, not (dim,)")
        if emb.size != arrays[first].size:
            raise ValueError(f"{path}: embedding of {utt!r} has {emb.size} entries, "
                             f"that of {first!r} {arrays[first].size}")
    return arrays


def write_utt2spk(path, utt2spk: dict[str, str]):
    with open(path, "w", encoding="utf-8") as fh:
        for utt in sorted(utt2spk):
            fh.write(f"{utt} {utt2spk[utt]}\n")


def read_utt2spk(path) -> dict[str, str]:
    """Utterance id -> speaker id; a malformed line or an id listed twice raises
    ValueError naming the file and the line(s)."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'utt spk'")
            if parts[0] in out:
                raise ValueError(f"{path}: line {lineno}: utterance {parts[0]!r} is already "
                                 f"listed on line {first_line[parts[0]]}")
            out[parts[0]] = parts[1]
            first_line[parts[0]] = lineno
    if not out:
        raise ValueError(f"{path}: empty utt2spk")
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model, *, step: int, epoch: int, config_hash: str,
                    rng_state: dict | None = None, extra: dict | None = None):
    """Persist parameters, momentum buffers (as float32) and bookkeeping."""
    arrays = {f"param.{name}": tensor.data for name, tensor in model.params.items()}
    arrays |= {f"momentum.{name}": vel for name, vel in model.velocity.items()}
    meta = {
        "kind": "checkpoint",
        "format_version": FORMAT_VERSION,
        "arch": model.arch_dict(),
        "step": step,
        "epoch": epoch,
        "config_hash": config_hash,
        "rng_state": rng_state,
        "extra": extra or {},
    }
    write_archive(path, arrays, meta, dtype="f4")


def load_checkpoint(path, momentum: bool = True):
    """Rebuild the model and return (model, meta).

    The ``arch`` record holds a builder's arguments, and the layers are
    rebuilt by ``model_from_arch_dict``.  A record it rejects, or whose
    ``n_blocks`` needs more arrays than the file holds (checked before any
    layer is built), raises ValueError with the file's path in front.  The
    file must hold exactly a ``param.<name>`` and a ``momentum.<name>``
    array of the parameter's shape for every parameter its architecture
    implies, each float32 and, where read, finite; anything else raises
    ValueError naming the file and the array.  The model adopts the arrays as
    read: nothing is drawn, allocated, widened or narrowed for it.
    With ``momentum=False`` the momentum payloads are checked but not read,
    and the model's momentum buffers are read-only NaN placeholders: it can
    embed, but not train.
    """
    arrays, meta = read_archive(path, skip_prefix=None if momentum else "momentum.")
    if meta is None or meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint")
    if "arch" not in meta:
        raise ValueError(f"{path}: checkpoint lacks metadata key arch")
    blocks = meta["arch"].get("n_blocks") if isinstance(meta["arch"], dict) else None
    if isinstance(blocks, int) and 12 * blocks > len(arrays):    # 6 params, 6 momenta each
        raise ValueError(f"{path}: n_blocks is {blocks}, more than {len(arrays)} arrays hold")
    try:
        model = model_from_arch_dict(meta["arch"], seed=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    table = parameter_table(model.layers)
    shapes = {f"{prefix}.{name}": shape for name, shape, _ in table
              for prefix in ("param", "momentum")}
    for name in sorted(arrays.keys() | shapes.keys()):
        if name not in shapes:
            raise ValueError(f"{path}: array {name} is not part of the architecture")
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint lacks array {name}")
        if arrays[name].shape != shapes[name]:
            raise ValueError(f"{path}: array {name} has shape {arrays[name].shape}, "
                             f"architecture needs {shapes[name]}")
        if arrays[name].dtype != np.float32:
            raise ValueError(f"{path}: array {name} is {arrays[name].dtype}, "
                             f"checkpoints store float32")
        a = arrays[name].reshape(-1)        # a view: a @ a is one pass and needs no mask
        with np.errstate(over="ignore"):        # a @ a is finite only if every a[i] is
            bad = (momentum or name.startswith("param.")) and not np.isfinite(a @ a)
        if bad and not np.isfinite(a).all():    # rather than a @ a overflowing
            raise ValueError(f"{path}: array {name} holds a non-finite value")
    # read_archive's arrays are fresh and unshared: they become the state as they are
    for name, _, _ in table:
        adopt(model, name, arrays[f"param.{name}"], arrays[f"momentum.{name}"])
    return model, meta


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    """Flat key = value settings grouped into sections."""

    # [model]
    arch: str = "maxpool"
    resnet_blocks: int = 3
    width_scale: float = 1.0
    # [loss]
    loss: str = "asoftmax"
    margin: int = 2
    lambda_start: float = 1000.0
    lambda_decay: float = 0.99
    lambda_floor: float = 5.0
    # [optimizer]
    learning_rate: float = 0.1
    momentum: float = 0.9
    lr_decay: float = 0.9
    grad_clip: float = 5.0
    batch_size: int = 16
    epochs: int = 3
    steps_per_epoch: int = 50
    seed: int = 0
    # [data]
    segment_min_s: float = 3.0
    segment_max_s: float = 10.0
    val_fraction: float = 0.1

    _SECTIONS = {
        "model": ("arch", "resnet_blocks", "width_scale"),
        "loss": ("loss", "margin", "lambda_start", "lambda_decay", "lambda_floor"),
        "optimizer": ("learning_rate", "momentum", "lr_decay", "grad_clip",
                      "batch_size", "epochs", "steps_per_epoch", "seed"),
        "data": ("segment_min_s", "segment_max_s", "val_fraction"),
    }

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.loss not in ("softmax", "asoftmax"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.margin not in MARGINS:
            raise ValueError(f"margin is {self.margin}, needs one of {MARGINS}")
        check_width_scale(self.width_scale)
        for key, low in (("resnet_blocks", 1), ("batch_size", 1),
                         ("steps_per_epoch", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} is {getattr(self, key)}, needs at least {low}")
        for key in ("learning_rate", "momentum", "lr_decay", "grad_clip", "lambda_start",
                    "lambda_decay", "lambda_floor"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} is {getattr(self, key)}, needs a finite value >= 0")
        if not 0 < self.segment_min_s <= self.segment_max_s < math.inf:
            raise ValueError("segment range needs 0 < segment_min_s <= segment_max_s < inf")
        for key in ("lambda_decay", "val_fraction"):    # lambda_decay > 1: lambda overflows
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key} is {getattr(self, key)}, needs 0 to 1")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def field_type(f) -> type:
    """int, float or str: the type a record field's annotation names."""
    return {"int": int, "float": float}.get(f.type, str)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"{path}: {exc}") from exc
    convert = {f.name: field_type(f) for f in fields(ExperimentConfig)}
    kwargs = {}
    for section in parser.sections():
        keys = ExperimentConfig._SECTIONS.get(section)
        if keys is None:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in keys:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                kwargs[key] = convert[key](parser[section][key])
            except (configparser.Error, ValueError) as exc:   # bad '%' syntax or number
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def dump_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in ExperimentConfig._SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {getattr(cfg, key)}")
        lines.append("")
    return "\n".join(lines)

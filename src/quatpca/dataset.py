"""Labeled color-image collections and on-disk artifacts.

A dataset is a directory of class subdirectories holding 8-bit RGB
images (PNG or binary PPM).  A pixel with channels (r, g, b) becomes the
pure quaternion (r i + g j + b k) / 255, so an h x w image is an h x w
pure quaternion matrix.  Sample order is deterministic: sorted by label,
then by file name.  :func:`load_dataset` decodes every file into one
C-contiguous, read-only (N, 4, m, n) float64 array, and each sample's
image is a view of its row; :func:`center` likewise returns views of one
centred array.  Decoding is batched: PPMs with the canonical header
"P6\n<n> <m>\n255\n" of the first file's size are read in one call
each and converted together; every other file takes the per-file
decoder, with its errors unchanged.

PNG is read and written by a small zlib codec.  It reads 8-bit,
non-interlaced gray, RGB, gray+alpha and RGBA images with any of the
five row filters; gray is replicated to three channels and alpha is
ignored.  Palette, 16-bit and interlaced files are rejected with
IoError.  Exported PNGs are 8-bit RGB with every row unfiltered.

Every file the package writes (images, bases, and the command line's
reports, manifests and CSVs) goes through one writer, ``_write_file``.
It rewrites a file in place and then cuts it to its new length, instead
of truncating it first; only a basis is truncated first.

Fitted bases serialize to a little-endian binary format (magic "BQP1"):
header u32 version, u32 m n k1 k2, f64 s p (p = +inf allowed), followed
by row-major float64 planes of U (4), V (4), d_left, d_right and the
mean (4).  The format is bit-exact and language neutral.
"""

from __future__ import annotations

import math
import os
import re
import stat
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidDataset, InvalidParameter, IoError, _check
from .quaternion import QMatrix
from .solver import BasisPair, FitParams

__all__ = [
    "Sample",
    "SampleSet",
    "load_dataset",
    "center",
    "split",
    "save_basis",
    "load_basis",
    "export_image",
]

_IMAGE_SUFFIXES = (".png", ".ppm")


@dataclass(frozen=True)
class Sample:
    """One labeled image; ``source`` keeps the original path when loaded."""

    label: str
    image: QMatrix
    source: str | None = None


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of labeled images plus the training mean.

    ``centered`` marks that ``mean`` has been subtracted from every
    image.  Images from :func:`load_dataset` are pure quaternions and
    stay pure under centering because the mean of pure matrices is pure.
    """

    samples: tuple[Sample, ...]
    mean: QMatrix
    centered: bool = False

    def __post_init__(self):
        shape = self.mean.shape
        for sample in self.samples:
            if sample.image.shape != shape:
                raise InvalidDataset(
                    f"mixed image dimensions: {sample.image.shape} vs {shape}")

    @classmethod
    def build(cls, labeled_images, centered=False):
        """Assemble a set from (label, image) pairs with a zero mean."""
        samples = tuple(Sample(label, image) for label, image in labeled_images)
        if not samples:
            raise InvalidDataset("need at least one sample")
        m, n = samples[0].image.shape
        return cls(samples=samples, mean=QMatrix.zeros(m, n), centered=centered)

    def __len__(self):
        return len(self.samples)

    @property
    def shape(self):
        return self.mean.shape

    def images(self):
        return [s.image for s in self.samples]

    def labels(self):
        return [s.label for s in self.samples]

    def classes(self):
        return sorted({s.label for s in self.samples})

    def by_class(self):
        groups: dict[str, list[int]] = {}
        for idx, s in enumerate(self.samples):
            groups.setdefault(s.label, []).append(idx)
        return groups

    def subset(self, indices):
        picked = tuple(self.samples[i] for i in indices)
        return SampleSet(samples=picked, mean=self.mean, centered=self.centered)


# "P6", then width, height and maxval as decimal tokens; whitespace and
# "#" comments running to the end of their line separate the tokens, and
# one whitespace byte after maxval ends the header (group 4 is empty when
# the file ends there instead).
_PPM_HEADER = re.compile(
    rb"P6" + rb"(?:\s|#[^\n]*\n)*(\d+)\s" * 2 + rb"(?:\s|#[^\n]*\n)*(\d+)(\s|\Z)")


def _read_file(path, size=0):
    """The bytes of ``path``, read by one call when there are at most ``size``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, size + 1)
        if len(data) > size:  # longer than asked for: read on to the end
            parts = [data]
            while parts[-1]:
                parts.append(os.read(fd, 1 << 16))
            data = b"".join(parts)
        return data
    finally:
        os.close(fd)


def _write_file(path, data, truncate=False):
    """Make the bytes ``data`` the whole content of ``path``, rewriting it in place.

    Every file the package writes goes through here.  The file is opened
    without O_TRUNC and written from offset 0, and a regular file that
    was longer is then cut to the bytes written.  Truncating to zero
    first, as ``open(path, "w")`` does, makes ext4 (``auto_da_alloc``)
    allocate and flush the rewritten file when it is closed.  A device or
    a pipe, such as /dev/null or /dev/stdout, is written and never
    truncated, because it cannot be.

    ``truncate=True`` empties the file first after all, so that a write
    the process does not live to finish leaves a short file and never new
    bytes over old ones; ``save_basis`` uses it, since a BQP1 file has no
    checksum to catch such a mix.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if truncate else 0), 0o666)
    try:
        view, written = memoryview(data), 0
        try:
            while written < len(view):
                written += os.write(fd, view[written:])
        finally:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _parse_ppm(path, data):
    """Decode the bytes ``data`` of the PPM file ``path``."""
    if not data.startswith(b"P6"):
        raise IoError(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise IoError(f"{path}: malformed PPM header")
    if not header[4]:
        raise IoError(f"{path}: truncated PPM header")
    width, height, maxval = (int(token) for token in header.groups()[:3])
    if maxval != 255:
        raise IoError(f"{path}: only 8-bit PPM supported (maxval 255, got {maxval})")
    if not width or not height:
        raise IoError(f"{path}: empty image ({width}x{height})")
    raster = memoryview(data)[header.end():]
    if len(raster) != width * height * 3:
        raise IoError(f"{path}: raster has {len(raster)} bytes, expected {width * height * 3}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def _write_ppm(path, rgb):
    h, w, _ = rgb.shape
    header = b"P6\n%d %d\n255\n" % (w, h)
    _write_file(path, header + rgb.tobytes())


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # colour type -> bytes per pixel


def _png_chunk(kind, body):
    crc = zlib.crc32(kind + body)
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)


def _png_unfilter(rows, bpp):
    """Undo the per-row filters of an (h, 1 + stride) array of PNG scanlines."""
    height, stride = rows.shape[0], rows.shape[1] - 1
    out = np.zeros((height + 1, stride), dtype=np.uint8)  # row 0: zeros above the image
    for y, (kind, line) in enumerate(zip(rows[:, 0], rows[:, 1:]), start=1):
        prev = out[y - 1]
        if kind == 0:
            out[y] = line
        elif kind == 1:
            out[y] = line.reshape(-1, bpp).cumsum(axis=0, dtype=np.uint8).ravel()
        elif kind == 2:
            out[y] = line + prev
        elif kind in (3, 4):
            # Average and Paeth predict from bytes decoded earlier in the row.
            cur, up = line.tolist(), prev.tolist()
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = up[i]
                if kind == 3:
                    pred = (a + b) >> 1
                else:
                    c = up[i - bpp] if i >= bpp else 0
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                cur[i] = (cur[i] + pred) & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"unknown PNG filter type {kind} in row {y - 1}")
    return out[1:]


def _read_png(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_PNG_SIGNATURE):
        raise IoError(f"{path}: not a PNG file (bad signature)")
    pos, header, idat = len(_PNG_SIGNATURE), None, []
    while True:
        if pos + 12 > len(data):
            raise IoError(f"{path}: truncated PNG (ends before IEND)")
        length, kind = struct.unpack_from(">I4s", data, pos)
        end = pos + 12 + length
        if end > len(data):
            raise IoError(f"{path}: truncated PNG chunk {kind!r}")
        body = data[pos + 8:end - 4]
        if struct.unpack_from(">I", data, end - 4)[0] != zlib.crc32(kind + body):
            raise IoError(f"{path}: CRC mismatch in PNG chunk {kind!r}")
        pos = end
        if kind == b"IHDR":
            header = body
        elif kind == b"IDAT":
            idat.append(body)
        elif kind == b"IEND":
            break
    if header is None or len(header) != 13:
        raise IoError(f"{path}: missing or malformed PNG IHDR chunk")
    width, height, depth, ctype, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", header)
    if depth != 8:
        raise IoError(f"{path}: only 8-bit PNG supported (bit depth {depth})")
    if not width or not height:
        raise IoError(f"{path}: empty image ({width}x{height})")
    if ctype not in _PNG_CHANNELS:
        raise IoError(f"{path}: unsupported PNG colour type {ctype} "
                      "(palette images are not read)")
    if interlace:
        raise IoError(f"{path}: interlaced PNG not supported")
    if compression or filtering:
        raise IoError(f"{path}: unknown PNG compression or filter method")
    bpp = _PNG_CHANNELS[ctype]
    expected = height * (1 + width * bpp)
    inflater = zlib.decompressobj()
    raw = inflater.decompress(b"".join(idat), expected + 1)
    if len(raw) != expected or not inflater.eof:
        raise IoError(f"{path}: PNG image data does not inflate to {expected} bytes")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + width * bpp)
    pixels = _png_unfilter(rows, bpp).reshape(height, width, bpp)
    return pixels[..., [0, 0, 0]] if bpp < 3 else pixels[..., :3]


def _write_png(path, rgb):
    h, w, _ = rgb.shape
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # filter byte 0 on every row
    rows[:, 1:] = rgb.reshape(h, 3 * w)
    _write_file(
        path,
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + _png_chunk(b"IDAT", zlib.compress(rows.tobytes()))
        + _png_chunk(b"IEND", b""))


def _suffix(name):
    """Lower-cased suffix of a file name as ``pathlib`` reads it ("" for ".ppm")."""
    dot = name.rfind(".")
    return name[dot:].lower() if 0 < dot < len(name) - 1 else ""


def _read_image(path, data=None):
    """Decode one PPM or PNG file to an (h, w, 3) uint8 raster.

    ``data`` is the content of a PPM file that has been read already.
    """
    try:
        if _suffix(os.path.basename(path)) == ".ppm":
            return _parse_ppm(path, _read_file(path) if data is None else data)
        return _read_png(path)
    except IoError:
        raise
    except Exception as exc:
        raise IoError(f"{path}: cannot read image ({exc})") from exc


def load_dataset(root):
    """Load every class subdirectory of ``root`` into a SampleSet.

    The files are listed first and then decoded in sample order into one
    C-contiguous (N, 4, m, n) array with a zero real plane.  The array is
    read-only and every sample's image is a view of its row.

    The first file, decoded by the per-file reader, fixes the size m x n
    and the canonical header ``P6\\n<n> <m>\\n255\\n``.  A later PPM that
    is exactly that header and an m x n raster is kept as read.  Every
    other file (a PNG, a commented or otherwise different header, another
    length, an unreadable file) goes through the per-file reader, a PPM
    with the bytes already read, so its errors are the per-file ones.
    The rasters are gathered in one uint8 array and converted by one
    divide, as each would be on its own.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise IoError(f"{rootp}: not a readable directory")
    with os.scandir(rootp) as entries:
        labels = sorted(d.name for d in entries if d.is_dir())
    if not labels:
        raise InvalidDataset(f"{rootp}: no class subdirectories")
    listed = []
    for label in labels:
        cdir = str(rootp / label)
        with os.scandir(cdir) as entries:
            names = sorted(f.name for f in entries
                           if _suffix(f.name) in _IMAGE_SUFFIXES and f.is_file())
        listed.extend((label, os.path.join(cdir, name)) for name in names)
    if not listed:
        raise InvalidDataset(f"{rootp}: no images found")

    first = _read_image(listed[0][1])
    h, w = first.shape[:2]
    header, raster = b"P6\n%d %d\n255\n" % (w, h), h * w * 3
    size = len(header) + raster
    raw = np.empty((len(listed), h, w, 3), dtype=np.uint8)
    raw[0] = first
    flat = memoryview(raw).cast("B")
    for i, (_, path) in enumerate(listed[1:], start=1):
        data = None
        if _suffix(path) == ".ppm":
            try:
                data = _read_file(path, size)
            except OSError:
                pass  # _read_image tries again and reports the error
            if data is not None and len(data) == size and data.startswith(header):
                flat[i * raster:(i + 1) * raster] = memoryview(data)[len(header):]
                continue
        rgb = _read_image(path, data)
        if rgb.shape[:2] != (h, w):
            raise InvalidDataset(f"{path}: image dimensions {rgb.shape[:2]} differ from {(h, w)}")
        raw[i] = rgb
    stack = np.zeros((len(listed), 4, h, w))
    np.divide(raw.transpose(0, 3, 1, 2), 255.0, out=stack[:, 1:])
    stack.flags.writeable = False
    samples = tuple(Sample(label, QMatrix._view(image), path)
                    for (label, path), image in zip(listed, stack))
    return SampleSet(samples=samples, mean=QMatrix.zeros(*stack.shape[2:]), centered=False)


def export_image(image, path):
    """Write a quaternion matrix as an 8-bit RGB image.

    The i, j, k planes become the R, G, B channels, clipped to [0, 1]
    and scaled back to the 8-bit grid; any real plane is dropped.  The
    format follows the file suffix (.ppm, or .png written as 8-bit RGB).
    Exporting an image loaded from a canonical P6 file reproduces its
    bytes.
    """
    planes = np.clip(image.data[1:], 0.0, 1.0)
    rgb = np.rint(planes * 255.0).astype(np.uint8).transpose(1, 2, 0)
    suffix = _suffix(os.path.basename(path))
    if suffix not in _IMAGE_SUFFIXES:
        pathp = Path(path)
        raise IoError(f"{pathp}: unsupported image suffix {pathp.suffix!r}")
    try:
        (_write_ppm if suffix == ".ppm" else _write_png)(path, rgb)
    except Exception as exc:
        raise IoError(f"{Path(path)}: cannot write image ({exc})") from exc


def center(sample_set):
    """Subtract the mean image from every sample; idempotent.

    The centred images are read-only views of one (N, 4, m, n) array.
    """
    if sample_set.centered:
        return sample_set
    if len(sample_set) == 0:
        raise InvalidDataset("cannot center an empty sample set")
    stack = np.stack([s.image.data for s in sample_set.samples])
    mean = stack.mean(axis=0)
    stack -= mean
    stack.flags.writeable = False
    shifted = tuple(Sample(s.label, QMatrix._view(image), s.source)
                    for s, image in zip(sample_set.samples, stack))
    return SampleSet(samples=shifted, mean=QMatrix(mean), centered=True)


def _split_fractions(fractions):
    """The (train, validation, test) fractions as floats, checked against their rules."""
    fracs = tuple(float(x) for x in fractions)
    if len(fracs) != 3:
        raise InvalidParameter(f"expected three split fractions, got {len(fracs)}")
    if not all(0 <= x < math.inf for x in fracs):
        raise InvalidParameter(f"split fractions must be finite and nonnegative, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise InvalidParameter(f"split fractions must sum to 1, got {sum(fracs)}")
    return fracs


def split(sample_set, fractions, seed):
    """Stratified (train, validation, test) split.

    ``fractions`` are three finite nonnegative numbers summing to one.
    Within each class, the validation and test parts receive
    floor(fraction * count) samples but at least one when their fraction
    is nonzero; leftovers go to the training part (or to the largest
    nonzero part when the training fraction is zero).  The shuffle is
    driven only by ``seed`` (an integer >= 0), and each part keeps
    the original sample order.
    """
    fracs = _split_fractions(fractions)
    _check("seed", seed)
    nonzero = sum(1 for x in fracs if x > 0)

    rng = np.random.default_rng(seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    groups = sample_set.by_class()
    for label in sorted(groups):
        idxs = groups[label]
        count = len(idxs)
        if count < nonzero:
            raise InvalidDataset(
                f"class {label!r} has {count} samples but the split needs {nonzero}")
        perm = rng.permutation(count)
        n_val = max(1, math.floor(fracs[1] * count)) if fracs[1] > 0 else 0
        n_test = max(1, math.floor(fracs[2] * count)) if fracs[2] > 0 else 0
        n_train = count - n_val - n_test
        if fracs[0] == 0:
            # Leftovers go to the largest nonzero part instead.
            if fracs[1] >= fracs[2]:
                n_val += n_train
            else:
                n_test += n_train
            n_train = 0
        shuffled = [idxs[t] for t in perm]
        parts[0].extend(shuffled[:n_train])
        parts[1].extend(shuffled[n_train:n_train + n_val])
        parts[2].extend(shuffled[n_train + n_val:])
    return tuple(sample_set.subset(sorted(part)) for part in parts)


# -- basis serialization ----------------------------------------------

_MAGIC = b"BQP1"
_VERSION = 1


def save_basis(basis, path):
    """Write a BasisPair in the binary BQP1 format."""
    blob = [
        _MAGIC,
        struct.pack("<IIIII", _VERSION, basis.m, basis.n, basis.k1, basis.k2),
        struct.pack("<dd", float(basis.params.s), float(basis.params.p)),
    ]
    for block in (basis.U.data, basis.V.data, basis.d_left, basis.d_right, basis.mean.data):
        blob.append(np.asarray(block, dtype="<f8").tobytes())
    try:
        _write_file(path, b"".join(blob), truncate=True)
    except OSError as exc:
        raise IoError(f"{path}: cannot write basis ({exc})") from exc


def load_basis(path):
    """Read a BasisPair back; rejects malformed or non-finite payloads with FormatError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"{path}: cannot read basis ({exc})") from exc

    header_size = 4 + struct.calcsize("<IIIII") + struct.calcsize("<dd")
    if len(data) < header_size:
        raise FormatError(f"{path}: truncated header")
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version, m, n, k1, k2 = struct.unpack_from("<IIIII", data, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    s, p = struct.unpack_from("<dd", data, 4 + struct.calcsize("<IIIII"))

    shapes = {"U": (4, m, k1), "V": (4, n, k2), "d_left": (k1,), "d_right": (k2,),
              "mean": (4, m, n)}
    expected = header_size + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) < expected:
        raise FormatError(f"{path}: truncated payload ({len(data)} of {expected} bytes)")
    if len(data) > expected:
        raise FormatError(f"{path}: trailing data ({len(data) - expected} extra bytes)")

    pos = header_size
    blocks = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        blocks[name] = np.frombuffer(data, dtype="<f8", count=count, offset=pos).reshape(shape)
        if not np.isfinite(blocks[name]).all():
            raise FormatError(f"{path}: {name} holds a non-finite value (NaN or inf)")
        pos += 8 * count

    try:
        params = FitParams(s=float(s), p=float(p), k1=int(k1), k2=int(k2))
        problems = params.violations(m, n)
        if problems:
            raise FormatError(f"{path}: invalid hyperparameters: " + "; ".join(problems))
        return BasisPair(U=QMatrix(blocks["U"]), V=QMatrix(blocks["V"]),
                         d_left=blocks["d_left"].copy(), d_right=blocks["d_right"].copy(),
                         params=params, mean=QMatrix(blocks["mean"]))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: malformed payload ({exc})") from exc

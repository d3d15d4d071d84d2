"""Labeled color-image collections and on-disk artifacts.

A dataset is a directory of class subdirectories holding 8-bit RGB
images (PNG or binary PPM).  A pixel with channels (r, g, b) becomes the
pure quaternion (r i + g j + b k) / 255, so an h x w image is an h x w
pure quaternion matrix.  Sample order is deterministic: sorted by label,
then by file name.  :func:`load_dataset` lists the tree in one pass,
reads every file once, by one sized call, and decodes it by the codec its
suffix names (``_CODECS``) into one C-contiguous, read-only (N, 4, m, n)
float64 array; a canonical PPM ("P6\n<n> <m>\n255\n" at the first file's
size) is kept as read.  :func:`split` and ``subset`` only index its rows,
so splits share it.  Each set function gathers its rows once
(``SampleSet._gather``); a whole centred set reaches the fit as its own array.

PNG is read and written by a small zlib codec.  It reads 8-bit,
non-interlaced gray, RGB, gray+alpha and RGBA images with any of the
five row filters; gray is replicated to three channels and alpha is
ignored.  Palette, 16-bit and interlaced files are rejected with
IoError.  Exported PNGs are 8-bit RGB with every row unfiltered.
:func:`export_image` is the one-image case of ``_export_stack``, which
converts a stack of images to 8 bits one block at a time and writes each
file by the codec of its suffix, stopping at the first image it cannot
write, as a loop over export_image would.

Every file the package reads (images, bases, the command line's config)
goes through one reader, ``_read_file``, and every file it writes (also
reports, manifests and CSVs) through one writer, ``_write_file``; each
turns an OSError into an IoError naming the path.  The writer rewrites a
file in place and then cuts it to its new length; only a basis is
truncated first.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidDataset, InvalidParameter, IoError, _check
from .quaternion import QMatrix, _blocks
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


@dataclass(frozen=True)
class Sample:
    """One labeled image; ``source`` keeps the original path when loaded."""

    label: str
    image: QMatrix
    source: str | None = None


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of labeled images plus the training mean.

    The images are the rows ``rows`` (all when None) of the read-only
    (N, 4, m, n) array ``stack``; ``row_labels`` and ``row_sources`` are
    in set order.  ``centered`` marks that ``mean`` has been subtracted
    from every image.  Loaded images are pure quaternions and stay pure
    under centering because the mean of pure matrices is pure.  Other
    modules read the images as arrays only through ``_gather`` and ``_read``.
    """

    stack: np.ndarray
    rows: np.ndarray | None
    row_labels: tuple[str, ...]
    row_sources: tuple[str | None, ...]
    mean: QMatrix
    centered: bool = False

    def __post_init__(self):
        self.stack.flags.writeable = False

    @classmethod
    def build(cls, labeled_images):
        """Assemble a raw set from (label, image) pairs with a zero mean."""
        pairs = list(labeled_images)
        if not pairs:
            raise InvalidDataset("need at least one sample")
        labels, images = zip(*pairs)
        for image in images:
            if image.shape != images[0].shape:
                raise InvalidDataset(f"mixed image dimensions: {image.shape} vs {images[0].shape}")
        stack = np.stack([image.data for image in images])
        return cls(stack, None, labels, (None,) * len(labels), QMatrix.zeros(*images[0].shape))

    def __len__(self):
        return len(self.row_labels)

    @property
    def shape(self):
        return self.mean.shape

    def _gather(self, mean=None):
        """The images as one (N, 4, m, n) array, centred by ``mean`` when it is given.

        A whole centred set, with ``mean`` None or its own, is its stack; else one new array."""
        own = mean is None or (self.centered and mean is self.mean)
        if own and self.centered and self.rows is None:
            return self.stack
        X = self.stack.copy() if self.rows is None else self.stack[self.rows]
        if not own:
            X -= mean.data - self.mean.data if self.centered else mean.data
        return X

    def _read(self, i):
        """The images i (an index, slice or index array of set positions) as rows of the stack."""
        return self.stack[i] if self.rows is None else self.stack[self.rows[i]]

    def images(self):
        rows = self.stack if self.rows is None else (self.stack[r] for r in self.rows)
        return [QMatrix._view(image) for image in rows]

    @property
    def samples(self):
        """The set as Sample records, each image a view of its row of the stack."""
        return tuple(map(Sample, self.row_labels, self.images(), self.row_sources))

    def labels(self):
        return list(self.row_labels)

    def classes(self):
        return sorted(set(self.row_labels))

    def by_class(self):
        groups: dict[str, list[int]] = {}
        for idx, label in enumerate(self.row_labels):
            groups.setdefault(label, []).append(idx)
        return groups

    def subset(self, indices):
        picked = np.arange(len(self))[list(indices)]
        rows = picked if self.rows is None else self.rows[picked]
        return replace(self, rows=rows, row_labels=tuple(self.row_labels[i] for i in picked),
                       row_sources=tuple(self.row_sources[i] for i in picked))


# "P6", then width, height and maxval as decimal tokens; whitespace and
# "#" comments running to the end of their line separate the tokens, and
# one whitespace byte after maxval ends the header (group 4 is empty when
# the file ends there instead).
_PPM_HEADER = re.compile(
    rb"P6" + rb"(?:\s|#[^\n]*\n)*(\d+)\s" * 2 + rb"(?:\s|#[^\n]*\n)*(\d+)(\s|\Z)")


def _read_file(path, what, size=0):
    """The bytes of ``path``, read by one call when there are at most ``size``.

    Every file the package reads goes through here; an OSError becomes
    ``IoError("<path>: cannot read <what> (<reason>)")``.
    """
    try:
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
    except OSError as exc:
        if exc.filename is None:  # read(2) names no file, as on a directory
            exc.filename = os.fspath(path)
        raise IoError(f"{path}: cannot read {what} ({exc})") from exc


def _write_file(path, data, what, truncate=False):
    """Make the bytes ``data`` the whole content of ``path``, rewriting it in place.

    Every file the package writes goes through here; an OSError becomes
    ``IoError("<path>: cannot write <what> (<reason>)")``.  The file is
    written from offset 0 without O_TRUNC, and a regular file that was
    longer is then cut to the bytes written: truncating to zero first, as
    ``open(path, "w")`` does, makes ext4 (``auto_da_alloc``) flush the
    rewritten file on close.  A device or a pipe, such as /dev/null or
    /dev/stdout, is never truncated, because it cannot be.
    ``truncate=True`` empties the file first after all, so that a write
    the process does not live to finish leaves a short file, never new
    bytes over old ones; ``save_basis`` uses it, as BQP1 has no checksum.
    """
    try:
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
    except OSError as exc:
        raise IoError(f"{path}: cannot write {what} ({exc})") from exc


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


def _ppm_header(h, w):
    """The canonical binary PPM header of an h x w image."""
    return b"P6\n%d %d\n255\n" % (w, h)


def _encode_ppm(rgb):
    return _ppm_header(*rgb.shape[:2]) + rgb.tobytes()


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # colour type -> bytes per pixel
_IHDR = struct.Struct(">IIBBBBB")


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


def _parse_png(path, data):
    """Decode the bytes ``data`` of the PNG file ``path``."""
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
    if header is None or len(header) != _IHDR.size:
        raise IoError(f"{path}: missing or malformed PNG IHDR chunk")
    width, height, depth, ctype, compression, filtering, interlace = _IHDR.unpack(header)
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


def _encode_png(rgb):
    h, w, _ = rgb.shape
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # filter byte 0 on every row
    rows[:, 1:] = rgb.reshape(h, 3 * w)
    return _PNG_SIGNATURE + _png_chunk(b"IHDR", _IHDR.pack(w, h, 8, 2, 0, 0, 0)) + _png_chunk(
        b"IDAT", zlib.compress(rows.tobytes())) + _png_chunk(b"IEND", b"")


# The image codecs, (decoder, encoder), by lower-cased file suffix.
_CODECS = {".png": (_parse_png, _encode_png), ".ppm": (_parse_ppm, _encode_ppm)}


def _suffix(name):
    """Lower-cased suffix of a file name as ``pathlib`` reads it ("" for ".ppm")."""
    dot = name.rfind(".")
    return name[dot:].lower() if 0 < dot < len(name) - 1 else ""


def _read_image(path, suffix, data):
    """Decode the bytes ``data`` of ``path`` by the codec of ``suffix`` to (h, w, 3) uint8."""
    try:
        return _CODECS[suffix][0](path, data)
    except IoError:
        raise
    except Exception as exc:
        raise IoError(f"{path}: cannot read image ({exc})") from exc


def _list(directory, keep):
    """(name, path, keep(entry)) of each entry of ``directory`` that ``keep`` marks, by name."""
    try:
        with os.scandir(directory) as entries:
            return sorted((e.name, e.path, mark) for e in entries if (mark := keep(e)))
    except OSError as exc:
        raise IoError(f"{directory}: cannot read directory ({exc})") from exc


def _image_suffix(entry):
    """The codec suffix of an entry that is an image file, else None; the name is tested first."""
    suffix = _suffix(entry.name)
    return suffix if suffix in _CODECS and entry.is_file() else None


def load_dataset(root):
    """Load every class subdirectory of ``root`` into a SampleSet.

    One pass lists every image file with its label and suffix.  One loop
    then reads each file once, by one call when it is no longer than a
    canonical PPM, and decodes it in sample order into one C-contiguous
    (N, 4, m, n) array with a zero real plane, the set's read-only stack.
    The first file fixes the size m x n and the canonical header
    ``P6\\n<n> <m>\\n255\\n``.  A later ``.ppm`` file that is exactly that
    header and an m x n raster is kept as read, and the rasters are
    converted together by one divide, as each would be on its own.  Every
    other file goes to the codec its suffix names, with the bytes already
    read, so its errors are the per-file ones; loading stops at the first
    bad file.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise IoError(f"{rootp}: not a readable directory")
    classes = _list(rootp, os.DirEntry.is_dir)
    if not classes:
        raise InvalidDataset(f"{rootp}: no class subdirectories")
    # Listing the root "." puts "./" before each class; its name is the path without it.
    here = rootp == Path(".")
    listed = [(label, path, suffix) for label, cdir, _ in classes
              for _, path, suffix in _list(label if here else cdir, _image_suffix)]
    if not listed:
        raise InvalidDataset(f"{rootp}: no images found")

    size = 0  # of a canonical PPM, once the first file has fixed it
    for i, (_, path, suffix) in enumerate(listed):
        data = _read_file(path, "image", size)
        if size and len(data) == size and suffix == ".ppm" and data.startswith(header):
            flat[i * raster:(i + 1) * raster] = memoryview(data)[len(header):]
            continue
        rgb = _read_image(path, suffix, data)
        if not size:
            h, w = rgb.shape[:2]
            header, raster = _ppm_header(h, w), h * w * 3
            size = len(header) + raster
            raw = np.empty((len(listed), h, w, 3), dtype=np.uint8)
            flat = memoryview(raw).cast("B")
        elif rgb.shape[:2] != (h, w):
            raise InvalidDataset(f"{path}: image dimensions {rgb.shape[:2]} differ from {(h, w)}")
        raw[i] = rgb
    stack = np.zeros((len(listed), 4, h, w))
    np.divide(raw.transpose(0, 3, 1, 2), 255.0, out=stack[:, 1:])
    labels, sources, _ = zip(*listed)
    return SampleSet(stack, None, labels, sources, QMatrix.zeros(h, w))


def _export_stack(images, paths):
    """Write image i of the (N, 4, m, n) stack ``images`` to ``paths[i]`` as export_image does.

    The channels are clipped, scaled, rounded and cast a block of _blocks
    at a time, and the files are written in path order.  Writing stops at
    the first path whose suffix names no codec (IoError) or image that holds
    NaN (InvalidDataset), before its file is opened; only earlier images are written.
    """
    for rows in _blocks(len(images), 3 * images.shape[-2] * images.shape[-1]):
        block = images[rows, 1:]
        # Clipping writes the channels last, so each image's bytes are one run.
        rgb = np.empty((len(block), *block.shape[2:], 3))
        np.clip(block.transpose(0, 2, 3, 1), 0.0, 1.0, out=rgb)
        rgb *= 255.0
        with np.errstate(invalid="ignore"):  # an image that holds NaN is cast, never written
            rgb = np.rint(rgb, out=rgb).astype(np.uint8)
        for path, image, nan in zip(paths[rows], rgb, np.isnan(block).any(axis=(1, 2, 3))):
            codec = _CODECS.get(_suffix(os.path.basename(path)))
            if codec is None:
                raise IoError(f"{Path(path)}: unsupported image suffix {Path(path).suffix!r}")
            if nan:
                raise InvalidDataset(f"{path}: cannot export an image that holds NaN")
            _write_file(path, codec[1](image), "image")


def export_image(image, path):
    """Write a quaternion matrix as an 8-bit RGB image.

    The i, j, k planes become the R, G, B channels, clipped to [0, 1]
    and scaled back to the 8-bit grid; any real plane is dropped.  The
    format follows the file suffix (.ppm, or .png written as 8-bit RGB).
    Exporting an image loaded from a canonical P6 file reproduces its
    bytes.  An image that holds NaN is rejected with InvalidDataset
    before the file is opened.
    """
    _export_stack(image.data[None], [path])


def center(sample_set):
    """Subtract the mean image from every sample; idempotent.

    The rows are gathered once, into the new array that is centred in place.
    """
    if sample_set.centered:
        return sample_set
    if len(sample_set) == 0:
        raise InvalidDataset("cannot center an empty sample set")
    stack = sample_set._gather()
    mean = stack.mean(axis=0)
    stack -= mean
    return replace(sample_set, stack=stack, rows=None, mean=QMatrix(mean), centered=True)


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
    is nonzero; the floor is taken of the product plus 1e-9, so binary
    rounding (0.29 * 100 = 28.999999999999996) does not drop a sample.
    Leftovers go to the training part (or to the largest nonzero part
    when the training fraction is zero).  The shuffle is
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
        n_val = max(1, math.floor(fracs[1] * count + 1e-9)) if fracs[1] > 0 else 0
        n_test = max(1, math.floor(fracs[2] * count + 1e-9)) if fracs[2] > 0 else 0
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
_BQP1 = struct.Struct("<4sIIIIIdd")


def save_basis(basis, path):
    """Write a BasisPair in the binary BQP1 format."""
    blob = [_BQP1.pack(_MAGIC, _VERSION, basis.m, basis.n, basis.k1, basis.k2,
                       float(basis.params.s), float(basis.params.p))]
    for block in (basis.U.data, basis.V.data, basis.d_left, basis.d_right, basis.mean.data):
        blob.append(np.asarray(block, dtype="<f8").tobytes())
    _write_file(path, b"".join(blob), "basis", truncate=True)


def load_basis(path):
    """Read a BasisPair back; rejects malformed or non-finite payloads with FormatError."""
    data = _read_file(path, "basis")

    if len(data) < _BQP1.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, m, n, k1, k2, s, p = _BQP1.unpack_from(data)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")

    shapes = {"U": (4, m, k1), "V": (4, n, k2), "d_left": (k1,), "d_right": (k2,),
              "mean": (4, m, n)}
    expected = _BQP1.size + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) < expected:
        raise FormatError(f"{path}: truncated payload ({len(data)} of {expected} bytes)")
    if len(data) > expected:
        raise FormatError(f"{path}: trailing data ({len(data) - expected} extra bytes)")

    pos = _BQP1.size
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

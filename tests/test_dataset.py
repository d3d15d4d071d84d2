"""Image loading, centering, stratified splits, and basis serialization."""

import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatpca.dataset
from quatpca import (
    BasisPair,
    FitParams,
    FormatError,
    InvalidDataset,
    InvalidParameter,
    IoError,
    QMatrix,
    SampleSet,
    center,
    export_image,
    fit,
    load_basis,
    load_dataset,
    save_basis,
    split,
)
from conftest import ppm_bytes, random_qmatrix, random_rgb, write_image_tree


@pytest.fixture
def tree(tmp_path, rng):
    arrays = {
        "alice": [random_rgb(rng, 5, 4) for _ in range(4)],
        "bob": [random_rgb(rng, 5, 4) for _ in range(6)],
    }
    write_image_tree(tmp_path, arrays)
    return tmp_path, arrays


# -- loading ------------------------------------------------------------


def test_load_dataset_pixels_and_labels(tree):
    root, arrays = tree
    ss = load_dataset(root)
    assert len(ss) == 10
    assert ss.shape == (5, 4)
    assert ss.classes() == ["alice", "bob"]
    assert ss.labels() == ["alice"] * 4 + ["bob"] * 6
    first = ss.samples[0]
    assert not np.any(first.image.data[0])
    expected = arrays["alice"][0].astype(np.float64).transpose(2, 0, 1) / 255.0
    assert np.allclose(first.image.data[1:], expected)
    assert first.source.endswith("img00.ppm")


def test_load_dataset_sorted_order(tmp_path, rng):
    # written out of order on purpose; loading must sort by name
    (tmp_path / "zeta").mkdir()
    (tmp_path / "alpha").mkdir()
    for name in ("b.ppm", "a.ppm"):
        (tmp_path / "zeta" / name).write_bytes(ppm_bytes(random_rgb(rng, 2, 2)))
        (tmp_path / "alpha" / name).write_bytes(ppm_bytes(random_rgb(rng, 2, 2)))
    ss = load_dataset(tmp_path)
    assert ss.labels() == ["alpha", "alpha", "zeta", "zeta"]
    assert [s.source.split("/")[-1] for s in ss.samples] == ["a.ppm", "b.ppm"] * 2


def test_load_dataset_ignores_other_files(tmp_path, rng):
    d = tmp_path / "only"
    d.mkdir()
    (d / "img.ppm").write_bytes(ppm_bytes(random_rgb(rng, 2, 2)))
    (d / "notes.txt").write_text("not an image")
    assert len(load_dataset(tmp_path)) == 1


def test_load_dataset_uppercase_suffix(tmp_path, rng):
    d = tmp_path / "c"
    d.mkdir()
    (d / "IMG.PPM").write_bytes(ppm_bytes(random_rgb(rng, 2, 2)))
    assert len(load_dataset(tmp_path)) == 1


def test_load_dataset_rejects_mixed_dimensions(tmp_path, rng):
    d = tmp_path / "c"
    d.mkdir()
    (d / "a.ppm").write_bytes(ppm_bytes(random_rgb(rng, 2, 2)))
    (d / "b.ppm").write_bytes(ppm_bytes(random_rgb(rng, 3, 2)))
    with pytest.raises(InvalidDataset):
        load_dataset(tmp_path)


def test_load_dataset_error_cases(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "missing")
    with pytest.raises(InvalidDataset):
        load_dataset(tmp_path)  # no class subdirectories
    (tmp_path / "empty").mkdir()
    with pytest.raises(InvalidDataset):
        load_dataset(tmp_path)  # subdirectory without images


def test_loaded_images_are_read_only_contiguous_views(tree):
    root, _ = tree
    for sample in load_dataset(root).samples:
        data = sample.image.data
        assert data.flags.c_contiguous
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data.flags.writeable = True


def test_loaded_pixels_match_per_file_decode(tmp_path, rng):
    # One class mixing a canonical PPM, a PPM with a commented header and a PNG.
    d = tmp_path / "c"
    d.mkdir()
    (d / "a.ppm").write_bytes(ppm_bytes(random_rgb(rng, 3, 5)))
    (d / "b.ppm").write_bytes(
        b"P6 # size\n5\n# rows\n 3 255\t" + random_rgb(rng, 3, 5).tobytes())
    export_image(QMatrix(np.concatenate(
        [np.zeros((1, 3, 5)), random_rgb(rng, 3, 5).transpose(2, 0, 1) / 255.0])),
        d / "c.png")
    ss = load_dataset(tmp_path)
    assert [s.source.split("/")[-1] for s in ss.samples] == ["a.ppm", "b.ppm", "c.png"]
    for sample in ss.samples:
        rgb = quatpca.dataset._read_image(sample.source)
        assert not np.any(sample.image.data[0])
        assert np.array_equal(sample.image.data[1:],
                              rgb.astype(np.float64).transpose(2, 0, 1) / 255.0)


@pytest.mark.parametrize("bad, error", [
    (b"P6\n4 3\n255\n" + bytes(5), IoError),
    (ppm_bytes(np.zeros((2, 3, 3), dtype=np.uint8)), InvalidDataset),
], ids=["malformed", "mismatched"])
def test_load_stops_at_the_failing_file(tmp_path, rng, monkeypatch, bad, error):
    arrays = {label: [random_rgb(rng, 3, 4) for _ in range(3)] for label in ("a", "b", "c")}
    write_image_tree(tmp_path, arrays)
    failing = tmp_path / "b" / "img01.ppm"
    failing.write_bytes(bad)
    reads = []
    for name in ("_read_file", "_read_image"):  # the file read and the per-file decoder
        read = getattr(quatpca.dataset, name)

        def spy(path, *args, read=read):
            reads.append(str(path))
            return read(path, *args)

        monkeypatch.setattr(quatpca.dataset, name, spy)
    with pytest.raises(error, match=re.escape(str(failing))):
        load_dataset(tmp_path)
    files = list(dict.fromkeys(reads))  # each file once, in the order first read
    assert files[-1] == str(failing)
    assert len(files) == 5  # a/img00..02, b/img00, b/img01


def _per_file_decode(path):
    return quatpca.dataset._read_image(path).astype(np.float64).transpose(2, 0, 1) / 255.0


@pytest.mark.parametrize("first", ["canonical", "commented", "png"])
def test_batch_load_matches_per_file_decode_whatever_comes_first(tmp_path, rng, first):
    # The first file fixes the canonical header; later canonical PPMs,
    # upper-case suffix included, take the sized read.
    d = tmp_path / "c"
    d.mkdir()
    rgb = random_rgb(rng, 3, 5)
    if first == "png":
        export_image(QMatrix(np.concatenate([np.zeros((1, 3, 5)), rgb.transpose(2, 0, 1) / 255.0])),
                     d / "a.png")
    else:
        header = b"P6 # size\n5\n# rows\n 3 255\t" if first == "commented" else b"P6\n5 3\n255\n"
        (d / "a.ppm").write_bytes(header + rgb.tobytes())
    for name in ("b.ppm", "c.PPM", "d.ppm"):
        (d / name).write_bytes(ppm_bytes(random_rgb(rng, 3, 5)))
    ss = load_dataset(tmp_path)
    assert [s.source.split("/")[-1] for s in ss.samples] == [
        "a.png" if first == "png" else "a.ppm", "b.ppm", "c.PPM", "d.ppm"]
    for sample in ss.samples:
        assert not np.any(sample.image.data[0])
        assert np.array_equal(sample.image.data[1:], _per_file_decode(sample.source))


def test_batch_load_reads_every_ppm_once(tmp_path, rng, monkeypatch):
    # A later PPM that is not canonical is decoded from the bytes already read.
    d = tmp_path / "c"
    d.mkdir()
    for name in ("a.ppm", "b.ppm", "c.ppm"):
        (d / name).write_bytes(b"P6\n# made by hand\n5 3\n255\n" + random_rgb(rng, 3, 5).tobytes())
    (d / "d.ppm").write_bytes(ppm_bytes(random_rgb(rng, 3, 5)))
    reads = []
    read = quatpca.dataset._read_file

    def spy(path, *args):
        reads.append(path)
        return read(path, *args)

    monkeypatch.setattr(quatpca.dataset, "_read_file", spy)
    ss = load_dataset(tmp_path)
    assert reads == [s.source for s in ss.samples]
    for sample in ss.samples:
        assert np.array_equal(sample.image.data[1:], _per_file_decode(sample.source))


def test_batch_load_reports_an_unreadable_file_as_the_per_file_reader(tmp_path, rng,
                                                                     monkeypatch):
    arrays = {label: [random_rgb(rng, 3, 4) for _ in range(2)] for label in ("a", "b")}
    write_image_tree(tmp_path, arrays)
    failing = str(tmp_path / "b" / "img00.ppm")
    read = quatpca.dataset._read_file

    def denied(path, *args):
        if path == failing:
            raise PermissionError(13, "Permission denied", path)
        return read(path, *args)

    monkeypatch.setattr(quatpca.dataset, "_read_file", denied)
    text = f"{failing}: cannot read image ([Errno 13] Permission denied: '{failing}')"
    with pytest.raises(IoError, match=f"^{re.escape(text)}$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("payload, error, text", [
    (ppm_bytes(np.zeros((3, 4, 3), dtype=np.uint8)) + b"\0", IoError,
     "raster has 37 bytes, expected 36"),
    (ppm_bytes(np.zeros((3, 4, 3), dtype=np.uint8))[:-1], IoError,
     "raster has 35 bytes, expected 36"),
    (ppm_bytes(np.zeros((4, 3, 3), dtype=np.uint8)), InvalidDataset,
     "image dimensions (4, 3) differ from (3, 4)"),
], ids=["trailing-byte", "truncated", "other-size"])
def test_batch_load_keeps_the_per_file_error_text(tmp_path, rng, payload, error, text):
    arrays = {label: [random_rgb(rng, 3, 4) for _ in range(2)] for label in ("a", "b")}
    write_image_tree(tmp_path, arrays)
    failing = tmp_path / "b" / "img00.ppm"
    failing.write_bytes(payload)
    with pytest.raises(error, match=f"^{re.escape(f'{failing}: {text}')}$"):
        load_dataset(tmp_path)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_batch_load_equals_per_file_decode_on_canonical_trees(counts, h, w, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        write_image_tree(Path(tmp), {f"k{c}": [random_rgb(rng, h, w) for _ in range(count)]
                                     for c, count in enumerate(counts)})
        ss = load_dataset(tmp)
        assert len(ss) == sum(counts)
        for sample in ss.samples:
            assert not np.any(sample.image.data[0])
            assert np.array_equal(sample.image.data[1:], _per_file_decode(sample.source))


def test_png_round_trip(tmp_path, rng):
    d = tmp_path / "c"
    d.mkdir()
    arr = random_rgb(rng, 6, 3)
    img = QMatrix(np.concatenate(
        [np.zeros((1, 6, 3)), arr.astype(np.float64).transpose(2, 0, 1) / 255.0]))
    export_image(img, d / "x.png")
    ss = load_dataset(tmp_path)
    assert np.array_equal(ss.samples[0].image.data, img.data)


# -- PNG details --------------------------------------------------------
#
# These files are encoded here, independently of the library's writer,
# so the reader is checked on every row filter and colour type.


def png_chunk(kind, body):
    return (struct.pack(">I", len(body)) + kind + body
            + struct.pack(">I", zlib.crc32(kind + body)))


def png_file(width, height, colour_type, raw, depth=8, interlace=0):
    """PNG bytes around the scanlines ``raw``, split over two IDAT chunks."""
    ihdr = struct.pack(">IIBBBBB", width, height, depth, colour_type, 0, 0, interlace)
    idat = zlib.compress(raw)
    half = len(idat) // 2
    return (b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", idat[:half]) + png_chunk(b"IDAT", idat[half:])
            + png_chunk(b"IEND", b""))


def paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def filtered_scanlines(pixels, filters):
    """Encode an (h, w, c) uint8 raster, row y with filter filters[y % len]."""
    h, w, c = pixels.shape
    prev = [0] * (w * c)
    lines = []
    for y in range(h):
        row = pixels[y].ravel().tolist()
        kind = filters[y % len(filters)]
        line = [kind]
        for i, x in enumerate(row):
            a = row[i - c] if i >= c else 0
            up_left = prev[i - c] if i >= c else 0
            pred = (0, a, prev[i], (a + prev[i]) // 2, paeth(a, prev[i], up_left))[kind]
            line.append((x - pred) % 256)
        lines.append(bytes(line))
        prev = row
    return b"".join(lines)


@pytest.mark.parametrize("colour_type, filters", [
    (2, (1,)), (2, (2,)), (2, (3,)), (2, (4,)),
    (0, (0, 1, 2, 3, 4)), (4, (4, 3, 2, 1, 0)), (6, (3, 4, 0, 1, 2)),
], ids=["rgb-sub", "rgb-up", "rgb-average", "rgb-paeth", "gray", "gray-alpha", "rgba"])
def test_png_reader_filters_and_colour_types(tmp_path, rng, colour_type, filters):
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[colour_type]
    # A few levels, extremes included: predictor ties and byte wraparound
    # both occur often.
    levels = np.array([0, 1, 2, 3, 4, 5, 6, 128, 255], dtype=np.uint8)
    pixels = rng.choice(levels, size=(12, 10, channels))
    d = tmp_path / "c"
    d.mkdir()
    (d / "x.png").write_bytes(
        png_file(10, 12, colour_type, filtered_scanlines(pixels, filters)))
    rgb = pixels[..., [0, 0, 0]] if channels < 3 else pixels[..., :3]
    expected = rgb.astype(np.float64).transpose(2, 0, 1) / 255.0
    image = load_dataset(tmp_path).samples[0].image
    assert not np.any(image.data[0])
    assert np.array_equal(image.data[1:], expected)


_GOOD_PNG = png_file(2, 2, 2, bytes(14))


@pytest.mark.parametrize("payload", [
    pytest.param(b"\x89PNX" + _GOOD_PNG[4:], id="bad-signature"),
    pytest.param(_GOOD_PNG[:30] + bytes([_GOOD_PNG[30] ^ 0xFF]) + _GOOD_PNG[31:],
                 id="ihdr-crc"),
    pytest.param(_GOOD_PNG[:-5], id="truncated-iend"),
    pytest.param(_GOOD_PNG[:-15], id="truncated-idat"),
    pytest.param(png_file(2, 2, 2, bytes(26), depth=16), id="16-bit"),
    pytest.param(png_file(2, 2, 3, bytes(6)), id="palette"),
    pytest.param(png_file(2, 2, 2, bytes(14), interlace=1), id="interlaced"),
    pytest.param(png_file(2, 2, 2, bytes(13)), id="short-image-data"),
    pytest.param(png_file(2, 2, 2, b"\x05" + bytes(13)), id="unknown-filter"),
])
def test_png_malformed_files(tmp_path, payload):
    d = tmp_path / "c"
    d.mkdir()
    (d / "x.png").write_bytes(payload)
    with pytest.raises(IoError):
        load_dataset(tmp_path)


# -- PPM details --------------------------------------------------------


def test_ppm_header_comments(tmp_path):
    raster = bytes(range(2 * 1 * 3))
    payload = b"P6\n# width and height\n1 2\n# depth\n255\n" + raster
    d = tmp_path / "c"
    d.mkdir()
    (d / "x.ppm").write_bytes(payload)
    ss = load_dataset(tmp_path)
    assert ss.shape == (2, 1)


@pytest.mark.parametrize("payload", [
    b"P5\n2 2\n255\n" + bytes(12),            # wrong magic
    b"P6\n2 2\n65535\n" + bytes(24),          # unsupported depth
    b"P6\n2 2\n255\n" + bytes(5),             # truncated raster
    b"P6\n2 two\n255\n" + bytes(12),          # malformed header token
    b"P6\n2 2 255",                           # header ends early
])
def test_ppm_malformed_files(tmp_path, payload):
    d = tmp_path / "c"
    d.mkdir()
    (d / "x.ppm").write_bytes(payload)
    with pytest.raises(IoError):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name, payload", [
    ("x.ppm", b"P6\n0 0\n255\n"),
    ("x.ppm", b"P6\n3 0\n255\n"),
    ("x.png", png_file(0, 2, 2, bytes(2))),
], ids=["ppm-0x0", "ppm-3x0", "png-0x2"])
def test_zero_size_images_rejected(tmp_path, name, payload):
    d = tmp_path / "c"
    d.mkdir()
    (d / name).write_bytes(payload)
    with pytest.raises(IoError, match=re.escape(str(d / name))):
        load_dataset(tmp_path)


def test_export_reproduces_canonical_ppm_bytes(tree, tmp_path):
    root, arrays = tree
    ss = load_dataset(root)
    out = tmp_path / "out.ppm"
    export_image(ss.samples[0].image, out)
    assert out.read_bytes() == ppm_bytes(arrays["alice"][0])


def test_export_clips_out_of_range(tmp_path):
    data = np.zeros((4, 1, 1))
    data[1:, 0, 0] = [2.0, -1.0, 0.5]
    export_image(QMatrix(data), tmp_path / "c.ppm")
    raster = (tmp_path / "c.ppm").read_bytes()[-3:]
    assert list(raster) == [255, 0, 128]


def test_export_rejects_unknown_suffix(tmp_path):
    with pytest.raises(IoError):
        export_image(QMatrix.zeros(1, 1), tmp_path / "x.bmp")


# -- centering ----------------------------------------------------------


def test_center_removes_mean(rng):
    mats = [random_qmatrix(rng, 3, 4) for _ in range(5)]
    ss = center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))
    assert ss.centered
    stacked = np.mean([F.data for F in ss.images()], axis=0)
    assert np.allclose(stacked, 0.0, atol=1e-15)
    mean = np.mean([F.data for F in mats], axis=0)
    assert np.allclose(ss.mean.data, mean)
    assert ss.images()[0].allclose(mats[0] - ss.mean, tol=1e-15)


def test_center_matches_per_sample_formula(tree):
    root, _ = tree
    ss = load_dataset(root).subset([7, 0, 3, 9, 4])
    centered = center(ss)
    mean = np.mean([s.image.data for s in ss.samples], axis=0)
    assert np.array_equal(centered.mean.data, mean)
    for before, after in zip(ss.samples, centered.samples):
        assert (after.label, after.source) == (before.label, before.source)
        assert np.array_equal(after.image.data, before.image.data - mean)
        assert after.image.data.flags.c_contiguous
        assert not after.image.data.flags.writeable


def test_center_idempotent(rng):
    ss = center(SampleSet.build([("a", random_qmatrix(rng, 2, 2))]))
    assert center(ss) is ss


def test_center_empty_set_rejected(rng):
    ss = SampleSet.build([("a", random_qmatrix(rng, 2, 2))]).subset([])
    with pytest.raises(InvalidDataset):
        center(ss)


def test_sampleset_rejects_mixed_shapes(rng):
    with pytest.raises(InvalidDataset):
        SampleSet.build([("a", random_qmatrix(rng, 2, 2)),
                         ("b", random_qmatrix(rng, 3, 2))])


def test_subset_and_by_class(rng):
    ss = SampleSet.build([("a", random_qmatrix(rng, 2, 2)),
                          ("b", random_qmatrix(rng, 2, 2)),
                          ("a", random_qmatrix(rng, 2, 2))])
    assert ss.by_class() == {"a": [0, 2], "b": [1]}
    sub = ss.subset([2, 0])
    assert sub.labels() == ["a", "a"]


# -- splits -------------------------------------------------------------


def build_labeled(rng, counts):
    labeled = []
    for label, count in counts.items():
        labeled.extend((label, random_qmatrix(rng, 2, 2)) for _ in range(count))
    return SampleSet.build(labeled)


def test_split_standard_fractions(rng):
    ss = build_labeled(rng, {"a": 10, "b": 10})
    train, val, test = split(ss, (0.8, 0.1, 0.1), seed=3)
    assert len(train) == 16 and len(val) == 2 and len(test) == 2
    for part in (train, val, test):
        counts = {lab: len(ix) for lab, ix in part.by_class().items()}
        assert counts["a"] == counts["b"]


def test_split_minimum_one_for_nonzero_fraction(rng):
    ss = build_labeled(rng, {"a": 3})
    train, val, test = split(ss, (0.5, 0.25, 0.25), seed=0)
    assert (len(train), len(val), len(test)) == (1, 1, 1)


def test_split_zero_fraction_gets_nothing(rng):
    ss = build_labeled(rng, {"a": 5, "b": 5})
    train, val, test = split(ss, (0.9, 0.0, 0.1), seed=1)
    assert len(val) == 0
    assert len(train) == 8 and len(test) == 2


def test_split_without_train_gives_leftovers_to_largest(rng):
    ss = build_labeled(rng, {"a": 5})
    train, val, test = split(ss, (0.0, 0.5, 0.5), seed=0)
    assert len(train) == 0
    assert (len(val), len(test)) == (3, 2)


def test_split_all_to_test(rng):
    ss = build_labeled(rng, {"a": 5})
    train, val, test = split(ss, (0.0, 0.0, 1.0), seed=0)
    assert (len(train), len(val), len(test)) == (0, 0, 5)


def test_split_deterministic_and_disjoint(rng):
    ss = build_labeled(rng, {"a": 7, "b": 9})
    parts1 = split(ss, (0.6, 0.2, 0.2), seed=42)
    parts2 = split(ss, (0.6, 0.2, 0.2), seed=42)
    for p1, p2 in zip(parts1, parts2):
        assert p1.labels() == p2.labels()
        assert all(np.array_equal(a.image.data, b.image.data)
                   for a, b in zip(p1.samples, p2.samples))
    ids = [id_ for part in parts1 for id_ in
           [s.image.data.tobytes() for s in part.samples]]
    assert len(ids) == len(ss)
    assert len(set(ids)) == len(ss)


def test_split_seed_changes_selection(rng):
    ss = build_labeled(rng, {"a": 12})
    t1, _, _ = split(ss, (0.5, 0.25, 0.25), seed=0)
    t2, _, _ = split(ss, (0.5, 0.25, 0.25), seed=1)
    assert any(not np.array_equal(a.image.data, b.image.data)
               for a, b in zip(t1.samples, t2.samples))


def test_split_rejects_small_class(rng):
    ss = build_labeled(rng, {"a": 2})
    with pytest.raises(InvalidDataset):
        split(ss, (0.8, 0.1, 0.1), seed=0)


def test_split_validates_fractions(rng):
    ss = build_labeled(rng, {"a": 4})
    with pytest.raises(InvalidParameter):
        split(ss, (0.5, 0.5), seed=0)
    with pytest.raises(InvalidParameter):
        split(ss, (0.8, 0.3, -0.1), seed=0)
    with pytest.raises(InvalidParameter):
        split(ss, (0.5, 0.4, 0.3), seed=0)
    # NaN passes both the sign and the sum check unless rejected first.
    for fractions in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (math.inf, 0.0, 0.0)):
        with pytest.raises(InvalidParameter, match="finite"):
            split(ss, fractions, seed=0)


def test_split_rejects_a_negative_seed(rng):
    ss = build_labeled(rng, {"a": 4})
    with pytest.raises(InvalidParameter, match="seed must be a nonnegative integer, got -1"):
        split(ss, (0.5, 0.5, 0.0), seed=-1)


# -- basis serialization ------------------------------------------------


@pytest.fixture
def fitted(rng):
    mats = [random_qmatrix(rng, 4, 3, pure=True) for _ in range(6)]
    ss = center(SampleSet.build([(str(t % 2), F) for t, F in enumerate(mats)]))
    return fit(ss, FitParams(s=2.0, p=math.inf, k1=2, k2=2))


def test_basis_round_trip_bit_exact(fitted, tmp_path):
    path = tmp_path / "basis.bqp"
    save_basis(fitted, path)
    back = load_basis(path)
    assert np.array_equal(back.U.data, fitted.U.data)
    assert np.array_equal(back.V.data, fitted.V.data)
    assert np.array_equal(back.d_left, fitted.d_left)
    assert np.array_equal(back.d_right, fitted.d_right)
    assert np.array_equal(back.mean.data, fitted.mean.data)
    assert back.params.s == fitted.params.s
    assert back.params.p == math.inf
    assert (back.params.k1, back.params.k2) == (2, 2)


def test_basis_file_matches_the_documented_layout(tmp_path):
    # Every entry distinct, m != n and k1 != k2, so a swapped or transposed block shows.
    m, n, k1, k2 = 3, 4, 2, 3
    values = iter(0.5 + np.arange(4 * m * k1 + 4 * n * k2 + k1 + k2 + 4 * m * n))
    U = [[[next(values) for _ in range(k1)] for _ in range(m)] for _ in range(4)]
    V = [[[next(values) for _ in range(k2)] for _ in range(n)] for _ in range(4)]
    d_left = [next(values) for _ in range(k1)]
    d_right = [next(values) for _ in range(k2)]
    mean = [[[next(values) for _ in range(n)] for _ in range(m)] for _ in range(4)]
    basis = BasisPair(U=QMatrix(U), V=QMatrix(V), d_left=d_left, d_right=d_right,
                      params=FitParams(s=1.5, p=0.75, k1=k1, k2=k2), mean=QMatrix(mean))
    save_basis(basis, tmp_path / "b.bqp")

    # Header, then U planes 0-3 row-major, V, d_left, d_right and the mean.
    expected = b"BQP1" + struct.pack("<IIIII", 1, m, n, k1, k2) + struct.pack("<dd", 1.5, 0.75)
    for planes in (U, V):
        expected += b"".join(struct.pack("<d", x) for plane in planes for row in plane for x in row)
    expected += b"".join(struct.pack("<d", x) for x in d_left + d_right)
    expected += b"".join(struct.pack("<d", x) for plane in mean for row in plane for x in row)
    assert (tmp_path / "b.bqp").read_bytes() == expected


def test_basis_save_load_again_identical_bytes(fitted, tmp_path):
    p1, p2 = tmp_path / "a.bqp", tmp_path / "b.bqp"
    save_basis(fitted, p1)
    save_basis(load_basis(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(fitted, tmp_path):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XQP9"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_basis(path)


def test_load_rejects_bad_version(fitted, tmp_path):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_basis(path)


def test_load_rejects_truncation(fitted, tmp_path):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    data = path.read_bytes()
    for cut in (3, 10, len(data) - 8):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_basis(path)


def test_load_rejects_trailing_data(fitted, tmp_path):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_basis(path)


def test_load_rejects_invalid_hyperparameters(fitted, tmp_path):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    data = bytearray(path.read_bytes())
    data[24:32] = struct.pack("<d", 0.5)  # s below one
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_basis(path)


@pytest.mark.parametrize("name", ["U", "V", "d_left", "d_right", "mean"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_load_rejects_non_finite_payload(fitted, tmp_path, name, value):
    path = tmp_path / "b.bqp"
    save_basis(fitted, path)
    header = 4 + struct.calcsize("<IIIII") + struct.calcsize("<dd")
    sizes = {"U": fitted.U.data.size, "V": fitted.V.data.size, "d_left": fitted.k1,
             "d_right": fitted.k2, "mean": fitted.mean.data.size}
    # Payload arrays follow the header in this order; poison the last entry of one.
    offset = header + 8 * sum(list(sizes.values())[:list(sizes).index(name) + 1]) - 8
    data = bytearray(path.read_bytes())
    data[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"b.bqp: {name} holds a non-finite value"):
        load_basis(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_basis(tmp_path / "nope.bqp")


# -- writing ------------------------------------------------------------


@pytest.mark.parametrize("name", ["out.ppm", "out.png", "basis.bqp"])
def test_outputs_overwrite_a_longer_file_to_the_same_bytes(fitted, tmp_path, rng, name):
    # Outputs are rewritten in place and then cut to their length, so a
    # writer that forgot the cut would leave the junk's tail behind.
    image = QMatrix(rng.random((4, 5, 4)))

    def write(path):
        if path.suffix == ".bqp":
            save_basis(fitted, path)
        else:
            export_image(image, path)

    fresh, stale = tmp_path / "fresh" / name, tmp_path / "stale" / name
    fresh.parent.mkdir()
    stale.parent.mkdir()
    write(fresh)
    expected = fresh.read_bytes()
    stale.write_bytes(b"\xff" * (2 * len(expected) + 100))
    write(stale)
    assert stale.read_bytes() == expected
    write(stale)  # same length: nothing to cut
    assert stale.read_bytes() == expected



_DIE_MID_WRITE = """
import os, sys
import numpy as np
from quatpca import QMatrix, export_image, load_basis, save_basis

source, target = sys.argv[1:]
basis = load_basis(source)
real_write = os.write


def write(fd, data):  # write half, then die: no finally runs
    real_write(fd, bytes(data)[:len(data) // 2])
    os._exit(3)


os.write = write
if target.endswith(".bqp"):
    save_basis(basis, target)
else:
    export_image(QMatrix(np.ones((4, 5, 4))), target)
"""


@pytest.mark.parametrize("name", ["basis.bqp", "out.ppm"])
def test_a_write_cut_short_by_process_death(fitted, tmp_path, name):
    # A basis is truncated before it is written, so a process that dies
    # mid-write leaves a short file that load_basis rejects.  An image is
    # rewritten in place, so over an old image of the same size it leaves
    # new bytes followed by old ones.
    source, target = tmp_path / "source.bqp", tmp_path / name
    save_basis(fitted, source)
    if name.endswith(".bqp"):
        save_basis(fitted, target)
    else:
        export_image(QMatrix(np.zeros((4, 5, 4))), target)
    old = target.read_bytes()
    src = str(Path(quatpca.__file__).resolve().parents[1])
    died = subprocess.run([sys.executable, "-c", _DIE_MID_WRITE, str(source), str(target)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert died.returncode == 3, died.stderr
    left = target.read_bytes()
    if name.endswith(".bqp"):
        assert len(left) == len(old) // 2
        with pytest.raises(FormatError, match="truncated payload"):
            load_basis(target)
    else:
        new = tmp_path / "new.ppm"
        export_image(QMatrix(np.ones((4, 5, 4))), new)
        half = len(old) // 2
        assert left == new.read_bytes()[:half] + old[half:]

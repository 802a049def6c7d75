"""Multimodal payload stages: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by plain-task map_batches (each stage is a
callable instance built on the driver).

The Ray-side plumbing (schema, batch sizing for large binary rows, stage
signatures, output layout) is real and tested; the actual codec decode is
STUBBED behind an import-try (PIL/soundfile are not in this container) with
a deterministic fake decoder, clearly marked. Swap ``_decode_image_real``
in when a codec library exists — nothing else changes.

Batch-size discipline for binary payloads: default 64 rows/batch so
batch × tasks in flight stays far below worker heap even at megabyte blobs
(SURVEY.md §4 oversized-row note).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

try:  # pragma: no cover - not present in this container
    from PIL import Image  # noqa: F401
    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


def _decode_image_real(blob: bytes, hw=(32, 32)) -> np.ndarray:
    """PIL decode → RGB → resize to (h, w). Only reachable when PIL imports
    (``_HAVE_PIL``); kept separate so tests can monkeypatch the dispatch."""
    import io

    from PIL import Image
    img = Image.open(io.BytesIO(blob)).convert("RGB").resize((hw[1], hw[0]))
    return np.asarray(img, dtype=np.uint8).reshape(hw[0], hw[1], 3)


def _decode_image_fake(blob: bytes, hw=(32, 32)) -> np.ndarray:
    """Deterministic stand-in decoder: pseudo-pixel i is the top byte of
    seed·(i+1) mod 2⁶⁴, seed = first 8 bytes (big-endian) of the blob's
    sha256. Same shape/dtype contract as a real decode, fully vectorized,
    and exactly expressible in HUGEINT SQL — which is what lets the
    multimodal pipeline carry a value-hash DuckDB oracle
    (queries.py:SQL_IMAGE_FEATURES) despite the codec being stubbed."""
    h, w = hw
    need = h * w * 3
    seed = np.uint64(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))
    i = np.arange(1, need + 1, dtype=np.uint64)
    return ((seed * i) >> np.uint64(56)).astype(np.uint8).reshape(h, w, 3)


class DecodeImages:
    """binary column → fixed-shape uint8 tensor column + dims metadata.

    Real path requires PIL (raises NotImplementedError if requested without
    it); fake path is deterministic and marks rows with decoder='fake'.
    """

    def __init__(self, blob_col: str = "payload", out_col: str = "pixels",
                 hw=(32, 32), require_real: bool = False):
        if require_real and not _HAVE_PIL:
            raise NotImplementedError(
                "real image decode needs PIL, which is not installed; "
                "run with require_real=False for the deterministic stub")
        self.blob_col, self.out_col, self.hw = blob_col, out_col, hw
        self.real = _HAVE_PIL and require_real

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch[self.blob_col].to_pylist()
        decode = _decode_image_real if self.real else _decode_image_fake
        arrs = [decode(b, self.hw) for b in blobs]
        cols = {name: batch[name] for name in batch.column_names}
        cols[self.out_col] = pa.array([a.tobytes() for a in arrs], type=pa.binary())
        cols["height"] = pa.array([self.hw[0]] * len(blobs), type=pa.int32())
        cols["width"] = pa.array([self.hw[1]] * len(blobs), type=pa.int32())
        cols["channels"] = pa.array([3] * len(blobs), type=pa.int32())
        cols["decoder"] = pa.array(["real" if self.real else "fake"] * len(blobs))
        return pa.table(cols)


class ImageFeatures:
    """pixels tensor column → per-channel mean/std features (real compute,
    works identically on fake or real decodes)."""

    def __init__(self, pixels_col: str = "pixels"):
        self.pixels_col = pixels_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = batch["height"].to_numpy()
        w = batch["width"].to_numpy()
        c = batch["channels"].to_numpy()
        means, stds, sums, sumsqs = [], [], [], []
        for i, blob in enumerate(batch[self.pixels_col].to_pylist()):
            a = np.frombuffer(blob, dtype=np.uint8).reshape(h[i], w[i], c[i])
            means.append(np.round(a.mean(axis=(0, 1)), 4).tolist())
            stds.append(np.round(a.std(axis=(0, 1)), 4).tolist())
            # exact integer moments too: rounded float stats are lossy AND
            # round-half-even vs SQL's round-half-away diverges on exact
            # halves — the oracle compares these instead
            a64 = a.astype(np.int64)
            sums.append(a64.sum(axis=(0, 1)).tolist())
            sumsqs.append((a64 * a64).sum(axis=(0, 1)).tolist())
        cols = {name: batch[name] for name in batch.column_names}
        cols["chan_mean"] = pa.array(means, type=pa.list_(pa.float64()))
        cols["chan_std"] = pa.array(stds, type=pa.list_(pa.float64()))
        cols["chan_sum"] = pa.array(sums, type=pa.list_(pa.int64()))
        cols["chan_sumsq"] = pa.array(sumsqs, type=pa.list_(pa.int64()))
        return pa.table(cols)


class FrameSample:
    """Video-like payloads → every Nth 'frame' (stub: fixed-size byte chunks
    stand in for demuxed frames; the sampling/emission plumbing is real)."""

    def __init__(self, blob_col: str = "payload", frame_bytes: int = 1024,
                 every_n: int = 10):
        self.blob_col, self.frame_bytes, self.every_n = blob_col, frame_bytes, every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, out_frame, out_blob = [], [], []
        ids = batch["identifier"].to_pylist() if "identifier" in batch.column_names \
            else list(range(len(batch)))
        for ident, blob in zip(ids, batch[self.blob_col].to_pylist()):
            n_frames = max(len(blob) // self.frame_bytes, 1)
            for f in range(0, n_frames, self.every_n):
                out_id.append(ident)
                out_frame.append(f)
                out_blob.append(blob[f * self.frame_bytes:(f + 1) * self.frame_bytes])
        return pa.table({
            "identifier": pa.array(out_id),
            "frame_idx": pa.array(out_frame, type=pa.int32()),
            "frame": pa.array(out_blob, type=pa.binary()),
        })


def decode_images(ds: ray.data.Dataset, blob_col: str = "payload",
                  hw=(32, 32), batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(DecodeImages(blob_col=blob_col, hw=hw),
                          batch_format="pyarrow", batch_size=batch_size)


def image_features(ds: ray.data.Dataset,
                   batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(ImageFeatures(), batch_format="pyarrow",
                          batch_size=batch_size)


def frame_sample(ds: ray.data.Dataset, blob_col: str = "payload",
                 frame_bytes: int = 1024,
                 every_n: int = 10) -> ray.data.Dataset:
    return ds.map_batches(FrameSample(blob_col, frame_bytes, every_n),
                          batch_format="pyarrow", batch_size=64)


try:  # pragma: no cover - not present in this container
    import soundfile  # noqa: F401
    _HAVE_SF = True
except ImportError:
    _HAVE_SF = False


def _decode_audio_real(blob: bytes, n_samples: int = 1024) -> np.ndarray:
    """soundfile decode → mono int16 PCM, truncated/padded to n_samples.
    Only reachable when soundfile imports (``_HAVE_SF``)."""
    import io

    import soundfile as sf
    data, _sr = sf.read(io.BytesIO(blob), dtype="int16")
    if data.ndim > 1:
        data = data[:, 0]
    out = np.zeros(n_samples, dtype=np.int16)
    out[:min(len(data), n_samples)] = data[:n_samples]
    return out


def _decode_audio_fake(blob: bytes, n_samples: int = 1024) -> np.ndarray:
    """Deterministic PCM stand-in: sample i is bits 48..63 of
    seed·(i+1) mod 2⁶⁴ reinterpreted as signed int16 (seed = first 8
    bytes of the blob's sha256) — same HUGEINT-SQL-expressible design as
    _decode_image_fake, so the audio path carries a value-hash oracle."""
    seed = np.uint64(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))
    i = np.arange(1, n_samples + 1, dtype=np.uint64)
    u16 = ((seed * i) >> np.uint64(48)).astype(np.uint16)
    return u16.view(np.int16).copy()


class DecodeAudio:
    """binary column → fixed-length int16 PCM column + sample-count
    metadata (the audio twin of DecodeImages; same real/fake dispatch and
    64-row binary batch discipline)."""

    def __init__(self, blob_col: str = "payload", out_col: str = "pcm",
                 n_samples: int = 1024, require_real: bool = False):
        if require_real and not _HAVE_SF:
            raise NotImplementedError(
                "real audio decode needs soundfile, which is not installed; "
                "run with require_real=False for the deterministic stub")
        self.blob_col, self.out_col = blob_col, out_col
        self.n_samples = n_samples
        self.real = _HAVE_SF and require_real

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch[self.blob_col].to_pylist()
        decode = _decode_audio_real if self.real else _decode_audio_fake
        arrs = [decode(b, self.n_samples) for b in blobs]
        cols = {name: batch[name] for name in batch.column_names}
        cols[self.out_col] = pa.array([a.tobytes() for a in arrs],
                                      type=pa.binary())
        cols["n_samples"] = pa.array([self.n_samples] * len(blobs),
                                     type=pa.int32())
        cols["decoder"] = pa.array(
            ["real" if self.real else "fake"] * len(blobs))
        return pa.table(cols)


class AudioFeatures:
    """PCM column → exact integer signal features: amplitude sum /
    sum-of-squares (→ dyadic-exact mean / power) and zero-crossing count.
    Integer moments → order-independent, hashable against SQL."""

    def __init__(self, pcm_col: str = "pcm"):
        self.pcm_col = pcm_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sums, sumsqs, zcs = [], [], []
        for blob in batch[self.pcm_col].to_pylist():
            a = np.frombuffer(blob, dtype=np.int16).astype(np.int64)
            sums.append(int(a.sum()))
            sumsqs.append(int((a * a).sum()))
            zcs.append(int(((a[:-1] < 0) != (a[1:] < 0)).sum()))
        cols = {name: batch[name] for name in batch.column_names}
        cols["amp_sum"] = pa.array(sums, type=pa.int64())
        cols["amp_sumsq"] = pa.array(sumsqs, type=pa.int64())
        cols["zero_crossings"] = pa.array(zcs, type=pa.int64())
        return pa.table(cols)


def decode_audio(ds: ray.data.Dataset, blob_col: str = "payload",
                 n_samples: int = 1024,
                 batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(DecodeAudio(blob_col=blob_col, n_samples=n_samples),
                          batch_format="pyarrow", batch_size=batch_size)


def audio_features(ds: ray.data.Dataset,
                   batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(AudioFeatures(), batch_format="pyarrow",
                          batch_size=batch_size)


try:  # pragma: no cover - not present in this container
    import av  # noqa: F401
    _HAVE_AV = True
except ImportError:
    _HAVE_AV = False

_VMIX = np.uint64(0x9E3779B97F4A7C15)  # frame-seed mixer (splitmix gamma)


def _decode_video_real(blob: bytes, hw=(8, 8), every_n: int = 2):
    """PyAV demux+decode → (sampled frames, container total): every Nth
    frame as an RGB (h, w, 3) uint8 array, plus the TOTAL frame count
    (the decode loop sees every frame anyway) — same return contract as
    the fake. Only reachable when ``av`` imports (``_HAVE_AV``)."""
    import io

    import av as _av
    out = []
    n_frames = 0
    with _av.open(io.BytesIO(blob)) as container:
        for f, frame in enumerate(container.decode(video=0)):
            n_frames = f + 1
            if f % every_n:
                continue
            img = frame.to_image().convert("RGB").resize((hw[1], hw[0]))
            out.append((f, np.asarray(img, dtype=np.uint8)))
    return out, n_frames


def _decode_video_fake(blob: bytes, hw=(8, 8), frame_bytes: int = 64,
                       every_n: int = 2):
    """Deterministic container stand-in: the blob 'demuxes' into
    ``max(len(blob)//frame_bytes, 1)`` frames; frame f's pixels follow the
    image-fake rule with a per-frame seed ``sha_seed XOR ((f+1)·MIX)`` —
    every step (sha256 head, xor, multiply-shift) is HUGEINT-SQL
    expressible, so the stubbed video path carries a value-hash oracle
    exactly like the image/audio fakes."""
    h, w = hw
    need = h * w * 3
    n_frames = max(len(blob) // frame_bytes, 1)
    seed = np.uint64(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))
    i = np.arange(1, need + 1, dtype=np.uint64)
    # array ops (not numpy scalars): uint64 wraparound is the point, and
    # scalar ops emit a RuntimeWarning per intended overflow
    f_arr = np.arange(0, n_frames, every_n, dtype=np.uint64)
    fs_arr = seed ^ ((f_arr + np.uint64(1)) * _VMIX)
    out = []
    for f, fs in zip(f_arr, fs_arr):
        out.append((int(f), ((fs * i) >> np.uint64(56))
                    .astype(np.uint8).reshape(h, w, 3)))
    return out, n_frames


class DecodeVideo:
    """binary video-container column → one row per SAMPLED frame with the
    SAME frame schema DecodeImages emits (pixels/height/width/channels/
    decoder, plus frame_idx and the container's n_frames) — so
    ImageFeatures and every downstream image stage compose unchanged.

    Real path requires PyAV (raises NotImplementedError if requested
    without it); fake path is deterministic and marks rows decoder='fake'.
    Same 64-row binary batch discipline as the other decoders; the output
    fan-out is frames-per-container × rows."""

    def __init__(self, blob_col: str = "payload", id_col: str = "doc_id",
                 hw=(8, 8), frame_bytes: int = 64, every_n: int = 2,
                 require_real: bool = False):
        if require_real and not _HAVE_AV:
            raise NotImplementedError(
                "real video decode needs PyAV, which is not installed; "
                "run with require_real=False for the deterministic stub")
        self.blob_col, self.id_col, self.hw = blob_col, id_col, hw
        self.frame_bytes, self.every_n = frame_bytes, every_n
        self.real = _HAVE_AV and require_real

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        out_id, out_f, out_n, out_px = [], [], [], []
        for ident, blob in zip(ids, batch[self.blob_col].to_pylist()):
            if self.real:
                frames, n_frames = _decode_video_real(blob, self.hw,
                                                      self.every_n)
            else:
                frames, n_frames = _decode_video_fake(
                    blob, self.hw, self.frame_bytes, self.every_n)
            for f, arr in frames:
                out_id.append(ident)
                out_f.append(f)
                out_n.append(n_frames)
                out_px.append(arr.tobytes())
        n = len(out_id)
        return pa.table({
            self.id_col: pa.array(out_id),
            "frame_idx": pa.array(out_f, type=pa.int32()),
            "n_frames": pa.array(out_n, type=pa.int32()),
            "pixels": pa.array(out_px, type=pa.binary()),
            "height": pa.array([self.hw[0]] * n, type=pa.int32()),
            "width": pa.array([self.hw[1]] * n, type=pa.int32()),
            "channels": pa.array([3] * n, type=pa.int32()),
            "decoder": pa.array(["real" if self.real else "fake"] * n),
        })


def decode_video(ds: ray.data.Dataset, blob_col: str = "payload",
                 id_col: str = "doc_id", hw=(8, 8), frame_bytes: int = 64,
                 every_n: int = 2, batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(
        DecodeVideo(blob_col=blob_col, id_col=id_col, hw=hw,
                    frame_bytes=frame_bytes, every_n=every_n),
        batch_format="pyarrow", batch_size=batch_size)

"""Acoustic frontend: MFCC extraction, energy VAD and sliding-window CMN.

Converts raw audio into voiced, mean-normalized cepstral feature matrices,
float64 arrays of shape (frames, cepstra).  The defaults target
telephone-band speech (any sample rate works): 25 ms frames at a 10 ms
shift, 23 triangular mel filters between 20 Hz and Nyquist, 23 cepstra with
the zeroth coefficient kept as an energy proxy.

Nothing loops per frame: frames are strided views, windowed in one product
and zero-padded by the FFT, and sliding CMN is one indexed cumulative sum.  The
window, filterbank and DCT tables are cached read-only per frame length,
filter count, cepstrum count and sample rate.  Features are bit-identical to
the per-frame loops kept as an oracle in ``tests/test_frontend.py``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-10
MEL_LOW_HZ = 20.0


@dataclass
class Waveform:
    """Mono audio signal with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("invalid signal: sample rate must be positive")


@dataclass
class FrontendConfig:
    """Frame, filterbank, normalization and VAD settings.

    ``vad_energy_offset`` shifts the speech threshold relative to the mean
    log energy of the utterance; 0 keeps frames above the mean.
    """

    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    preemphasis: float = 0.97
    n_mel_filters: int = 23
    n_cepstra: int = 23
    cmn_window_s: float = 3.0
    vad_energy_offset: float = 0.0

    def __post_init__(self):
        for name in ("frame_length_ms", "frame_shift_ms", "preemphasis", "cmn_window_s",
                     "vad_energy_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.frame_length_ms > self.frame_shift_ms > 0):
            raise ValueError("frame_length_ms must exceed frame_shift_ms, both positive")
        if not 1 <= self.n_cepstra <= self.n_mel_filters:
            raise ValueError(f"n_cepstra is {self.n_cepstra}, needs 1 to n_mel_filters "
                             f"= {self.n_mel_filters}")
        if self.cmn_window_s <= 0:
            raise ValueError("cmn_window_s must be positive")


_PCM, _EXTENSIBLE = 1, 0xFFFE       # WAVE format tags


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono WAV file, scaling samples to [-1, 1].

    Raises ValueError naming the file when it is not RIFF/WAVE, lacks a
    ``fmt `` chunk before its ``data`` chunk, is not 16-bit mono integer PCM
    (format tag 1, or an extensible header with a PCM subformat), declares a
    sample rate of 0, or its data chunk is cut short.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt = 12, None
    while pos + 8 <= len(blob):
        chunk, size = struct.unpack_from("<4sI", blob, pos)
        pos += 8
        if chunk == b"fmt ":
            if size < 16 or pos + size > len(blob):
                raise ValueError(f"{path}: fmt chunk cut short")
            fmt = struct.unpack_from("<HHIIHH", blob, pos)
            if fmt[0] == _EXTENSIBLE and size >= 26:
                fmt = (struct.unpack_from("<H", blob, pos + 24)[0], *fmt[1:])
        elif chunk == b"data":
            if fmt is None:
                raise ValueError(f"{path}: no fmt chunk before the data chunk")
            tag, channels, rate, _, _, bits = fmt
            if tag != _PCM:
                raise ValueError(f"{path}: WAVE format tag {tag:#x} is not integer PCM")
            if bits != 16:
                raise ValueError(f"{path}: expected 16-bit PCM, got {bits}-bit")
            if channels != 1:
                raise ValueError(f"{path}: expected mono audio, got {channels} channels")
            if rate == 0:
                raise ValueError(f"{path}: sample rate must be positive")
            if pos + size > len(blob):
                raise ValueError(f"{path}: data chunk cut short: "
                                 f"{len(blob) - pos} of {size} bytes")
            data = np.frombuffer(blob, dtype="<i2", count=size // 2, offset=pos)
            return Waveform(data / 32768.0, rate)
        pos += size + (size & 1)           # chunks are word-aligned
    raise ValueError(f"{path}: no {'fmt' if fmt is None else 'data'} chunk")


def frame_count(n_samples: int, frame_len: int, frame_shift: int) -> int:
    """Number of full analysis frames: floor((N - len) / shift) + 1."""
    if n_samples < frame_len:
        return 0
    return (n_samples - frame_len) // frame_shift + 1


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def inverse_mel_scale(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank weights of shape (n_filters, n_fft//2 + 1).

    Filter edges are spaced uniformly on the mel scale between ``MEL_LOW_HZ``
    and Nyquist; weights are evaluated at the continuous bin frequencies, so
    no filter collapses to zero width.
    """
    mel_points = np.linspace(mel_scale(MEL_LOW_HZ), mel_scale(sample_rate / 2.0),
                             n_filters + 2)
    hz_points = inverse_mel_scale(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    weights = np.zeros((n_filters, n_fft // 2 + 1))
    for m in range(n_filters):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
    return weights


def _dct_basis(n: int, k: int) -> np.ndarray:
    """(n, k) orthonormal DCT-II basis: column j is sqrt(2/n) cos(pi j (2i + 1) / 2n)
    over rows i, column 0 scaled by 1/sqrt(2), so ``x @ _dct_basis(n, k)`` is the
    first k coefficients of x's orthonormal DCT-II."""
    basis = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * np.outer(2 * np.arange(n) + 1,
                                                                 np.arange(k)))
    basis[:, 0] /= np.sqrt(2.0)
    return basis


@functools.lru_cache(maxsize=16)
def _mfcc_tables(frame_len: int, n_filters: int, n_cepstra: int, sample_rate: int):
    """Read-only zero-padded Hamming window, transposed mel filterbank, DCT basis."""
    window = np.zeros(1 << (frame_len - 1).bit_length())    # next power of two
    window[:frame_len] = np.hamming(frame_len)
    fbank = mel_filterbank(n_filters, window.size, sample_rate)
    dct = _dct_basis(n_filters, n_cepstra)
    for table in (window, fbank, dct):
        table.flags.writeable = False
    return window, fbank.T, dct


def compute_mfcc(waveform: Waveform, cfg: FrontendConfig) -> np.ndarray:
    """Mel-frequency cepstra of a waveform, one row per frame.

    Pipeline: pre-emphasis -> Hamming window -> magnitude spectrum ->
    mel filterbank -> log (floored) -> orthonormal DCT-II.  The zeroth
    cepstrum is retained as a log-energy proxy in column 0.

    Raises ValueError for non-finite samples or a sample rate that rounds
    the frame shift to 0 samples ("invalid signal"), or for a waveform
    shorter than one frame ("input too short").
    """
    samples = waveform.samples
    if samples.ndim != 1:
        raise ValueError("invalid signal: expected a 1-D sample sequence")
    if not np.all(np.isfinite(samples)):
        raise ValueError("invalid signal: non-finite samples")
    rate = waveform.sample_rate
    frame_len = int(round(cfg.frame_length_ms * rate / 1000.0))
    frame_shift = int(round(cfg.frame_shift_ms * rate / 1000.0))
    if frame_shift < 1:            # frame_len >= frame_shift: it rounds a longer time
        raise ValueError(f"invalid signal: at {rate} Hz the {cfg.frame_shift_ms:g} ms "
                         f"frame shift is {frame_shift} samples, under one")
    if frame_count(samples.size, frame_len, frame_shift) < 1:
        raise ValueError(f"input too short: {samples.size} samples < one {frame_len}-sample frame")

    window, fbank_t, dct = _mfcc_tables(frame_len, cfg.n_mel_filters, cfg.n_cepstra, rate)
    emphasized = samples
    if cfg.preemphasis > 0:
        emphasized = np.empty_like(samples)
        emphasized[0] = samples[0]
        np.multiply(samples[:-1], cfg.preemphasis, out=emphasized[1:])
        np.subtract(samples[1:], emphasized[1:], out=emphasized[1:])
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, frame_len)[::frame_shift]
    magnitude = np.abs(np.fft.rfft(frames * window[:frame_len], n=window.size, axis=1))
    log_energies = np.log(np.maximum(magnitude @ fbank_t, LOG_FLOOR))
    return log_energies @ dct


def energy_vad(features: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """Boolean speech mask from the log-energy column.

    A frame counts as speech when column 0 exceeds the utterance mean plus
    ``vad_energy_offset``.  The loudest frame is always retained so that
    degenerate utterances keep at least one frame.
    """
    energy = features[:, 0]
    threshold = energy.mean() + cfg.vad_energy_offset
    mask = energy > threshold
    mask[int(np.argmax(energy))] = True
    return mask


def sliding_cmn(features: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """Subtract a sliding per-dimension mean from every frame.

    The window holds ``cmn_window_s`` worth of frames at ``frame_shift_ms``,
    centered on the current frame and pinned inside the utterance at the
    edges; utterances shorter than the window get plain global mean
    subtraction (which makes the op idempotent there).
    """
    t = features.shape[0]
    window = int(round(cfg.cmn_window_s * 1000.0 / cfg.frame_shift_ms))
    window = max(1, min(window, t))
    half = window // 2
    cumsum = np.zeros((t + 1, features.shape[1]))
    np.cumsum(features, axis=0, out=cumsum[1:])
    start = np.clip(np.arange(t) - half, 0, t - window)
    return features - (cumsum[start + window] - cumsum[start]) / window


def voiced_features(waveform: Waveform, cfg: FrontendConfig,
                    apply_vad: bool = True, apply_cmn: bool = True) -> np.ndarray:
    """Full frontend: MFCC, then VAD frame selection, then sliding CMN.

    Selecting voiced frames before normalization keeps the surviving
    frames' values independent of any discarded silence.
    """
    feats = compute_mfcc(waveform, cfg)
    if apply_vad:
        feats = feats[energy_vad(feats, cfg)]
    if apply_cmn:
        feats = sliding_cmn(feats, cfg)
    return feats

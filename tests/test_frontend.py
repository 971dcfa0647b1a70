"""Frontend contracts: frame arithmetic, a brute-force DFT oracle for the
filterbank path, the DCT basis and the WAV reader against scipy,
VAD threshold behavior, and windowed-mean oracles for CMN."""

import struct

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from spkver import frontend as fe


def sine(freq_hz, seconds, rate, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return fe.Waveform(amp * np.sin(2 * np.pi * freq_hz * t), rate)


# ---------------------------------------------------------------------------
# compute_mfcc


def test_frame_count_one_second_16k():
    assert fe.compute_mfcc(sine(300, 1.0, 16000), fe.FrontendConfig()).shape == (98, 23)


@settings(max_examples=60, deadline=None)
@given(st.integers(200, 20000), st.integers(80, 400), st.integers(40, 79))
def test_frame_count_formula(n, frame_len, frame_shift):
    assert fe.frame_count(n, frame_len, frame_shift) == (
        (n - frame_len) // frame_shift + 1 if n >= frame_len else 0)


def test_all_zero_waveform_identical_frames():
    wave = fe.Waveform(np.zeros(8000), 8000)
    feats = fe.compute_mfcc(wave, fe.FrontendConfig())
    assert np.all(np.isfinite(feats))
    assert np.allclose(feats, feats[0])


def test_too_short_and_nonfinite_inputs():
    with pytest.raises(ValueError, match="input too short"):
        fe.compute_mfcc(fe.Waveform(np.zeros(50), 8000), fe.FrontendConfig())
    bad = np.zeros(4000)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="invalid signal"):
        fe.compute_mfcc(fe.Waveform(bad, 8000), fe.FrontendConfig())


def test_mfcc_deterministic():
    wave = sine(440, 0.5, 8000)
    a = fe.compute_mfcc(wave, fe.FrontendConfig())
    b = fe.compute_mfcc(wave, fe.FrontendConfig())
    assert np.array_equal(a, b)


def test_sine_peaks_in_filter_covering_tone_dft_oracle():
    """Filterbank energies computed with a naive DFT match the pipeline's
    spectrum path, and the strongest filter covers the tone frequency."""
    rate, tone = 8000, 1000.0
    cfg = fe.FrontendConfig()
    wave = sine(tone, 0.3, rate)
    frame_len = int(round(cfg.frame_length_ms * rate / 1000))
    frame_shift = int(round(cfg.frame_shift_ms * rate / 1000))
    n_fft = 256

    samples = wave.samples
    emphasized = np.concatenate([samples[:1], samples[1:] - cfg.preemphasis * samples[:-1]])
    frame = emphasized[5 * frame_shift : 5 * frame_shift + frame_len] * np.hamming(frame_len)

    # O(N^2) DFT straight from the definition.
    n = np.arange(n_fft)
    padded = np.zeros(n_fft)
    padded[:frame_len] = frame
    bins = np.arange(n_fft // 2 + 1)
    dft = np.array([np.sum(padded * np.exp(-2j * np.pi * k * n / n_fft)) for k in bins])
    fbank = fe.mel_filterbank(cfg.n_mel_filters, n_fft, rate)
    oracle_energies = np.abs(dft) @ fbank.T

    pipeline_energies = np.abs(np.fft.rfft(frame, n=n_fft)) @ fbank.T
    assert np.allclose(oracle_energies, pipeline_energies, rtol=1e-8, atol=1e-10)

    strongest = int(np.argmax(oracle_energies))
    edges = fe.inverse_mel_scale(np.linspace(fe.mel_scale(fe.MEL_LOW_HZ), fe.mel_scale(rate / 2),
                                             cfg.n_mel_filters + 2))
    assert edges[strongest] <= tone <= edges[strongest + 2]


@pytest.mark.parametrize("n,k", [(23, 23), (23, 13), (40, 20)])
def test_dct_basis_matches_scipy_orthonormal_dct(n, k):
    log_energies = np.random.default_rng(n + k).uniform(-23.0, 10.0, (50, n))
    expected = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)[:, :k]
    assert np.abs(log_energies @ fe._dct_basis(n, k) - expected).max() <= 1e-13


# ---------------------------------------------------------------------------
# energy_vad


def test_vad_mean_separates():
    feats = np.array([[0.0], [0.0], [10.0], [10.0]])
    mask = fe.energy_vad(feats, fe.FrontendConfig(vad_energy_offset=0.0))
    assert mask.tolist() == [False, False, True, True]


def test_vad_constant_energy():
    feats = np.full((6, 1), 3.0)
    mask = fe.energy_vad(feats, fe.FrontendConfig(vad_energy_offset=0.0))
    assert mask.sum() == 1          # retain-loudest rule
    mask = fe.energy_vad(feats, fe.FrontendConfig(vad_energy_offset=-0.5))
    assert mask.all()


def test_vad_matches_threshold_oracle():
    rng = np.random.default_rng(0)
    energy = rng.standard_normal(50)
    feats = np.column_stack([energy, rng.standard_normal(50)])
    offset = 0.3
    mask = fe.energy_vad(feats, fe.FrontendConfig(vad_energy_offset=offset))
    expected = energy > (energy.mean() + offset)
    expected[np.argmax(energy)] = True
    assert np.array_equal(mask, expected)


def test_vad_depends_only_on_column0_and_offset():
    rng = np.random.default_rng(1)
    energy = rng.standard_normal(30)
    a = np.column_stack([energy, rng.standard_normal(30)])
    b = np.column_stack([energy, 100 * rng.standard_normal(30)])
    cfg = fe.FrontendConfig(vad_energy_offset=0.1)
    assert np.array_equal(fe.energy_vad(a, cfg), fe.energy_vad(b, cfg))


# ---------------------------------------------------------------------------
# sliding_cmn


def test_cmn_constant_input_zeroed():
    feats = np.full((40, 3), 7.0)
    assert np.allclose(fe.sliding_cmn(feats, fe.FrontendConfig()), 0.0)


def test_cmn_short_utterance_is_global_and_idempotent():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((120, 4))   # 1.2 s < 3 s window
    out = fe.sliding_cmn(feats, fe.FrontendConfig())
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out, feats - feats.mean(axis=0))
    again = fe.sliding_cmn(out, fe.FrontendConfig())
    assert np.max(np.abs(again - out)) < 1e-10


def test_cmn_matches_windowed_mean_oracle():
    """10 s ramp: direct O(T*W) per-frame windowed-mean subtraction."""
    t, d = 1000, 2
    values = np.column_stack([np.linspace(0, 5, t), np.linspace(-1, 1, t) ** 2])
    cfg = fe.FrontendConfig(cmn_window_s=3.0)
    out = fe.sliding_cmn(values, cfg)

    window = 300
    half = window // 2
    expected = np.empty_like(values)
    for i in range(t):
        start = min(max(i - half, 0), t - window)
        expected[i] = values[i] - values[start : start + window].mean(axis=0)
    assert np.allclose(out, expected, atol=1e-12)


def test_cmn_output_finite_on_finite_input():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((500, 23)) * 100
    assert np.all(np.isfinite(fe.sliding_cmn(feats, fe.FrontendConfig())))


# ---------------------------------------------------------------------------
# composition and WAV I/O


def test_voiced_features_pipeline_and_wav_roundtrip(tmp_path):
    rate = 8000
    rng = np.random.default_rng(4)
    speech = 0.4 * np.sin(2 * np.pi * 700 * np.arange(rate) / rate)
    speech += 0.05 * rng.standard_normal(rate)
    wave = fe.Waveform(speech, rate)
    path = tmp_path / "utt.wav"
    wavfile.write(path, rate, (np.clip(speech, -1.0, 1.0) * 32767.0).astype(np.int16))
    loaded = fe.read_wav(path)
    assert loaded.sample_rate == rate
    assert np.max(np.abs(loaded.samples - wave.samples)) < 1e-3   # 16-bit quantization

    feats = fe.voiced_features(loaded, fe.FrontendConfig())
    assert feats.shape[0] >= 1 and feats.shape[1] == 23
    assert np.all(np.isfinite(feats))


@pytest.mark.parametrize("rate,n", [(8000, 8000), (16000, 1), (44100, 12345), (8000, 0)])
def test_read_wav_matches_scipy_reader(tmp_path, rate, n):
    data = np.random.default_rng(n).integers(-32768, 32768, n).astype(np.int16)
    data[:2] = (-32768, 32767)[: min(n, 2)]
    path = tmp_path / "in.wav"
    wavfile.write(path, rate, data)
    expected_rate, expected = wavfile.read(path)
    loaded = fe.read_wav(path)
    assert loaded.sample_rate == expected_rate == rate
    assert np.array_equal(loaded.samples, expected.astype(np.float64) / 32768.0)


def test_read_wav_skips_other_chunks_and_reads_extensible_pcm(tmp_path):
    samples = np.array([0, 1, -2, 32767, -32768], dtype="<i2")
    fmt = (struct.pack("<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 4)
           + struct.pack("<H", 1) + bytes(14))            # PCM subformat GUID
    body = (b"WAVE" + b"LIST" + struct.pack("<I", 3) + b"abc\0"   # odd chunk, padded
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", samples.nbytes) + samples.tobytes())
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    loaded = fe.read_wav(path)
    assert loaded.sample_rate == 8000
    assert np.array_equal(loaded.samples, samples / 32768.0)


# ---------------------------------------------------------------------------
# bit-identity with the per-frame loops


def loop_voiced_features(wave, cfg):
    """The frontend as per-frame loops with every table built per call: a
    frame list, a fresh window, filterbank and DCT basis, and a CMN loop."""
    samples, rate = wave.samples, wave.sample_rate
    frame_len = int(round(cfg.frame_length_ms * rate / 1000.0))
    frame_shift = int(round(cfg.frame_shift_ms * rate / 1000.0))
    n_frames = fe.frame_count(samples.size, frame_len, frame_shift)
    if cfg.preemphasis > 0:
        samples = np.concatenate([samples[:1], samples[1:] - cfg.preemphasis * samples[:-1]])
    frames = np.stack([samples[s : s + frame_len] for s in np.arange(n_frames) * frame_shift])
    frames = frames * np.hamming(frame_len)
    n_fft = 1
    while n_fft < frame_len:
        n_fft *= 2
    magnitude = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))
    energies = magnitude @ fe.mel_filterbank(cfg.n_mel_filters, n_fft, rate).T
    values = (np.log(np.maximum(energies, fe.LOG_FLOOR))
              @ fe._dct_basis(cfg.n_mel_filters, cfg.n_cepstra))
    values = values[fe.energy_vad(values, cfg)]

    t = values.shape[0]
    window = max(1, min(int(round(cfg.cmn_window_s * 1000.0 / cfg.frame_shift_ms)), t))
    half = window // 2
    cumsum = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    out = np.empty_like(values)
    for i in range(t):
        start = min(max(i - half, 0), t - window)
        out[i] = values[i] - (cumsum[start + window] - cumsum[start]) / window
    return out


LENGTHS = {"one-frame": lambda rate: rate // 40,              # exactly one 25 ms frame
           "ragged": lambda rate: 9 * rate + rate // 100 - 3,  # not a multiple of the shift
           "under-cmn-window": lambda rate: 6 * rate // 5}     # 1.2 s < the 3 s window


@pytest.mark.parametrize("length", sorted(LENGTHS))
@pytest.mark.parametrize("n_cepstra", [13, 23])
@pytest.mark.parametrize("preemphasis", [0.0, 0.97])
@pytest.mark.parametrize("rate", [8000, 16000])
def test_voiced_features_bit_identical_to_per_frame_loops(rate, preemphasis, n_cepstra,
                                                          length):
    n = LENGTHS[length](rate)
    rng = np.random.default_rng([rate, n_cepstra, n])
    gain = np.repeat(rng.uniform(0.01, 1.0, n // 400 + 1), 400)[:n]   # voiced and quiet stretches
    wave = fe.Waveform(gain * rng.standard_normal(n), rate)
    cfg = fe.FrontendConfig(preemphasis=preemphasis, n_cepstra=n_cepstra)
    expected = loop_voiced_features(wave, cfg)
    assert length != "one-frame" or expected.shape[0] == 1
    assert length != "ragged" or expected.shape[0] > 300     # the window slides
    assert np.array_equal(fe.voiced_features(wave, cfg), expected)


def test_mfcc_tables_are_read_only():
    for table in fe._mfcc_tables(200, 23, 13, 8000):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_alternating_rates_match_fresh_tables():
    waves = [sine(440, 1.5, 8000), sine(440, 1.5, 16000)]
    fresh = []
    for wave in waves:
        fe._mfcc_tables.cache_clear()
        fresh.append(fe.voiced_features(wave, fe.FrontendConfig()))
    for _ in range(2):
        for wave, expected in zip(waves, fresh):
            assert np.array_equal(fe.voiced_features(wave, fe.FrontendConfig()), expected)

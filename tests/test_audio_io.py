"""Tests for WAV parsing and the vowel synthesizer."""

import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from speechbp import audio_io
from speechbp.audio_io import (AudioClip, load_wav, synthesize_speech,
                               write_wav)
from speechbp.dsp import fft_magnitude, gaussian_window
from speechbp.errors import MalformedArtifact


def wav_bytes(samples_int16, sample_rate=48000, channels=1, audio_format=1,
              bits=16, data_size=None, magic=b"RIFF", wave_id=b"WAVE",
              fmt_extension=b""):
    """Hand-assemble a WAV file so each header field can be corrupted.

    fmt_extension follows the 16 bytes of the basic fmt chunk."""
    payload = np.asarray(samples_int16, dtype="<i2").tobytes()
    if data_size is None:
        data_size = len(payload)
    block_align = channels * bits // 8
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16 + len(fmt_extension),
                                audio_format, channels, sample_rate,
                                sample_rate * block_align, block_align,
                                bits) + fmt_extension
    data = b"data" + struct.pack("<I", data_size) + payload
    body = wave_id + fmt + data
    return magic + struct.pack("<I", len(body)) + body


class TestLoadWav:
    def test_minimal_mono(self, tmp_path):
        p = tmp_path / "m.wav"
        p.write_bytes(wav_bytes([0, 16384, -16384]))
        clip = load_wav(p)
        assert clip.sample_rate == 48000
        assert clip.source_channels == 1
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -0.5])

    def test_stereo_downmix_symmetric(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(wav_bytes([32767, -32767, 32767, -32767], channels=2))
        clip = load_wav(p)
        assert clip.source_channels == 2
        np.testing.assert_array_equal(clip.samples, [0.0, 0.0])

    def test_stereo_downmix_matches_mean_of_scaled_channels(self, tmp_path):
        # distinct full-range channels, both extremes on each side
        rng = np.random.default_rng(4)
        ints = np.concatenate([
            [-32768, 32767, 32767, -32768, -32768, -32768, 32767, 32767,
             0, -1, -1, 1, 1, -32768],
            rng.integers(-32768, 32768, size=20000)])
        p = tmp_path / "d.wav"
        p.write_bytes(wav_bytes(ints, channels=2))
        want = (ints.astype(np.float64) / 32768.0).reshape(-1, 2).mean(axis=1)
        assert load_wav(p).samples.tobytes() == want.tobytes()

    def test_traced_peak_per_sample(self, tmp_path):
        # 10 s of 48 kHz stereo: the file's bytes and one float64 per output
        # sample with its scaled result fit; a copy of the data chunk or
        # float64 channels before the downmix do not
        rng = np.random.default_rng(6)
        n = 480_000
        p = tmp_path / "long.wav"
        p.write_bytes(wav_bytes(rng.integers(-32768, 32768, size=2 * n),
                                channels=2))
        tracemalloc.start()
        try:
            clip = load_wav(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clip.samples) == n
        assert peak <= 16 * n

    def test_full_scale_negative(self, tmp_path):
        p = tmp_path / "n.wav"
        p.write_bytes(wav_bytes([-32768]))
        assert load_wav(p).samples[0] == -1.0

    def test_rifx_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(wav_bytes([0, 1], magic=b"RIFX"))
        with pytest.raises(MalformedArtifact, match="not a little-endian"):
            load_wav(p)

    def test_not_wave_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(wav_bytes([0, 1], wave_id=b"AVI "))
        with pytest.raises(MalformedArtifact, match="not a little-endian"):
            load_wav(p)

    def test_truncated_data_chunk(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([1, 2, 3], data_size=4096))
        with pytest.raises(MalformedArtifact,
                           match="declares 4096 bytes, only 6 present"):
            load_wav(p)

    @pytest.mark.parametrize("kwargs", [
        {"bits": 8}, {"bits": 24}, {"audio_format": 3}, {"channels": 4},
    ])
    def test_unsupported_encodings(self, tmp_path, kwargs):
        p = tmp_path / "u.wav"
        p.write_bytes(wav_bytes([0, 1], **kwargs))
        match = {"bits": "16-bit samples required",
                 "audio_format": "PCM format code 1 required",
                 "channels": "expected 1 or 2 channels"}[next(iter(kwargs))]
        with pytest.raises(MalformedArtifact, match=match):
            load_wav(p)

    def test_missing_chunks(self, tmp_path):
        p = tmp_path / "m.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
        with pytest.raises(MalformedArtifact,
                           match="missing fmt or data chunk"):
            load_wav(p)

    def test_skips_unknown_chunks(self, tmp_path):
        raw = wav_bytes([100, -100])
        # splice a LIST chunk between fmt and data
        head, data = raw[:44 - 8], raw[44 - 8:]
        extra = b"LIST" + struct.pack("<I", 6) + b"noise\x00"
        p = tmp_path / "l.wav"
        p.write_bytes(head + extra + data)
        clip = load_wav(p)
        assert len(clip.samples) == 2


def extensible(samples_int16, channels, subformat):
    """A WAVE_FORMAT_EXTENSIBLE file: cbSize 22, 16 valid bits, the front
    speakers as channel mask, then the subformat GUID."""
    mask = 0x4 if channels == 1 else 0x3
    return wav_bytes(samples_int16, channels=channels, audio_format=0xFFFE,
                     fmt_extension=struct.pack("<HHI", 22, 16, mask)
                     + subformat)


# the GUID tail shared by the KSDATAFORMAT_SUBTYPE_* formats
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


class TestExtensibleFormat:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_pcm_subformat_reads_as_format_1(self, tmp_path, channels):
        ints = np.random.default_rng(channels).integers(-32768, 32768,
                                                        size=2 * 999)
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(ints, channels=channels))
        ext.write_bytes(extensible(ints, channels, b"\x01\x00" + GUID_TAIL))
        want, got = load_wav(plain), load_wav(ext)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got.sample_rate, got.source_channels) == (48000, channels)

    def test_float_subformat_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(extensible([0, 1], 1, b"\x03\x00" + GUID_TAIL))
        with pytest.raises(MalformedArtifact) as info:
            load_wav(p)
        assert str(info.value) == (
            f"{p}: extensible format needs the PCM subformat, got "
            f"0300{GUID_TAIL.hex()} in a 40-byte fmt chunk")

    def test_short_extensible_chunk_rejected(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(wav_bytes([0, 1], audio_format=0xFFFE,
                                fmt_extension=struct.pack("<H", 0)))
        with pytest.raises(MalformedArtifact,
                           match="got none in a 18-byte fmt chunk"):
            load_wav(p)

    def test_bits_still_checked(self, tmp_path):
        p = tmp_path / "b.wav"
        raw = bytearray(extensible([0, 1], 1, b"\x01\x00" + GUID_TAIL))
        struct.pack_into("<H", raw, 34, 24)  # the fmt chunk's bit depth
        p.write_bytes(bytes(raw))
        with pytest.raises(MalformedArtifact,
                           match="16-bit samples required, got 24"):
            load_wav(p)


class TestWriteRoundTrip:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_quantization_bound(self, tmp_path, channels):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, size=4000)
        p = tmp_path / "r.wav"
        write_wav(p, x, 48000, channels=channels)
        clip = load_wav(p)
        assert clip.source_channels == channels
        assert np.max(np.abs(clip.samples - x)) <= 1.0 / 32768.0

    def test_downmix_is_linear(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.integers(-8000, 8000, size=64)
        b = rng.integers(-8000, 8000, size=64)
        clips = {}
        for name, ints in {"a": a, "b": b, "ab": a + b}.items():
            interleaved = np.repeat(ints, 2).astype(np.int16)
            p = tmp_path / f"{name}.wav"
            p.write_bytes(wav_bytes(list(interleaved), channels=2))
            clips[name] = load_wav(p).samples
        np.testing.assert_array_equal(clips["a"] + clips["b"], clips["ab"])


class TestSynthesize:
    FORMANTS = [(700.0, 1.0), (1200.0, 0.6)]

    def test_length(self):
        clip = synthesize_speech(120.0, self.FORMANTS, 2.0, 48000, seed=0)
        assert len(clip.samples) == 96000
        assert clip.duration_s == pytest.approx(2.0)

    def test_deterministic(self):
        a = synthesize_speech(120.0, self.FORMANTS, 0.5, 48000, seed=9)
        b = synthesize_speech(120.0, self.FORMANTS, 0.5, 48000, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seed_changes_signal(self):
        a = synthesize_speech(120.0, self.FORMANTS, 0.5, 48000, seed=1)
        b = synthesize_speech(120.0, self.FORMANTS, 0.5, 48000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_peak_normalized(self):
        clip = synthesize_speech(200.0, self.FORMANTS, 0.3, 48000, seed=4)
        assert np.max(np.abs(clip.samples)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("f0", [10.0, 59.9, 400.1, 2000.0])
    def test_invalid_f0(self, f0):
        with pytest.raises(ValueError, match=r"outside \[60.0, 400.0\]"):
            synthesize_speech(f0, self.FORMANTS, 1.0, 48000, seed=0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            synthesize_speech(120.0, self.FORMANTS, 0.0, 48000, seed=0)

    @pytest.mark.parametrize("sample_rate", [0, -48000])
    def test_invalid_sample_rate(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            synthesize_speech(150.0, [], 0.01, sample_rate)

    def test_duration_of_no_samples(self):
        with pytest.raises(ValueError, match="rounds to zero samples"):
            synthesize_speech(150.0, [], 1e-6)

    @pytest.mark.parametrize("sample_rate", [16000, 44100, 48000])
    @pytest.mark.parametrize("f0", [60.0, 118.0, 250.0, 400.0])
    def test_matches_per_harmonic_loop(self, tmp_path, f0, sample_rate):
        for i, duration_s in enumerate([0.05, 0.37, 1.5, 4.0]):
            seed = int(f0) * 10 + i
            got = synthesize_speech(f0, self.FORMANTS, duration_s,
                                    sample_rate, seed=seed).samples
            want = oracles.synthesize_speech_loop(
                f0, self.FORMANTS, duration_s, sample_rate, seed=seed)
            assert len(got) == len(want)
            assert np.max(np.abs(got - want)) <= 1e-10
            write_wav(tmp_path / "got.wav", got, sample_rate, channels=1)
            write_wav(tmp_path / "want.wav", want, sample_rate, channels=1)
            assert ((tmp_path / "got.wav").read_bytes()
                    == (tmp_path / "want.wav").read_bytes())

    def test_no_harmonic_below_nyquist(self):
        # 400 Hz sampling leaves no room for a 300 Hz fundamental, so the
        # harmonic part is zero and the clip is the normalized noise alone
        got = synthesize_speech(300.0, self.FORMANTS, 1.0, 400, seed=2)
        want = oracles.synthesize_speech_loop(300.0, self.FORMANTS, 1.0, 400,
                                              seed=2)
        np.testing.assert_array_equal(got.samples, want)

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_formants_recovered_from_synthesis(self, seed):
        sr = 48000
        clip = synthesize_speech(100.0, [(700.0, 1.0), (1200.0, 0.9)],
                                 1.0, sr, seed=seed)
        mid = clip.samples[sr // 2:sr // 2 + 2400]
        spec = fft_magnitude(mid * gaussian_window(2400), sr)
        # the two strongest local maxima of the spectrum sit on the formants
        m = spec.magnitudes
        k = np.arange(1, len(m) - 1)
        peaks = k[(m[k] >= m[k - 1]) & (m[k] >= m[k + 1])]
        top2 = sorted(peaks[np.argsort(-m[peaks])[:2]] * spec.bin_hz)
        assert abs(top2[0] - 700.0) <= 2 * spec.bin_hz
        assert abs(top2[1] - 1200.0) <= 2 * spec.bin_hz

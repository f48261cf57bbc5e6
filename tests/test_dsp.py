"""Tests for windowing, the FFT, and voiced-region detection."""

import cmath
import math

import numpy as np
import pytest

import oracles
from speechbp import dsp, features
from speechbp.audio_io import AudioClip, synthesize_speech
from speechbp.dsp import (MAX_SEGMENTS, detect_voiced_regions, fft_magnitude,
                          fft_radix2, gaussian_window, segment_length,
                          segment_regions)
from speechbp.errors import DegenerateInput

# detection works on a 50 ms grid, so region edges are only pinned down to
# one frame: 2400 samples at 48 kHz
FRAME_TOL = 2400


class TestGaussianWindow:
    def test_center_is_one(self):
        w = gaussian_window(5)
        assert w[2] == 1.0

    def test_endpoint_value(self):
        # n=5, sigma=0.4: endpoint exponent is -0.5 * (2 / (0.4*2))**2
        w = gaussian_window(5)
        assert w[0] == pytest.approx(math.exp(-3.125), rel=1e-15)
        assert w[4] == pytest.approx(math.exp(-3.125), rel=1e-15)

    def test_even_length_symmetry(self):
        w = gaussian_window(8)
        np.testing.assert_allclose(w, w[::-1], rtol=0, atol=0)
        assert np.max(w) < 1.0  # no sample sits exactly at the center

    def test_odd_length_symmetry(self):
        w = gaussian_window(201)
        np.testing.assert_array_equal(w, w[::-1])

    def test_positive_and_unimodal(self):
        w = gaussian_window(64)
        assert np.all(w > 0)
        d = np.diff(w)
        assert np.all(d[:31] > 0) and np.all(d[32:] < 0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_invalid_length(self, n):
        with pytest.raises(ValueError, match="window needs n >= 2"):
            gaussian_window(n)

    def test_built_once_per_length_and_sigma(self):
        w = gaussian_window(2400)
        assert gaussian_window(2400) is w
        assert gaussian_window(2205) is not w


# every table built once and shared by all callers, by name
CACHED_TABLES = {
    "window": lambda: gaussian_window(48),
    "mel-filterbank": lambda: features.mel_filterbank(48000, 2049, 4096),
    "dct": lambda: features._dct2_matrix(features.N_MEL_FILTERS),
}


@pytest.mark.parametrize("name", CACHED_TABLES)
def test_cached_table_is_read_only(name):
    table = CACHED_TABLES[name]()
    assert CACHED_TABLES[name]() is table
    before = table.copy()
    with pytest.raises(ValueError, match="read-only"):
        table[(0,) * table.ndim] = 2.0
    np.testing.assert_array_equal(table, before)


class TestFFT:
    def test_impulse_flat_spectrum(self):
        frame = np.zeros(64)
        frame[0] = 1.0
        spec = fft_magnitude(frame, 48000)
        assert spec.fft_size == 64
        assert len(spec.magnitudes) == 33
        np.testing.assert_allclose(spec.magnitudes, np.ones(33), atol=1e-12)

    def test_pure_cosine_single_bin(self):
        n = np.arange(64)
        spec = fft_magnitude(np.cos(2 * np.pi * 5 * n / 64), 6400)
        assert spec.magnitudes[5] == pytest.approx(32.0, abs=1e-9)
        others = np.delete(spec.magnitudes, 5)
        assert np.max(others) < 1e-9
        assert spec.bin_hz == pytest.approx(100.0)

    def test_zero_pad_to_power_of_two(self):
        spec = fft_magnitude(np.ones(2400), 48000)
        assert spec.fft_size == 4096
        assert len(spec.magnitudes) == 2049
        assert spec.bin_hz == pytest.approx(48000 / 4096)

    def test_empty_frame(self):
        with pytest.raises(ValueError, match="cannot transform an empty"):
            fft_magnitude(np.array([]), 48000)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fft_magnitude(np.array([1.0, np.nan]), 48000)

    def test_radix2_requires_power_of_two(self):
        with pytest.raises(ValueError, match="must be a power of two, got 3"):
            fft_radix2(np.arange(3, dtype=float))

    def test_matches_loop_dft(self):
        # every power of two to 64, and 256
        rng = np.random.default_rng(17)
        for n in (2, 4, 8, 16, 32, 64, 256):
            x = rng.normal(size=n)
            got = fft_radix2(x)
            want = oracles.dft_loop(list(x))
            for k in range(n):
                assert cmath.isclose(got[k], want[k], abs_tol=1e-9)

    @pytest.mark.parametrize("n", [512, 2048])
    def test_non_square_split_matches_matrix_dft(self, n):
        # complex input, which np.fft.fft takes as it is
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(fft_radix2(x) - oracles.dft_matrix(x))) < 1e-9

    def test_stacked_transform_equals_row_by_row(self):
        rng = np.random.default_rng(41)
        frames = rng.normal(size=(2, 3, 2048)) + 1j * rng.normal(
            size=(2, 3, 2048))
        stacked = fft_radix2(frames)
        assert stacked.shape == frames.shape
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(stacked[i, j],
                                              fft_radix2(frames[i, j]))

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_real_input_upper_bins_are_conjugates(self, n):
        got = fft_radix2(np.random.default_rng(n).normal(size=n))
        np.testing.assert_array_equal(got[n // 2 + 1:],
                                      np.conj(got[n // 2 - 1:0:-1]))

    @pytest.mark.parametrize("n", [2, 64, 4096])
    def test_real_and_complex_input_agree(self, n):
        x = np.random.default_rng(n + 1).normal(size=n)
        real = fft_radix2(x)
        assert real.dtype == np.complex128 and real.shape == (n,)
        assert np.max(np.abs(real - fft_radix2(x.astype(complex)))) < 1e-12

    @pytest.mark.parametrize("x", [[2.5], [2.5 - 1.5j]])
    def test_one_point_returns_input(self, x):
        np.testing.assert_array_equal(fft_radix2(np.array(x)), x)

    # 1024 and 4096 are the padded lengths of 16 kHz and 44.1/48 kHz
    # segments; 2048 and 4096 are those of pitch's two transforms
    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    @pytest.mark.parametrize("rows", [1, 3, dsp.STACK_ROWS])
    def test_real_stack_rows_keep_their_bits(self, n, rows):
        frames = np.random.default_rng(n + rows).normal(size=(rows, n))
        stacked = fft_radix2(frames)
        for i in range(rows):
            np.testing.assert_array_equal(stacked[i], fft_radix2(frames[i]))

    def test_matches_matrix_dft_at_4096(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=4096)
        got = np.abs(fft_radix2(x))
        want = np.abs(oracles.dft_matrix(x))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=512)
        base = fft_magnitude(x, 48000).magnitudes
        scaled = fft_magnitude(2.5 * x, 48000).magnitudes
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 800, 2205, 2400, 4096])
    def test_packed_magnitude_matches_matrix_dft(self, n):
        x = np.random.default_rng(n).normal(size=n)
        spec = fft_magnitude(x, 48000)
        padded = np.zeros(spec.fft_size)
        padded[:n] = x
        want = np.abs(oracles.dft_matrix(padded))[:spec.fft_size // 2 + 1]
        assert spec.magnitudes.shape == want.shape
        assert np.max(np.abs(spec.magnitudes - want)) < 1e-9

    @pytest.mark.parametrize("n", [1, 5, 2400])
    def test_stacked_frames_equal_row_by_row(self, n):
        frames = np.random.default_rng(37).normal(size=(3, 4, n))
        stacked = fft_magnitude(frames, 48000)
        assert stacked.magnitudes.shape[:2] == (3, 4)
        for i in range(3):
            for j in range(4):
                single = fft_magnitude(frames[i, j], 48000)
                np.testing.assert_array_equal(stacked.magnitudes[i, j],
                                              single.magnitudes)
                assert single.fft_size == stacked.fft_size

    # the segment lengths at 16, 44.1 and 48 kHz
    @pytest.mark.parametrize("n", [800, 2205, 2400])
    @pytest.mark.parametrize("rows", [1, 3, dsp.STACK_ROWS])
    def test_segment_stack_rows_keep_their_bits(self, n, rows):
        frames = np.random.default_rng(n * rows).normal(size=(rows, n))
        stacked = fft_magnitude(frames, 48000).magnitudes
        for i in range(rows):
            np.testing.assert_array_equal(
                stacked[i], fft_magnitude(frames[i], 48000).magnitudes)

    def test_parseval_energy(self):
        rng = np.random.default_rng(31)
        for n in (64, 300, 1024, 2400):
            x = rng.normal(size=n)
            spec = fft_magnitude(x, 48000)
            m = spec.magnitudes
            nfft = spec.fft_size
            spectral = (m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)) / nfft
            time = np.sum(x ** 2)
            assert abs(spectral - time) / time < 1e-9


def bracketed_vowel(seed, sample_rate=48000):
    """1 s synthetic vowel padded by 0.5 s of silence on each side."""
    vowel = synthesize_speech(150.0, [(700.0, 1.0)], 1.0, sample_rate,
                              seed=seed)
    pad = np.zeros(sample_rate // 2)
    samples = np.concatenate([pad, vowel.samples, pad])
    return AudioClip(samples, sample_rate, 1)


class TestVoicedRegions:
    def test_silence_yields_nothing(self):
        clip = AudioClip(np.zeros(48000), 48000, 1)
        assert detect_voiced_regions(clip) == []

    def test_white_noise_yields_nothing(self):
        rng = np.random.default_rng(41)
        clip = AudioClip(rng.normal(0, 0.3, size=48000), 48000, 1)
        assert detect_voiced_regions(clip) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_bracketed_vowel(self, seed):
        regions = detect_voiced_regions(bracketed_vowel(seed))
        assert len(regions) == 1
        lo, hi = regions[0]
        assert abs(lo - 24000) <= FRAME_TOL
        assert abs(hi - 72000) <= FRAME_TOL

    def test_short_clip_rejected(self):
        clip = AudioClip(np.zeros(100), 48000, 1)
        with pytest.raises(DegenerateInput, match="need at least 100 ms"):
            detect_voiced_regions(clip)

    @pytest.mark.parametrize("sample_rate", [8, 20, 199])
    def test_rate_below_flatness_band_rejected(self, sample_rate):
        clip = AudioClip(np.ones(3 * sample_rate), sample_rate, 1)
        with pytest.raises(DegenerateInput,
                           match=f"sample rate {sample_rate} Hz is below "
                                 "200 Hz"):
            detect_voiced_regions(clip)

    def test_rate_at_flatness_band_accepted(self):
        # Nyquist sits on the band's lower edge: one bin, so the gate runs
        clip = AudioClip(np.random.default_rng(0).normal(size=600), 200, 1)
        assert detect_voiced_regions(clip) == []

    def test_regions_sorted_and_disjoint(self):
        sr = 48000
        vowel = synthesize_speech(140.0, [(700.0, 1.0)], 0.6, sr, seed=3)
        gap = np.zeros(int(0.7 * sr))
        samples = np.concatenate([gap, vowel.samples, gap, vowel.samples, gap])
        regions = detect_voiced_regions(AudioClip(samples, sr, 1))
        assert len(regions) == 2
        assert regions[0][1] < regions[1][0]
        for lo, hi in regions:
            assert hi - lo >= 0.100 * sr

    def test_runs_one_frame_apart_stay_separate(self):
        # frame-aligned: 10 silent, 6 vowel, 1 silent, 6 vowel, 10 silent
        sr = 48000
        frame = 2400
        vowel = synthesize_speech(150.0, [(700.0, 1.0)], 0.3, sr, seed=4)
        assert len(vowel.samples) == 6 * frame
        pad = np.zeros(10 * frame)
        samples = np.concatenate([pad, vowel.samples, np.zeros(frame),
                                  vowel.samples, pad])
        regions = detect_voiced_regions(AudioClip(samples, sr, 1))
        assert regions == [(24000, 38400), (40800, 55200)]


class TestSegmentation:
    def test_segment_length(self):
        assert segment_length(48000) == 2400
        assert segment_length(8000) == 400

    def test_one_second_region(self):
        sr = 48000
        clip = AudioClip(np.arange(sr * 2, dtype=float), sr, 1)
        segs = segment_regions(clip, [(24000, 72000)])
        assert len(segs) == 20
        assert all(len(s.samples) == 2400 for s in segs)
        assert [s.index for s in segs] == list(range(20))
        # segments tile the region without gaps
        assert segs[0].start_s == pytest.approx(0.5)
        for a, b in zip(segs, segs[1:]):
            assert b.start_s == pytest.approx(a.start_s + 0.05)
        # samples come from the right offsets
        np.testing.assert_array_equal(segs[0].samples,
                                      np.arange(24000, 26400, dtype=float))

    def test_subframe_region_yields_nothing(self):
        sr = 48000
        clip = AudioClip(np.zeros(sr), sr, 1)
        assert segment_regions(clip, [(4800, 7152)]) == []

    def test_cap_at_max_segments(self):
        sr = 8000
        clip = AudioClip(np.zeros(150 * sr), sr, 1)
        segs = segment_regions(clip, [(0, 150 * sr)])
        assert len(segs) == MAX_SEGMENTS
        assert segs[-1].start_s == pytest.approx(119.95)
        assert segs[-1].index == 2399

    def test_cap_spans_regions(self):
        sr = 8000
        clip = AudioClip(np.zeros(200 * sr), sr, 1)
        regions = [(0, 80 * sr), (100 * sr, 180 * sr)]
        segs = segment_regions(clip, regions)
        assert len(segs) == MAX_SEGMENTS
        assert segs[1599].start_s == pytest.approx(79.95)
        assert segs[1600].start_s == pytest.approx(100.0)

    def test_indices_are_global_ordinals(self):
        sr = 48000
        clip = AudioClip(np.zeros(sr * 3), sr, 1)
        regions = [(0, 9600), (48000, 57600)]
        segs = segment_regions(clip, regions)
        assert [s.index for s in segs] == list(range(8))

    @pytest.mark.parametrize("sample_rate", [16000, 44100, 48000])
    def test_random_clips_tile_frame_aligned_regions(self, sample_rate):
        # silences of 0.1-0.8 s between vowels of 0.05-0.6 s, so most frames
        # are quiet and the gate's median sits on the silence
        sr = sample_rate
        frame = segment_length(sr)
        rng = np.random.default_rng(sr)
        n_regions = 0
        for _ in range(6):
            parts = [np.zeros(int(rng.uniform(0.1, 0.8) * sr))]
            for _ in range(rng.integers(1, 5)):
                vowel = synthesize_speech(
                    float(rng.uniform(90.0, 240.0)), [(700.0, 1.0)],
                    float(rng.uniform(0.05, 0.6)), sr,
                    seed=int(rng.integers(1 << 30)))
                parts += [vowel.samples,
                          np.zeros(int(rng.uniform(0.1, 0.8) * sr))]
            clip = AudioClip(np.concatenate(parts), sr, 1)
            regions = detect_voiced_regions(clip)
            n_regions += len(regions)
            for lo, hi in regions:
                assert lo % frame == 0 and hi % frame == 0
                assert 0 <= lo and hi <= len(clip.samples)
                assert (hi - lo) / sr >= 0.100
            for (_, hi), (lo, _) in zip(regions, regions[1:]):
                assert lo - hi >= frame
            starts = [s for lo, hi in regions for s in range(lo, hi, frame)]
            segs = segment_regions(clip, regions)
            assert [s.index for s in segs] == list(range(len(starts)))
            for seg, start in zip(segs, starts, strict=True):
                assert seg.start_s == start / sr
                np.testing.assert_array_equal(
                    seg.samples, clip.samples[start:start + frame])
        assert n_regions >= 12

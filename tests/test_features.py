"""Tests for per-segment features, aggregation, and the feature CSV format."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from speechbp.audio_io import (AudioClip, load_wav, synthesize_speech,
                               write_wav)
from speechbp.dsp import (STACK_ROWS, Segment, detect_voiced_regions,
                          segment_regions)
from speechbp.errors import DegenerateInput, InsufficientData, MalformedArtifact
from speechbp import features as F
from speechbp.features import (BASE_NAMES, SCHEMAS, SEGMENT_NAMES,
                               FeatureVector, aggregate_recording,
                               amplitude_extrema, extract_recording,
                               kurtosis, mfcc_12, pitch,
                               poly_area, read_features_csv, segment_features,
                               skewness, write_features_csv)


def make_segment(samples, sample_rate=48000, index=0):
    return Segment(np.asarray(samples, dtype=np.float64), sample_rate, 0.0,
                   index)


def vowel_segment(f0=120.0, seed=2, sample_rate=48000, offset=2400):
    clip = synthesize_speech(f0, [(700.0, 1.0), (1200.0, 0.6)], 1.0,
                             sample_rate, seed=seed)
    n = round(0.05 * sample_rate)
    return make_segment(clip.samples[offset:offset + n], sample_rate)


class TestMfcc:
    def test_all_zero_segment(self):
        coefs = mfcc_12(make_segment(np.zeros(2400)))
        assert len(coefs) == 12
        np.testing.assert_allclose(coefs, np.zeros(12), atol=1e-9)

    @pytest.mark.parametrize("gain", [0.5, 2.0, 10.0])
    def test_gain_invariance(self, gain):
        seg = vowel_segment()
        base = mfcc_12(seg)
        scaled = mfcc_12(make_segment(seg.samples * gain))
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_matches_oracle_48k(self):
        clip = synthesize_speech(120.0, [(700.0, 1.0), (1200.0, 0.6)], 1.0,
                                 48000, seed=2)
        for k in range(3):
            frame = clip.samples[k * 2400:(k + 1) * 2400]
            got = mfcc_12(make_segment(frame))
            want = oracles.mfcc_oracle(list(frame), 48000)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_oracle_8k(self):
        clip = synthesize_speech(120.0, [(700.0, 1.0)], 0.5, 8000, seed=1)
        frame = clip.samples[400:800]
        got = mfcc_12(make_segment(frame, sample_rate=8000))
        want = oracles.mfcc_oracle(list(frame), 8000)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_wrong_frame_length(self):
        with pytest.raises(ValueError,
                           match="segment has 1000 samples, expected 2400"):
            mfcc_12(make_segment(np.zeros(1000)))


class TestMoments:
    def test_symmetric_skewness(self):
        assert skewness([-1.0, 0.0, 1.0]) == 0.0

    def test_skewness_spike(self):
        # one positive outlier among zeros; value pinned by the moment
        # formula itself
        want = oracles.skewness_oracle([0, 0, 0, 4])
        assert skewness([0.0, 0.0, 0.0, 4.0]) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)

    def test_skewness_degenerate(self):
        with pytest.raises(InsufficientData,
                           match="constant signal has no skewness"):
            skewness([5.0, 5.0, 5.0])
        with pytest.raises(ValueError,
                           match="skewness needs at least 3 samples"):
            skewness([1.0, 2.0])

    def test_skewness_is_odd(self):
        rng = np.random.default_rng(13)
        x = rng.exponential(size=500)
        assert skewness(-x) == pytest.approx(-skewness(x), rel=1e-12)

    def test_two_level_kurtosis(self):
        assert kurtosis([1.0, -1.0] * 8) == -2.0

    def test_kurtosis_degenerate(self):
        with pytest.raises(InsufficientData,
                           match="constant signal has no kurtosis"):
            kurtosis([7.0, 7.0, 7.0, 7.0])
        with pytest.raises(ValueError,
                           match="kurtosis needs at least 4 samples"):
            kurtosis([1.0, 2.0, 3.0])

    def test_kurtosis_normal_draw(self):
        rng = np.random.default_rng(21)
        assert abs(kurtosis(rng.standard_normal(100_000))) < 0.05

    def test_kurtosis_is_even(self):
        rng = np.random.default_rng(34)
        x = rng.exponential(size=500)
        assert kurtosis(-x) == pytest.approx(kurtosis(x), rel=1e-12)

    def test_against_oracles(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            x = rng.normal(size=64)
            assert skewness(x) == pytest.approx(oracles.skewness_oracle(x),
                                                rel=1e-10)
            assert kurtosis(x) == pytest.approx(oracles.kurtosis_oracle(x),
                                                rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_oracles_segment_length(self, seed):
        x = np.random.default_rng(seed).normal(size=2400)
        assert skewness(x) == pytest.approx(oracles.skewness_oracle(x),
                                            rel=1e-12)
        assert kurtosis(x) == pytest.approx(oracles.kurtosis_oracle(x),
                                            rel=1e-12)


class TestPolyArea:
    def test_constant_signal(self):
        seg = make_segment(np.full(2400, 0.5))
        assert poly_area(seg) == pytest.approx(0.5 * 2399 / 48000, rel=1e-12)

    def test_zero_signal(self):
        assert poly_area(make_segment(np.zeros(2400))) == 0.0

    def test_sawtooth_matches_oracle(self):
        saw = np.linspace(-1.0, 1.0, 2400)
        seg = make_segment(saw)
        want = oracles.trapezoid_abs_oracle(list(saw), 48000)
        assert poly_area(seg) == pytest.approx(want, abs=1e-12)

    def test_positive_scaling(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=2400)
        a = poly_area(make_segment(x))
        assert poly_area(make_segment(3.0 * x)) == pytest.approx(3.0 * a,
                                                                 rel=1e-12)

    def test_too_few(self):
        with pytest.raises(ValueError, match="area needs at least 2 samples"):
            poly_area(make_segment([1.0]))


class TestExtrema:
    def test_basic(self):
        assert amplitude_extrema(make_segment([0.3, -0.7, 0.1])) == (0.3, -0.7)

    def test_constant(self):
        assert amplitude_extrema(make_segment([0.2, 0.2])) == (0.2, 0.2)

    def test_against_sort(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.normal(size=50)
            hi, lo = amplitude_extrema(make_segment(x))
            ordered = sorted(x)
            assert hi == ordered[-1] and lo == ordered[0]

    def test_empty(self):
        with pytest.raises(ValueError, match="empty segment has no extrema"):
            amplitude_extrema(make_segment([]))


class TestPitch:
    def test_pure_sine(self):
        n = np.arange(2400)
        seg = make_segment(np.sin(2 * np.pi * 200.0 * n / 48000))
        assert abs(pitch(seg) - 200.0) <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_noise_is_unvoiced(self, seed):
        rng = np.random.default_rng(seed)
        assert pitch(make_segment(rng.normal(0, 0.3, 2400))) == 0.0

    def test_closes_loop_with_synthesizer(self):
        clip = synthesize_speech(150.0, [(700.0, 1.0)], 1.0, 48000, seed=5)
        seg = make_segment(clip.samples[24000:26400])
        assert abs(pitch(seg) - 150.0) <= 2.0

    def test_silence_is_unvoiced(self):
        assert pitch(make_segment(np.zeros(2400))) == 0.0

    def test_segment_shorter_than_any_valid_lag(self):
        assert pitch(make_segment(np.ones(100))) == 0.0

    def test_low_sample_rate(self):
        n = np.arange(400)
        seg = make_segment(np.sin(2 * np.pi * 200.0 * n / 8000),
                           sample_rate=8000)
        assert abs(pitch(seg) - 200.0) <= 5.0

    @pytest.mark.parametrize("sample_rate", [8000, 16000, 44100, 48000])
    @pytest.mark.parametrize("f0", [95.0, 150.0, 240.0])
    def test_vowels_match_oracle(self, sample_rate, f0):
        clip = synthesize_speech(f0, [(700.0, 1.0), (1200.0, 0.6)], 0.5,
                                 sample_rate, seed=int(f0))
        n = round(0.05 * sample_rate)
        voiced = 0
        for k in range(10):
            frame = clip.samples[k * n:(k + 1) * n]
            want = oracles.pitch_oracle(frame, sample_rate)
            assert pitch(make_segment(frame, sample_rate)) == want
            voiced += want > 0.0
        assert voiced >= 5

    @pytest.mark.parametrize("sample_rate", [8000, 48000])
    def test_noise_and_silence_match_oracle(self, sample_rate):
        n = round(0.05 * sample_rate)
        rng = np.random.default_rng(sample_rate)
        for frame in (rng.normal(0, 0.3, n), np.zeros(n)):
            want = oracles.pitch_oracle(frame, sample_rate)
            assert want == 0.0
            assert pitch(make_segment(frame, sample_rate)) == want

    @pytest.mark.parametrize("length", [1, 2, 50, 119, 120, 121, 130])
    def test_short_segments_match_oracle(self, length):
        # at 48 kHz the shortest lag is 120 samples
        frame = np.random.default_rng(length).normal(size=length)
        assert (pitch(make_segment(frame))
                == oracles.pitch_oracle(frame, 48000))


def fake_features(rng):
    """One segment row with plausible values in every column."""
    return np.concatenate([rng.normal(size=12), [
        rng.normal(), rng.normal(), rng.uniform(0, 1), rng.uniform(0.5, 1),
        rng.uniform(-1, -0.5), rng.uniform(60, 400)]])


def col(name):
    return SEGMENT_NAMES.index(name)


def unvoiced(row):
    out = row.copy()
    out[col("pitch_hz")] = 0.0
    return out


class TestAggregate:
    def test_single_segment_identity(self):
        f = fake_features(np.random.default_rng(1))
        vec = aggregate_recording([f], schema="base")
        assert vec.schema_id == "base"
        assert vec.n_segments == 1
        assert len(vec.names) == 17
        np.testing.assert_allclose(vec.values[:12], f[:12], rtol=1e-15)
        assert vec.values[12] == pytest.approx(f[col("skewness")])
        assert vec.values[16] == pytest.approx(f[col("amp_min")])

    def test_mean_of_two(self):
        rng = np.random.default_rng(2)
        a, b = fake_features(rng), fake_features(rng)
        a[:12] = [1.0] + [0.0] * 11
        b[:12] = [3.0] + [0.0] * 11
        vec = aggregate_recording([a, b], schema="base")
        assert vec.values[0] == 2.0

    def test_matches_straight_sum_oracle(self):
        rng = np.random.default_rng(3)
        feats = [fake_features(rng) for _ in range(2400)]
        vec = aggregate_recording(feats, schema="extended")
        for j, name in enumerate(vec.names):
            column = [f[col(name)] for f in feats]
            if name == "pitch_hz":
                column = [hz for hz in column if hz > 0]
            want = math.fsum(column) / len(column)
            assert vec.values[j] == pytest.approx(want, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        feats = [fake_features(rng) for _ in range(31)]
        fwd = aggregate_recording(feats, schema="extended")
        rev = aggregate_recording(feats[::-1], schema="extended")
        assert fwd.names == rev.names
        np.testing.assert_allclose(fwd.values, rev.values, rtol=1e-12)

    def test_extended_layout(self):
        rng = np.random.default_rng(5)
        vec = aggregate_recording([fake_features(rng)], schema="extended")
        assert vec.names[:17] == aggregate_recording(
            [fake_features(rng)], schema="base").names
        assert vec.names[17] == "pitch_hz"

    def test_pitch_gate_at_half(self):
        rng = np.random.default_rng(6)
        feats = [fake_features(rng) for _ in range(4)]
        half_voiced = feats[:2] + [unvoiced(f) for f in feats[2:]]
        vec = aggregate_recording(half_voiced, schema="extended")
        assert "pitch_hz" in vec.names
        want = (feats[0][col("pitch_hz")] + feats[1][col("pitch_hz")]) / 2
        assert vec.values[-1] == pytest.approx(want)

        # a mostly unvoiced recording keeps the column, read as unvoiced
        mostly_unvoiced = feats[:1] + [unvoiced(f) for f in feats[1:]]
        vec2 = aggregate_recording(mostly_unvoiced, schema="extended")
        assert vec2.names == SEGMENT_NAMES
        assert len(vec2.names) == 18
        assert vec2.values[-1] == 0.0

    def test_base_schema_never_carries_pitch(self):
        rng = np.random.default_rng(7)
        vec = aggregate_recording([fake_features(rng)], schema="base")
        assert "pitch_hz" not in vec.names

    def test_no_segments(self):
        with pytest.raises(DegenerateInput, match="no voiced audio in input"):
            aggregate_recording([], schema="base")

    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            aggregate_recording([fake_features(np.random.default_rng(8))],
                                schema="huge")


class TestExtractRecording:
    def bracketed(self, f0, seed):
        vowel = synthesize_speech(f0, [(700.0, 1.0), (1200.0, 0.6)], 1.5,
                                  48000, seed=seed)
        rng = np.random.default_rng(99)
        pad = rng.normal(0, 5e-4, int(0.8 * 48000))
        return AudioClip(np.concatenate([pad, vowel.samples, pad]), 48000, 1)

    def test_full_pipeline(self):
        vec = extract_recording([self.bracketed(150.0, 3)], schema="extended")
        assert vec.n_segments == 30
        assert vec.names[-1] == "pitch_hz"
        assert abs(vec.values[-1] - 150.0) <= 2.0
        assert np.all(np.isfinite(vec.values))

    def test_base_width(self):
        vec = extract_recording([self.bracketed(120.0, 4)], schema="base")
        assert len(vec.values) == 17

    def test_silence_raises(self):
        clip = AudioClip(np.zeros(48000), 48000, 1)
        with pytest.raises(DegenerateInput, match="no voiced audio in input"):
            extract_recording([clip])

    def test_long_clip_traced_peak_per_sample(self, tmp_path):
        # 31 s of 48 kHz stereo speech: the loader's own peak, the clip at
        # one float64 per sample and the gate's fixed-size FFT stack fit;
        # squaring the whole frame matrix (another 8 B per sample) does not
        clip = self.bracketed(150.0, 3)
        extract_recording([clip])   # build the cached tables untraced
        p = tmp_path / "long.wav"
        write_wav(p, np.tile(clip.samples, 10), 48000, channels=2)
        n = 10 * len(clip.samples)
        tracemalloc.start()
        try:
            vec = extract_recording([load_wav(p)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vec.n_segments == 10 * 30
        assert peak <= 13 * n

    def test_clips_pool_their_segments(self):
        clips = [self.bracketed(150.0, 3), self.bracketed(120.0, 4)]
        vec = extract_recording(clips, schema="extended")
        per_clip = [segment_regions(c, detect_voiced_regions(c))
                    for c in clips]
        assert vec.n_segments == sum(len(segs) for segs in per_clip)
        want = aggregate_recording(
            [segment_features(s) for segs in per_clip for s in segs],
            schema="extended")
        assert vec.names == want.names
        np.testing.assert_array_equal(vec.values, want.values)

    def test_stacks_never_span_two_clips(self, monkeypatch):
        clips = [self.bracketed(150.0, 3), self.bracketed(120.0, 4)]
        per_clip = [len(segment_regions(c, detect_voiced_regions(c)))
                    for c in clips]
        shapes = []
        real = F.segment_features
        monkeypatch.setattr(F, "segment_features", lambda seg: shapes.append(
            np.shape(seg.samples)) or real(seg))
        vec = extract_recording(clips)
        want = [min(STACK_ROWS, n - lo) for n in per_clip
                for lo in range(0, n, STACK_ROWS)]
        assert [shape[0] for shape in shapes] == want
        assert vec.n_segments == sum(per_clip)


class TestSegmentStacks:
    """A stack of segments gives, bit for bit, the rows of its segments."""

    def stack(self, sample_rate, rows, noise_at=None):
        clip = synthesize_speech(130.0, [(700.0, 1.0), (1200.0, 0.6)], 1.0,
                                 sample_rate, seed=sample_rate % 97)
        n = round(0.05 * sample_rate)
        frames = clip.samples[2 * n:(2 + rows) * n].reshape(rows, n).copy()
        if noise_at is not None:
            rng = np.random.default_rng(sample_rate)
            frames[noise_at] = rng.normal(0.0, 0.3, n)
        return frames

    @pytest.mark.parametrize("sample_rate", [16000, 44100, 48000])
    @pytest.mark.parametrize("rows", [1, 3, STACK_ROWS])
    def test_equals_one_segment_at_a_time(self, sample_rate, rows):
        frames = self.stack(sample_rate, rows, noise_at=rows // 2)
        got = segment_features(make_segment(frames, sample_rate))
        want = np.array([segment_features(make_segment(f, sample_rate))
                         for f in frames])
        assert got.shape == (rows, len(SEGMENT_NAMES))
        assert np.array_equal(got, want)
        assert got[rows // 2, col("pitch_hz")] == 0.0
        assert rows == 1 or np.all(np.delete(got[:, col("pitch_hz")],
                                             rows // 2) > 0.0)

    def test_constant_row_raises_as_alone(self):
        frames = self.stack(48000, 3)
        frames[1] = 0.25
        with pytest.raises(InsufficientData) as alone:
            segment_features(make_segment(frames[1]))
        with pytest.raises(InsufficientData) as stacked:
            segment_features(make_segment(frames))
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "constant signal has no skewness"

    def test_non_finite_row_raises(self):
        frames = self.stack(48000, 3)
        frames[2, 100] = np.nan
        with pytest.raises(ValueError) as info:
            segment_features(make_segment(frames))
        assert type(info.value) is ValueError
        assert str(info.value) == "frame contains non-finite samples"


class TestCsvRoundTrip:
    def make_vectors(self, n=3):
        rng = np.random.default_rng(42)
        vecs = [aggregate_recording([fake_features(rng) for _ in range(5)],
                                    schema="base") for _ in range(n)]
        ids = [f"P{i:03d}" for i in range(n)]
        return ids, vecs

    def test_round_trip_exact(self, tmp_path):
        ids, vecs = self.make_vectors()
        csv_p, man_p = tmp_path / "f.csv", tmp_path / "f.json"
        write_features_csv(csv_p, man_p, ids, vecs)
        rids, names, matrix, manifest = read_features_csv(csv_p, man_p)
        assert rids == ids
        assert names == vecs[0].names
        assert manifest["schema_id"] == "base"
        assert manifest["parameters"]["preemphasis"] == 0.97
        for row, v in zip(matrix, vecs):
            np.testing.assert_array_equal(row, v.values)

    def test_deterministic_bytes(self, tmp_path):
        ids, vecs = self.make_vectors()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(pa, tmp_path / "a.json", ids, vecs)
        write_features_csv(pb, tmp_path / "b.json", ids, vecs)
        assert pa.read_bytes() == pb.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_17_significant_digits(self, tmp_path):
        vec = FeatureVector(names=("a", "b"),
                            values=np.array([1.0 / 3.0, 2.0]),
                            n_segments=1, schema_id="base")
        write_features_csv(tmp_path / "f.csv", tmp_path / "f.json", ["x"],
                           [vec])
        text = (tmp_path / "f.csv").read_text()
        assert "0.33333333333333331" in text

    def test_schema_disagreement_rejected(self, tmp_path):
        ids, vecs = self.make_vectors(2)
        odd = FeatureVector(names=("only",), values=np.array([1.0]),
                            n_segments=1, schema_id="base")
        with pytest.raises(ValueError):
            write_features_csv(tmp_path / "f.csv", tmp_path / "f.json",
                               ids, [vecs[0], odd])

    def test_repeated_id_rejected(self, tmp_path):
        _, vecs = self.make_vectors(3)
        csv_p, man_p = tmp_path / "f.csv", tmp_path / "features.json"
        write_features_csv(csv_p, man_p, ["P000", "P001", "P000"], vecs)
        with pytest.raises(MalformedArtifact,
                           match=r"features\.json: recording id 'P000' "
                                 r"repeats at recordings\[0\] and "
                                 r"recordings\[2\]"):
            read_features_csv(csv_p, man_p)

    def test_unknown_schema_id_rejected(self, tmp_path):
        vec = FeatureVector(names=("a",), values=np.array([1.0]),
                            n_segments=1, schema_id="bogus")
        csv_p, man_p = tmp_path / "f.csv", tmp_path / "features.json"
        write_features_csv(csv_p, man_p, ["P000"], [vec])
        with pytest.raises(MalformedArtifact,
                           match=r"features\.json: unknown schema_id "
                                 r"'bogus'"):
            read_features_csv(csv_p, man_p)

    @pytest.mark.parametrize("schema,label", [("extended", "base"),
                                              ("base", "extended")])
    def test_header_outside_schema_rejected(self, tmp_path, schema, label):
        rng = np.random.default_rng(5)
        vec = aggregate_recording([fake_features(rng) for _ in range(3)],
                                  schema=schema)
        csv_p, man_p = tmp_path / "table.csv", tmp_path / "features.json"
        write_features_csv(csv_p, man_p, ["P000"], [FeatureVector(
            names=vec.names, values=vec.values, n_segments=3,
            schema_id=label)])
        with pytest.raises(MalformedArtifact) as info:
            read_features_csv(csv_p, man_p)
        assert str(info.value).startswith(
            f"{man_p}: schema_id {label!r} does not match the header of "
            f"{csv_p}")

    def test_extended_header_without_pitch_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        vec = aggregate_recording([unvoiced(fake_features(rng))
                                   for _ in range(3)], schema="extended")
        assert vec.names == SEGMENT_NAMES
        csv_p, man_p = tmp_path / "f.csv", tmp_path / "features.json"
        write_features_csv(csv_p, man_p, ["P000"], [vec])
        assert read_features_csv(csv_p, man_p)[1] == SEGMENT_NAMES
        write_features_csv(csv_p, man_p, ["P000"], [FeatureVector(
            names=vec.names[:-1], values=vec.values[:-1], n_segments=3,
            schema_id="extended")])
        with pytest.raises(MalformedArtifact, match="does not match the "
                                                    "header"):
            read_features_csv(csv_p, man_p)

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "recordings": m["recordings"][:1]},
    ], ids=["row-count"])
    def test_cross_file_damage_names_both_files(self, tmp_path, edit):
        ids, vecs = self.make_vectors(2)
        csv_p, man_p = tmp_path / "table.csv", tmp_path / "features.json"
        write_features_csv(csv_p, man_p, ids, vecs)
        man_p.write_text(json.dumps(edit(json.loads(man_p.read_text()))))
        with pytest.raises(MalformedArtifact) as info:
            read_features_csv(csv_p, man_p)
        assert str(man_p) in str(info.value)
        assert str(csv_p) in str(info.value)

    def test_id_count_mismatch(self, tmp_path):
        ids, vecs = self.make_vectors(2)
        with pytest.raises(ValueError):
            write_features_csv(tmp_path / "f.csv", tmp_path / "f.json",
                               ids[:1], vecs)


class TestSegmentFeaturesGlue:
    def test_invariants_on_synthetic_vowel(self):
        f = dict(zip(SEGMENT_NAMES, segment_features(vowel_segment())))
        assert f["amp_min"] <= f["amp_max"]
        assert f["poly_area"] >= 0.0
        assert abs(f["pitch_hz"] - 120.0) <= 2.0


class TestSegmentLayout:
    def test_names_in_order(self):
        assert SEGMENT_NAMES == (
            "mfcc1", "mfcc2", "mfcc3", "mfcc4", "mfcc5", "mfcc6", "mfcc7",
            "mfcc8", "mfcc9", "mfcc10", "mfcc11", "mfcc12", "skewness",
            "kurtosis", "poly_area", "amp_max", "amp_min", "pitch_hz")

    def test_schemas_name_their_columns(self):
        assert SCHEMAS == {"base": BASE_NAMES, "extended": SEGMENT_NAMES}
        rng = np.random.default_rng(11)
        for schema, names in SCHEMAS.items():
            vec = aggregate_recording([fake_features(rng)], schema=schema)
            assert vec.names == names

    def test_one_finite_value_per_name(self):
        row = segment_features(vowel_segment())
        assert row.shape == (len(SEGMENT_NAMES),)
        assert row.dtype == np.float64
        assert np.all(np.isfinite(row))

    def test_each_column_is_its_function(self):
        seg = vowel_segment()
        x = seg.samples
        amp_max, amp_min = amplitude_extrema(seg)
        want = dict(zip(BASE_NAMES[:12], mfcc_12(seg)))
        want.update(skewness=skewness(x), kurtosis=kurtosis(x),
                    poly_area=poly_area(seg), amp_max=amp_max,
                    amp_min=amp_min, pitch_hz=pitch(seg))
        got = dict(zip(SEGMENT_NAMES, segment_features(seg)))
        assert got == want

    def test_one_magnitude_spectrum_per_segment(self, monkeypatch):
        # the MFCCs' windowed transform is the only one; pitch calls fft_radix2
        calls = []
        real = F.fft_magnitude
        monkeypatch.setattr(F, "fft_magnitude",
                            lambda *a: calls.append(1) or real(*a))
        segment_features(vowel_segment())
        assert len(calls) == 1

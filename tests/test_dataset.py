"""Tests for labeling, example construction, scaling, partitions, and the
cohort."""

import re

import numpy as np
import pytest

import oracles
from speechbp import dataset as D
from speechbp.audio_io import AudioClip
from speechbp.dataset import (TEST_FRACTION, ParticipantRecord, Scaler,
                              apply_scaler, build_examples,
                              correlation_matrix, fit_scaler, invert_scaler,
                              label_hypertension, partition, read_manifest,
                              scaler_from_dict, scaler_to_dict,
                              stratified_order, synthesize_cohort,
                              write_manifest)
from speechbp.errors import InsufficientData, MalformedArtifact
from speechbp.features import FeatureVector


def make_record(pid="P001", sbp=(120.0, 110.0), dbp=(80.0, 70.0), sex="F",
                age=30, wavs=()):
    return ParticipantRecord(id=pid, sex=sex, age=age,
                             sbp_initial=sbp[0], sbp_final=sbp[1],
                             dbp_initial=dbp[0], dbp_final=dbp[1],
                             heart_rate=72.0, wav_paths=tuple(wavs))


def make_vector(values=(1.0, 2.0)):
    names = tuple(f"f{i}" for i in range(len(values)))
    return FeatureVector(names=names, values=np.array(values, float),
                         n_segments=1, schema_id="base")


class TestLabeling:
    def test_high_systolic(self):
        assert label_hypertension(120.0, 70.0) == 1

    def test_boundary_is_normotensive(self):
        assert label_hypertension(115.0, 72.0) == 0

    def test_high_diastolic(self):
        assert label_hypertension(110.0, 80.0) == 1

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sbp = float(rng.uniform(80, 200))
            dbp = float(rng.uniform(40, min(sbp - 5, 120)))
            base = label_hypertension(sbp, dbp)
            up = label_hypertension(min(sbp + 10, 260), dbp)
            assert up >= base

    @pytest.mark.parametrize("sbp,dbp", [(59.0, 50.0), (261.0, 80.0),
                                         (120.0, 29.0), (120.0, 161.0)])
    def test_out_of_range(self, sbp, dbp):
        with pytest.raises(ValueError, match=r"BP \S+ outside \["):
            label_hypertension(sbp, dbp)

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sbp = float(rng.uniform(90, 150))
            dbp = float(rng.uniform(50, 85))
            assert label_hypertension(sbp, dbp) == int(
                oracles.hypertensive_oracle(sbp, dbp))


class TestRecords:
    def test_valid_record_builds(self):
        r = make_record()
        assert r.id == "P001"

    def test_dbp_must_stay_below_sbp(self):
        with pytest.raises(ValueError,
                           match="final DBP must stay below SBP"):
            make_record(sbp=(120.0, 110.0), dbp=(80.0, 115.0))

    def test_age_bounds(self):
        with pytest.raises(ValueError):
            make_record(age=19)

    def test_sex_must_be_f_or_m(self):
        with pytest.raises(ValueError):
            make_record(sex="X")


class TestBuildExamples:
    def test_mean_target(self):
        ex = build_examples([make_record()], {"P001": make_vector()})
        assert len(ex) == 1
        assert ex[0].sbp_target == 115.0
        assert ex[0].dbp_target == 75.0
        assert ex[0].hypertension == 1  # dbp 75 > 72

    def test_duplicate_id(self, tmp_path):
        # a repeated id is a damaged manifest, caught where it is read
        p = tmp_path / "manifest.csv"
        write_manifest(p, [make_record("A"), make_record("B"),
                           make_record("A")])
        want = re.escape(f"{p}: line 4: id A repeats line 2")
        with pytest.raises(MalformedArtifact, match=want):
            read_manifest(p)

    def test_missing_features(self):
        with pytest.raises(ValueError,
                           match="participant A has no feature vector"):
            build_examples([make_record("A")], {})

    def test_95_records(self):
        records = [make_record(f"P{i:03d}") for i in range(95)]
        vectors = {r.id: make_vector() for r in records}
        examples = build_examples(records, vectors)
        assert [e.participant_id for e in examples] == [r.id for r in records]


class TestScaler:
    def test_standard_example(self):
        s = fit_scaler(np.array([[1.0], [2.0], [3.0]]), "standard")
        assert s.scale[0] == pytest.approx(0.81649658092772603, rel=1e-12)
        out = apply_scaler(s, np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.ravel(),
                                   [-1.2247448713915890, 0.0,
                                    1.2247448713915890], rtol=1e-12)

    def test_standard_rejects_constant_by_default(self):
        with pytest.raises(InsufficientData, match="constant column 1"):
            fit_scaler(np.array([[1.0, 5.0], [2.0, 5.0]]), "standard")
        with pytest.raises(InsufficientData, match="constant column DBP"):
            fit_scaler(np.array([[1.0, 5.0], [2.0, 5.0]]), "standard",
                       names=("SBP", "DBP"))

    def test_standard_constant_policy_center(self):
        s = fit_scaler(np.array([[1.0, 5.0], [2.0, 5.0]]), "standard",
                       on_constant="center")
        out = apply_scaler(s, np.array([[1.5, 5.0]]))
        assert out[0, 1] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 5)) * rng.uniform(0.1, 30, size=5)
        s = fit_scaler(X, "standard")
        back = invert_scaler(s, apply_scaler(s, X))
        np.testing.assert_allclose(back, X, atol=1e-12)

    def test_unknown_kind(self):
        for kind in ("robust", "minmax"):
            with pytest.raises(ValueError):
                fit_scaler(np.zeros((3, 1)), kind)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((1, 3)), "standard")

    def test_dict_round_trip(self):
        s = fit_scaler(np.array([[1.0, 2.0], [3.0, 4.0]]), "standard")
        s2 = scaler_from_dict(scaler_to_dict(s))
        assert s2.kind == s.kind
        np.testing.assert_array_equal(s2.center, s.center)
        np.testing.assert_array_equal(s2.scale, s.scale)

    @pytest.mark.parametrize("kind", [5, "minmax", None])
    def test_dict_unknown_kind(self, kind):
        payload = {**scaler_to_dict(fit_scaler(np.eye(2), "standard")),
                   "kind": kind}
        with pytest.raises(ValueError, match="unknown scaler kind"):
            scaler_from_dict(payload)


def class_labels(n0, n1, shuffle_seed=None):
    """n0 zeros and n1 ones, in that order or in one seeded shuffle."""
    labels = np.array([0] * n0 + [1] * n1)
    if shuffle_seed is not None:
        labels = np.random.default_rng(shuffle_seed).permutation(labels)
    return labels


class TestSplit:
    """The train / validation / test partition of `bp train`."""

    def test_partition(self):
        train, val, test = partition(class_labels(6, 4), seed=7)
        assert (len(train), len(val), len(test)) == (8, 0, 2)
        assert sorted(train + val + test) == list(range(10))

    def test_deterministic(self):
        labels = class_labels(30, 20)
        assert partition(labels, seed=3) == partition(labels, seed=3)

    def test_seed_changes_split(self):
        labels = class_labels(30, 20)
        assert partition(labels, seed=1)[2] != partition(labels, seed=2)[2]

    @pytest.mark.parametrize("n0,n1", [(40, 55), (37, 58), (76, 19)])
    def test_95_at_fifth_gives_19(self, n0, n1):
        train, val, test = partition(class_labels(n0, n1), seed=11)
        assert len(test) == 19
        assert len(train) + len(val) == 76

    def test_stratification_within_one(self):
        labels = class_labels(40, 60)
        _, _, test = partition(labels, seed=5)
        by_class = np.bincount(labels[test], minlength=2)
        assert abs(by_class[0] - 40 * TEST_FRACTION) <= 1
        assert abs(by_class[1] - 60 * TEST_FRACTION) <= 1

    def test_original_order_preserved(self):
        for part in partition(class_labels(10, 10, shuffle_seed=4), seed=2):
            assert part == sorted(part)

    def test_tiny_class_rejected(self):
        with pytest.raises(InsufficientData,
                           match="class 1 has 1 example"):
            partition(class_labels(9, 1), seed=0)

    def test_pipeline_fraction_leaves_both_sides(self):
        # every cohort that partition accepts, up to 60 per class, gets a
        # test example and keeps training examples of both classes
        for n0 in range(2, 61):
            for n1 in range(2, 61):
                labels = class_labels(n0, n1)
                train, _, test = partition(labels, seed=3)
                assert test, (n0, n1)
                assert set(labels[train]) == {0, 1}, (n0, n1)

    def test_matches_two_split_oracle(self):
        # the same draws as the separate test and validation splits the
        # pipeline made before, at every class-size pair up to 60
        for seed in (0, 7, 11):
            for n0 in range(2, 61):
                for n1 in range(2, 61):
                    labels = class_labels(n0, n1, shuffle_seed=n0 * 61 + n1)
                    want = oracles.partition_oracle(labels.tolist(), seed)
                    assert partition(labels, seed) == want, (seed, n0, n1)

    def test_stratified_order_is_one_draw_per_class(self):
        labels = class_labels(7, 5, shuffle_seed=1)
        order = stratified_order(labels, seed=9)
        assert list(order) == [0, 1]
        for label, drawn in order.items():
            rng = np.random.default_rng((9, label))
            members = np.flatnonzero(labels == label)
            np.testing.assert_array_equal(
                drawn, members[rng.permutation(len(members))])


class TestCohort:
    def test_sizes_and_ids(self):
        recs = synthesize_cohort(seed=0)
        assert len(recs) == 95
        assert sum(1 for r in recs if r.sex == "F") == 45
        assert recs[0].id == "F001"
        assert recs[45].id == "M001"
        assert len({r.id for r in recs}) == 95

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_bounds_respected(self, seed):
        for r in synthesize_cohort(seed=seed):
            lo, hi, _, _ = D.DEFAULT_PROFILE[r.sex]["sbp"]
            base = (r.sbp_initial + r.sbp_final) / 2
            assert lo <= base <= hi
            dlo, dhi, _, _ = D.DEFAULT_PROFILE[r.sex]["dbp"]
            dbase = (r.dbp_initial + r.dbp_final) / 2
            assert dlo <= dbase <= dhi

    def test_female_sbp_mean_seed_averaged(self):
        means = []
        for seed in range(20):
            recs = synthesize_cohort(seed=seed)
            f = [(r.sbp_initial + r.sbp_final) / 2
                 for r in recs if r.sex == "F"]
            means.append(np.mean(f))
        assert abs(np.mean(means) - 114.28) <= 3.0

    def test_deterministic(self):
        a = synthesize_cohort(seed=6)
        b = synthesize_cohort(seed=6)
        assert a == b

    def test_records_do_not_depend_on_wav_dir(self, tmp_path):
        plain = synthesize_cohort(n_female=2, n_male=2, seed=9)
        with_wavs = synthesize_cohort(n_female=2, n_male=2, seed=9,
                                      wav_dir=tmp_path)
        for x, y in zip(plain, with_wavs):
            assert x.sbp_initial == y.sbp_initial
            assert x.dbp_final == y.dbp_final
            assert x.age == y.age
        for r in with_wavs:
            assert len(r.wav_paths) == 1
            assert (tmp_path / f"{r.id}.wav").exists()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_wavs_match_per_harmonic_loop(self, tmp_path, monkeypatch, seed):
        # the same cohort, its vowels synthesized once by synthesize_speech
        # and once by the loop oracle from the same (f0, formants, seed)
        synthesize_cohort(n_female=3, n_male=3, seed=seed,
                          wav_dir=tmp_path / "fast")
        calls = []

        def loop_synth(f0, formants, duration_s, sample_rate, seed):
            calls.append(f0)
            return AudioClip(oracles.synthesize_speech_loop(
                f0, formants, duration_s, sample_rate, seed), sample_rate)

        monkeypatch.setattr(D, "synthesize_speech", loop_synth)
        records = synthesize_cohort(n_female=3, n_male=3, seed=seed,
                                    wav_dir=tmp_path / "loop")
        assert len(calls) == 6
        for r in records:
            fast = (tmp_path / "fast" / f"{r.id}.wav").read_bytes()
            loop = (tmp_path / "loop" / f"{r.id}.wav").read_bytes()
            assert fast == loop, r.id

    def test_planted_correlation(self):
        rs = []
        for seed in range(10):
            recs = synthesize_cohort(seed=seed)
            sbp = [(r.sbp_initial + r.sbp_final) / 2 for r in recs]
            dbp = [(r.dbp_initial + r.dbp_final) / 2 for r in recs]
            _, R = correlation_matrix({"sbp": sbp, "dbp": dbp})
            rs.append(R[0, 1])
        assert all(0.7 <= r <= 0.9 for r in rs)

    def test_empty_cohort_allowed(self):
        assert synthesize_cohort(n_female=0, n_male=0, seed=0) == []


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = synthesize_cohort(n_female=3, n_male=2, seed=1)
        p = tmp_path / "manifest.csv"
        write_manifest(p, records)
        back = read_manifest(p)
        assert back == records

    def test_header(self, tmp_path):
        p = tmp_path / "manifest.csv"
        write_manifest(p, [])
        assert p.read_text().splitlines()[0] == (
            "id,sex,age,sbp_initial,sbp_final,dbp_initial,dbp_final,"
            "heart_rate,wav_path")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("id,sex\nA,F\n")
        want = re.escape(f"{p}: line 1: unexpected manifest header")
        with pytest.raises(MalformedArtifact, match=want):
            read_manifest(p)

    @pytest.mark.parametrize("text", ["", "id,sex\n"], ids=["empty", "short"])
    def test_empty_or_short_header_rejected(self, tmp_path, text):
        p = tmp_path / "manifest.csv"
        p.write_text(text)
        want = re.escape(f"{p}: line 1: unexpected manifest header")
        with pytest.raises(MalformedArtifact, match=want):
            read_manifest(p)

    @pytest.mark.parametrize("column, value, message", [
        ("age", "200", r"age 200 outside \(20, 70\)"),
        ("sex", "X", "sex must be F or M"),
        ("sbp_final", "300", r"final SBP 300.0 outside \[60.0, 260.0\]"),
        ("dbp_initial", "159", "initial DBP must stay below SBP"),
        # float() reads these, but no heart rate is one
        ("heart_rate", "nan", "heart rate nan is not finite"),
        ("heart_rate", "inf", "heart rate inf is not finite"),
        ("heart_rate", "-inf", "heart rate -inf is not finite"),
    ], ids=["age", "sex", "sbp", "dbp-above-sbp", "heart_rate-nan",
            "heart_rate-inf", "heart_rate-neg-inf"])
    def test_invalid_record_is_malformed(self, tmp_path, column, value,
                                         message):
        p = tmp_path / "manifest.csv"
        write_manifest(p, synthesize_cohort(n_female=2, n_male=2, seed=1))
        lines = p.read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedArtifact,
                           match=re.escape(f"{p}: line 4: ") + message):
            read_manifest(p)

    @pytest.mark.parametrize("cut", [-1, 1], ids=["cell-short", "cell-extra"])
    def test_ragged_row_is_malformed(self, tmp_path, cut):
        p = tmp_path / "manifest.csv"
        write_manifest(p, synthesize_cohort(n_female=2, n_male=2, seed=1))
        lines = p.read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:cut] if cut < 0 else cells + ["x"])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedArtifact, match="line 3"):
            read_manifest(p)

    def test_missing_heart_rate(self, tmp_path):
        r = ParticipantRecord(id="A", sex="F", age=30, sbp_initial=120.0,
                              sbp_final=118.0, dbp_initial=80.0,
                              dbp_final=78.0, heart_rate=None)
        p = tmp_path / "manifest.csv"
        write_manifest(p, [r])
        assert read_manifest(p)[0].heart_rate is None


class TestCorrelation:
    def test_self_correlation(self):
        x = [1.0, 2.0, 5.0, 3.0]
        _, R = correlation_matrix({"a": x, "b": x})
        assert R[0, 1] == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        _, R = correlation_matrix({"a": x, "b": -x})
        assert R[0, 1] == pytest.approx(-1.0)

    def test_hand_computed_pair(self):
        _, R = correlation_matrix({"x": [1.0, 2.0, 3.0],
                                   "y": [2.0, 4.0, 7.0]})
        assert R[0, 1] == pytest.approx(0.9934, abs=5e-5)
        assert R[0, 1] == pytest.approx(
            oracles.pearson_oracle([1, 2, 3], [2, 4, 7]), rel=1e-12)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(14)
        cols = {f"c{i}": rng.normal(size=40) for i in range(5)}
        names, R = correlation_matrix(cols)
        assert names == [f"c{i}" for i in range(5)]
        assert np.all(np.diag(R) == 1.0)
        np.testing.assert_array_equal(R, R.T)
        assert np.all(np.abs(R) <= 1.0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        cols = {f"c{i}": rng.normal(size=30) for i in range(6)}
        _, R = correlation_matrix(cols)
        assert np.min(np.linalg.eigvalsh(R)) > -1e-9

    def test_constant_column(self):
        with pytest.raises(InsufficientData, match="constant column a"):
            correlation_matrix({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]})

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            correlation_matrix({"a": [1.0, 2.0], "b": [2.0, 1.0]})

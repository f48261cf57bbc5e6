"""The three workloads: set-up, timed passes, and the checks on their outputs.

Every `bp` call goes through `speechbp.cli.main` in-process.  Set-up and the
checks run in the benchmark's parent process; the timed passes run in a
worker process (worker.py), so that the worker's peak RSS covers only the
timed stages.

Each workload measures a unit of work that a user waits for:

- cohort-pipeline: one extract -> select -> train -> eval -> report pass
  over the default 95-participant cohort (`bp synth` is set-up);
- predict-wav: one `bp predict --wav` request, closed loop, one client, no
  think time, against a model trained in set-up;
- cohort-1k-select: one select -> report pass over 1000 participants whose
  feature table set-up writes directly (no audio).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speechbp import audio_io, cli, dataset, features

PIPELINE_STAGES = ("extract", "select", "train", "eval", "report")
SELECT_STAGES = ("select", "report")
PREDICT_KEYS = ("dbp_mmhg", "hypertensive", "input", "sbp_mmhg")

# cohort-pipeline is deterministic, so its held-out MAE may drift from the
# reference in SIZES only by reordered float arithmetic; a drift beyond
# MAE_TOLERANCE (relative) means the program computes something else.
MAE_TOLERANCE = 0.05

# The request mix of predict-wav.  Each pass holds one ordinary clip per cell
# of (voiced-duration bucket x sample rate x channels), with the voiced share
# below one half.  Each cell owns a fixed sub-interval of the log-spread
# duration range, so every seed draws the same shares and nearly the same
# durations; only the values inside a cell vary.  A pass also holds
# OVER_HALF clips whose voiced share is above one half, where today's voiced
# gate (2 x the clip's median frame RMS) finds no region and `bp predict`
# exits 6, and one noise-only clip, which must exit 6 on any correct program.
RATES = (16000, 44100, 48000)
CHANNELS = (1, 2)
ORDINARY_SHARE = (0.35, 0.45)
OVER_HALF_SHARE = (0.58, 0.68)
NOISE_LEVEL = 5e-4
SILENT_SECONDS = 3.0
SHARE_ORDER = 11  # coprime to the clip counts, so the shares are a permutation
VOICE_BASE_SECONDS = 0.6
VOICE_RAMP_SECONDS = 0.06  # synthesize_speech fades this much at each end

# a small cohort whose seed gives six participants in each class, enough for
# two-fold selection; the forward cost depends on the encoder's shapes only
PREDICT_MODEL = {"seed": 10, "cohort": {"n_female": 6, "n_male": 6},
                 "selection": {"folds": 2, "k_grid": [1, 2]},
                 "training": {"epochs": 2, "learning_rate": 1e-3}}

SIZES = {
    "full": {
        "cohort-pipeline": {
            # the ROADMAP baseline (seed 7, learning rate 1e-3) at 10 epochs
            # instead of 40, so that two passes fit in a run; train time is
            # linear in the epoch count
            "config": {"seed": 7,
                       "training": {"epochs": 10, "learning_rate": 1e-3}},
            "reference": {"n": 19, "sbp_mae": 9.376807303169887,
                          "dbp_mae": 9.922387775885765},
        },
        "predict-wav": {"model": PREDICT_MODEL,
                        "voiced_seconds": (1.0, 12.0), "buckets": 5,
                        "over_half": 7},
        "cohort-1k-select": {"n_female": 480, "n_male": 520, "config": {}},
    },
    "smoke": {
        "cohort-pipeline": {
            # seed 10 balances the classes of a 12-participant cohort
            "config": {"seed": 10, "cohort": {"n_female": 6, "n_male": 6},
                       "selection": {"folds": 2, "k_grid": [1]},
                       "training": {"epochs": 1, "learning_rate": 1e-3}},
            "reference": {"n": 2, "sbp_mae": 14.153877049285072,
                          "dbp_mae": 14.379742243782992},
        },
        "predict-wav": {"model": PREDICT_MODEL,
                        "voiced_seconds": (0.4, 0.8), "buckets": 1,
                        "over_half": 1},
        "cohort-1k-select": {"n_female": 20, "n_male": 20,
                             "config": {"selection": {"folds": 3}}},
    },
}


class SetupFailed(RuntimeError):
    pass


def bp(*argv, tracer=None):
    """One `bp` invocation: (exit code, seconds, stdout).

    A tracer, when given, files the call's spans under the subcommand and,
    for predict, the WAV file.
    """
    if tracer is not None:
        tracer.context = " ".join(argv[:1] + argv[3:])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def write_config(workdir: Path, config: dict) -> str:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(dict(config, workdir=str(workdir))))
    return str(path)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else math.nan


@dataclass
class Assessment:
    """What the parent derives from the timed passes."""
    latencies: list = field(default_factory=list)  # completed units, seconds
    units: int = 0                                 # units attempted
    invocations: int = 0                           # `bp` calls attempted
    exit_zero: int = 0
    failures: list = field(default_factory=list)   # check failures, by call
    named: dict = field(default_factory=dict)      # name -> (value, unit)


class Workload:
    name = ""
    setup_repeats = 3
    min_passes = 2  # the determinism checks compare passes
    aliases: dict = {}

    def __init__(self, size: str, seed: int, work: Path):
        self.params = SIZES[size][self.name]
        self.seed = seed
        self.work = Path(work)
        self.tracer = None

    def bp(self, *argv):
        return bp(*argv, tracer=self.tracer)

    def setup_dir(self, i: int) -> Path:
        return self.work / f"setup-{i}"

    def prepare(self):
        """Untimed input generation after set-up."""

    def final_check(self, passes) -> list:
        """Checks that run once per invocation, outside the timed region."""
        return []


class CohortPipeline(Workload):
    """The paper's batch experiment on the default cohort.

    The config is fixed (seed 7, the ROADMAP baseline's learning rate) so
    its held-out MAE can be checked against a recorded reference; --seed
    does not change its inputs.  Passes alternate between set-up
    directories, so the byte-determinism check also spans workdirs.
    """
    name = "cohort-pipeline"
    setup_repeats = 2

    def config_path(self, i):
        return write_config(self.setup_dir(i), self.params["config"])

    def setup(self, i):
        code, _, _ = self.bp("synth", "--config", self.config_path(i))
        if code != 0:
            raise SetupFailed(f"bp synth exited {code}")

    def run_pass(self, i):
        d = self.setup_dir(i % self.setup_repeats)
        config = self.config_path(i % self.setup_repeats)
        stages = []
        for stage in PIPELINE_STAGES:
            code, seconds, _ = self.bp(stage, "--config", config)
            stages.append((stage, code, seconds))
            if code != 0:
                break
        metrics = d / "metrics.json"
        params = d / "model" / "params.bin"
        done = len(stages) == len(PIPELINE_STAGES) and code == 0
        return {"stages": stages,
                "metrics": metrics.read_text() if done else None,
                "digests": [sha256(metrics), sha256(params)] if done else None}

    def assess(self, passes) -> Assessment:
        a = Assessment()
        ref = self.params["reference"]
        per_stage = {stage: [] for stage in PIPELINE_STAGES}
        maes = {"sbp": [], "dbp": []}
        for p in passes:
            a.units += 1
            a.invocations += len(p["stages"])
            for stage, code, seconds in p["stages"]:
                if code == 0:
                    a.exit_zero += 1
                    per_stage[stage].append(seconds)
                else:
                    a.failures.append(f"bp {stage} exited {code}")
            if p["metrics"] is None:
                continue
            a.latencies.append(sum(s for _, _, s in p["stages"]))
            m = json.loads(p["metrics"])
            if m.get("n") != ref["n"]:
                a.failures.append(f"metrics.json n={m.get('n')}, "
                                  f"expected {ref['n']}")
            for head, values in maes.items():
                got, want = m[head]["mae"], ref[f"{head}_mae"]
                values.append(got)
                if not abs(got - want) <= MAE_TOLERANCE * want:
                    a.failures.append(f"{head} MAE {got} is not within "
                                      f"{MAE_TOLERANCE:.0%} of {want}")
        digests = {tuple(p["digests"]) for p in passes if p["digests"]}
        if len(digests) > 1:
            a.failures.append("metrics.json / params.bin differ between "
                              "passes of one invocation")
        a.named = {
            "pipeline_s": (median(a.latencies), "s"),
            "extract_s": (median(per_stage["extract"]), "s"),
            "train_s": (median(per_stage["train"]), "s"),
            "sbp_mae_mmhg": (median(maes["sbp"]), "mmHg"),
            "dbp_mae_mmhg": (median(maes["dbp"]), "mmHg"),
        }
        return a


class PredictWav(Workload):
    """Single-recording inference; the request mix comes from --seed."""
    name = "predict-wav"
    # A pass takes 5-8 s.  Five passes keep the sample count (and so the
    # tail's percentile) the same from run to run, and span enough time to
    # average over the CPU-speed swings of a shared machine.
    setup_repeats = 2
    min_passes = 5
    # the workload's own names for end-to-end metrics
    aliases = {"predict_p50_ms": "latency_p50_ms",
               "predict_tail_ms": "latency_tail_ms",
               "predict_per_s": "throughput_per_s"}

    def config_path(self, i):
        return write_config(self.setup_dir(i), self.params["model"])

    def setup(self, i):
        config = self.config_path(i)
        for stage in ("synth", "extract", "select", "train"):
            code, _, _ = self.bp(stage, "--config", config)
            if code != 0:
                raise SetupFailed(f"bp {stage} exited {code}")

    def requests(self):
        return request_mix(self.seed, self.params["voiced_seconds"],
                           self.params["buckets"], self.params["over_half"],
                           self.work / "requests")

    def prepare(self):
        (self.work / "requests").mkdir(parents=True, exist_ok=True)
        for spec in self.requests():
            write_request(spec)

    def run_pass(self, i):
        config = self.config_path(0)
        return {"requests": [
            (spec["path"],) + self.bp("predict", "--config", config,
                                 "--wav", spec["path"])
            for spec in self.requests()]}

    def final_check(self, passes):
        # every set-up trains the same model, byte for byte
        digests = {sha256(self.setup_dir(i) / "model" / "params.bin")
                   for i in range(self.setup_repeats)}
        return [] if len(digests) == 1 else [
            "set-ups trained different params.bin"]

    def assess(self, passes) -> Assessment:
        a = Assessment()
        kinds = {spec["path"]: spec["kind"] for spec in self.requests()}
        seen = {}
        nonzero = 0
        for p in passes:
            for path, code, seconds, stdout in p["requests"]:
                a.units += 1
                a.invocations += 1
                kind = kinds[path]
                if code == 0:
                    a.exit_zero += 1
                    a.latencies.append(seconds)
                    problem = ("a noise-only clip was accepted"
                               if kind == "noise"
                               else check_prediction(stdout, path))
                else:
                    nonzero += 1
                    # exit 6 is right for noise, and today's answer for
                    # clips voiced more than half of the time
                    problem = (None if code == 6 and kind != "voiced"
                               else f"exit {code}")
                if seen.setdefault(path, (code, stdout)) != (code, stdout):
                    problem = "a repeated request printed different output"
                if problem:
                    a.failures.append(f"predict {Path(path).name}: {problem}")
        a.named = {"predict_fail_ratio": (nonzero / a.units, "ratio")}
        return a


class Cohort1kSelect(Workload):
    """ReliefF selection at scale; the feature table comes from --seed."""
    name = "cohort-1k-select"
    setup_repeats = 7  # a set-up takes about 0.1 s; more samples steady it

    def config_path(self, i):
        return write_config(self.setup_dir(i),
                            dict(self.params["config"], seed=self.seed))

    def setup(self, i):
        d = self.setup_dir(i)
        self.config_path(i)
        write_select_inputs(d, self.params["n_female"], self.params["n_male"],
                            self.seed)

    def run_pass(self, i):
        config = self.config_path(0)
        d = self.setup_dir(0)
        stages = [(stage,) + self.bp(stage, "--config", config)[:2]
                  for stage in SELECT_STAGES]
        done = all(code == 0 for _, code, _ in stages)
        return {"stages": stages,
                "selection": (d / "selection.json").read_text() if done
                else None,
                "weights": (d / "weights.csv").read_text() if done else None}

    def assess(self, passes) -> Assessment:
        a = Assessment()
        select_times = []
        for p in passes:
            a.units += 1
            a.invocations += len(p["stages"])
            codes = [code for _, code, _ in p["stages"]]
            a.exit_zero += codes.count(0)
            for stage, code, seconds in p["stages"]:
                if code != 0:
                    a.failures.append(f"bp {stage} exited {code}")
                elif stage == "select":
                    select_times.append(seconds)
            if any(codes):
                continue
            a.latencies.append(sum(s for _, _, s in p["stages"]))
            if not json.loads(p["selection"])["kept"]:
                a.failures.append("selection.json keeps no feature")
        if len({(p["selection"], p["weights"]) for p in passes
                if p["selection"]}) > 1:
            a.failures.append("selection differs between passes")
        a.named = {"select_s": (median(select_times), "s")}
        return a

    def final_check(self, passes):
        """Final weights against the brute-force oracle at the chosen k."""
        if passes[-1]["selection"] is None:
            return []  # the failed stage is already counted
        d = self.setup_dir(0)
        records = dataset.read_manifest(d / "manifest.csv")
        ids, names, X, manifest = features.read_features_csv(
            d / "features.csv", d / "features.json")
        vectors = {pid: features.FeatureVector(
            names=names, values=row, n_segments=1,
            schema_id=manifest["schema_id"]) for pid, row in zip(ids, X)}
        examples = dataset.build_examples(records, vectors)
        X = np.array([ex.features.values for ex in examples])
        y = np.array([ex.hypertension for ex in examples])
        k = json.loads(passes[-1]["selection"])["chosen_k"]
        rows = passes[-1]["weights"].splitlines()[1:]
        got = np.array([float(row.split(",")[1]) for row in rows])
        want = np.array(load_oracles().relieff_oracle(X, y, k))
        if got.shape != want.shape or np.max(np.abs(got - want)) >= 1e-9:
            return [f"weights.csv differs from relieff_oracle at k={k}"]
        return []


WORKLOADS = {w.name: w for w in (CohortPipeline, PredictWav, Cohort1kSelect)}


def load_oracles():
    import importlib.util
    path = Path(cli.__file__).resolve().parents[2] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("speechbp_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_prediction(stdout: str, path: str):
    """None when `bp predict` printed what the README promises."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} stdout lines"
    out = json.loads(lines[0])
    if tuple(sorted(out)) != PREDICT_KEYS:
        return f"keys {sorted(out)}"
    if out["input"] != path:
        return f"input {out['input']!r}"
    sbp, dbp = out["sbp_mmhg"], out["dbp_mmhg"]
    if not all(isinstance(v, float) and math.isfinite(v) for v in (sbp, dbp)):
        return "non-finite prediction"
    sbp_c = min(max(sbp, dataset.SBP_RANGE[0]), dataset.SBP_RANGE[1])
    dbp_c = min(max(dbp, dataset.DBP_RANGE[0]), dataset.DBP_RANGE[1])
    label = int(sbp_c > dataset.SBP_THRESHOLD or dbp_c > dataset.DBP_THRESHOLD)
    if out["hypertensive"] != label:
        return f"hypertensive={out['hypertensive']}, threshold rule {label}"
    return None


# --- generated inputs -------------------------------------------------------

def request_mix(seed: int, voiced_seconds, buckets: int, over_half: int,
                directory: Path):
    """The clips of one pass, in the order they are requested."""
    rng = np.random.default_rng((seed, 2))
    lo, hi = np.log(voiced_seconds[0]), np.log(voiced_seconds[1])
    cells = [(rate, ch) for rate in RATES for ch in CHANNELS]
    n = buckets * len(cells)

    def clip(kind, stratum, strata, rate, channels, share):
        # duration and voiced share each come from a fixed sub-interval;
        # the share's sub-intervals run in a shuffled but fixed order
        log_d = lo + (hi - lo) * (stratum + rng.uniform()) / strata
        share_at = (SHARE_ORDER * stratum % strata + rng.uniform()) / strata
        sbp = float(rng.uniform(95.0, 150.0))
        return {"kind": kind, "rate": rate, "channels": channels,
                "voiced_s": float(np.exp(log_d)),
                "share": share[0] + (share[1] - share[0]) * share_at,
                "sbp": sbp,
                "dbp": float(rng.uniform(55.0, min(95.0, sbp - 10.0))),
                "seed": int(rng.integers(2 ** 31))}

    specs = [clip("voiced", i, n, *cells[i % len(cells)], ORDINARY_SHARE)
             for i in range(n)]
    specs += [clip("over-half", i, over_half, RATES[i % len(RATES)],
                   CHANNELS[i % len(CHANNELS)], OVER_HALF_SHARE)
              for i in range(over_half)]
    specs.append({"kind": "noise", "rate": RATES[0], "channels": 1,
                  "seed": int(rng.integers(2 ** 31))})
    order = rng.permutation(len(specs))
    return [dict(specs[j], path=str(directory / f"clip{j:02d}.wav"))
            for j in order]


def write_request(spec: dict) -> None:
    """A vowel of the planted voice between two noise pads, as a WAV file."""
    rate = spec["rate"]
    rng = np.random.default_rng((spec["seed"], 1))
    if spec["kind"] == "noise":
        samples = rng.normal(0.0, NOISE_LEVEL, int(SILENT_SECONDS * rate))
    else:
        f0, formants = dataset.planted_voice(dataset.DEFAULT_PROFILE,
                                             spec["sbp"], spec["dbp"])
        base = audio_io.synthesize_speech(f0, formants, VOICE_BASE_SECONDS,
                                          rate, seed=spec["seed"]).samples
        ramp = int(round(VOICE_RAMP_SECONDS * rate))
        core = base[ramp:-ramp]  # tile without the fades, so no dips
        n_voiced = int(round(spec["voiced_s"] * rate))
        voiced = np.tile(core, -(-n_voiced // len(core)))[:n_voiced]
        pad = int(round(spec["voiced_s"] * (1.0 / spec["share"] - 1.0)
                        / 2.0 * rate))
        samples = np.concatenate([rng.normal(0.0, NOISE_LEVEL, pad), voiced,
                                  rng.normal(0.0, NOISE_LEVEL, pad)])
    audio_io.write_wav(spec["path"], samples, rate, channels=spec["channels"])


SIGNAL_WEIGHT = 1.5


def write_select_inputs(d: Path, n_female: int, n_male: int, seed: int):
    """manifest.csv plus a base-schema feature table with a planted signal.

    mfcc1 tracks SBP, mfcc2 tracks DBP and mfcc3 their sum; the other
    fourteen columns are noise.
    """
    records = dataset.synthesize_cohort(n_female=n_female, n_male=n_male,
                                        seed=seed, wav_dir=None)
    dataset.write_manifest(d / "manifest.csv", records)
    targets = np.array([dataset.mean_of_measurements(r) for r in records])
    z = (targets - targets.mean(axis=0)) / targets.std(axis=0)
    X = np.random.default_rng((seed, 1)).standard_normal(
        (len(records), len(features.BASE_NAMES)))
    X[:, 0] += SIGNAL_WEIGHT * z[:, 0]
    X[:, 1] += SIGNAL_WEIGHT * z[:, 1]
    X[:, 2] += SIGNAL_WEIGHT * (z[:, 0] + z[:, 1]) / 2.0
    vectors = [features.FeatureVector(names=features.BASE_NAMES, values=row,
                                      n_segments=1,
                                      schema_id=features.BASE_SCHEMA)
               for row in X]
    features.write_features_csv(d / "features.csv", d / "features.json",
                                [r.id for r in records], vectors,
                                parameters={"schema": features.BASE_SCHEMA})

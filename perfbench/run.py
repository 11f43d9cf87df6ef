#!/usr/bin/env python3
"""bootmctp benchmark: HRV analysis latency and Monte Carlo study throughput.

Run from the repository root, for example:

    python3 perfbench/run.py --workload hrv_analyze --seed 1 --seconds 15 --trace 0

The load is a closed loop with one caller in one process: the next
operation starts when the previous one has returned.  With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics of a traced run and the tracing overhead.  Every
operation's output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported; child
# processes (set-up probes, study pool workers) inherit the setting.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ALPHA = 0.05
CHECK_SEED = 20250809  # the CLI default seed; digests are printed for it
SETUP_PROBES = 3  # set-ups per run, this process included; setup_s is their median
MIN_OPS = 5
POOL_WORKERS = 2

HRV_OUTCOMES = ("SDNN", "RMSSD", "HF", "VLF", "LF")
HRV_COVARIATES = ("HGSHA", "PSS")

# Every traced bootmctp function, named relative to the package.
TRACED = (
    "dataset.load_csv", "dataset.validate",
    "design.build_design", "design.fit_ols",
    "covariance.hc4_weights", "covariance.sandwich",
    "contrasts.build_family",
    "_rng.substream", "_rng.derive_seed",
    "bootstrap.run_bootstrap",
    "mctp.run_mctp", "mctp.test_statistics", "mctp.adjust_level",
    "mctp.contrast_quantiles", "mctp.local_p_values",
    "mctp.confidence_intervals", "mctp.format_result_table",
    "simgen.gen_dataset", "simgen.run_study",
)

# What the unmodified package gives at CHECK_SEED, for the full-size and the
# smoke-size workloads: the SHA-256 of the A_star matrices of each scheme,
# in call order, and the decisions.  A value that differs counts as a failed
# operation.  A change that moves the draws on purpose must record the new
# values here and say why.
REFERENCE = {
    ("hrv_analyze", False): {
        "sha256(A_star wild)": "ec22fe2c964d0359ed4f4f9d9da572540642eaefa2dc10ca00580a814a50fea6",
        "sha256(A_star parametric)": "c3d553acb99668dcf931ac595cbfe3735f47d7b8d63feb7fb18fcf720a3ce709",
        "gamma wild": "0.0155",
        "rejected wild": "hypnosis - control, SDNN; hypnosis - control, VLF",
        "gamma parametric": "0.0145",
        "rejected parametric": "hypnosis - control, SDNN; hypnosis - control, VLF",
    },
    ("study_small", False): {
        "sha256(A_star wild)": "aa7086556bf37b636623c1c23a88c7e6ba12691fea5ce10b7e393d46e8c57441",
        "sha256(A_star parametric)": "1284ef655f20c94af53c5e8173a7a5dd01bc06e99908417ccf8ae8d115476bae",
        "rejections wild": "2/4",
        "rejections parametric": "2/4",
    },
    ("study_large", False): {
        "sha256(A_star wild)": "116091cddbc210e46aa9c6585238b328e694ffb6cf244482ab1dbce74cba2677",
        "sha256(A_star parametric)": "6ffa37f2c122bbb2afa6b48f1610e34e60580dfa486c403d7efc16eeff59a70a",
        "rejections wild": "0/1",
        "rejections parametric": "0/1",
    },
    ("hrv_analyze", True): {
        "sha256(A_star wild)": "25b06c17bc8666c1b0a594688a4a9643a651591429ef640eece551b1359ebbc4",
        "sha256(A_star parametric)": "20badbeca2c312c98e635daa5cd6fa1535607b3dee3c2f7c70791a02fa4d2ab2",
        "gamma wild": "0.0",
        "rejected wild": "hypnosis - control, SDNN; hypnosis - control, VLF",
        "gamma parametric": "0.0",
        "rejected parametric": "hypnosis - control, VLF",
    },
    ("study_small", True): {
        "sha256(A_star wild)": "4d10cf3dfff47f520c96b64403f2eb3733ad4e37fe9913fe7887a18873e3d660",
        "sha256(A_star parametric)": "c2fa10d5acdb6939d69e81754d9cd1b2cb908fb2905efea5f0d6d6d9acd36677",
        "rejections wild": "2/2",
        "rejections parametric": "2/2",
    },
    ("study_large", True): {
        "sha256(A_star wild)": "553759a42d6bc68cfe5a54966dca679d9570a4afa7f43922d0e17eee95564576",
        "sha256(A_star parametric)": "ca5272c302a41ed92d29595fefa473c731eb7a8ebbf4ccd4cecfc075a050ac37",
        "rejections wild": "0/1",
        "rejections parametric": "0/1",
    },
}
ORACLE_TOL = 1e-9  # dense recomputation of A_star rows vs the package


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


clock = time.perf_counter


def import_package():
    """Import bootmctp from this checkout's src/; return (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = clock()
    try:
        import bootmctp
    except ImportError as exc:
        raise BenchError(f"cannot import bootmctp from {src}: {exc}") from None
    elapsed = clock() - start
    where = Path(bootmctp.__file__).resolve().parent
    if where != (src / "bootmctp").resolve():
        raise BenchError(f"bootmctp was imported from {where}, not from {src}")
    return bootmctp, elapsed


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError(f"reference implementations not found: {path}")
    spec = importlib.util.spec_from_file_location("bootmctp_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(matrices) -> str:
    h = hashlib.sha256()
    for A in matrices:
        h.update(A.tobytes())
    return h.hexdigest()


class HrvAnalyze:
    """Wild, then parametric ``run_mctp`` on the bundled HRV dataset.

    One operation analyses the dataset with both schemes; each analysis
    includes ``format_result_table`` and ``to_json`` as the CLI does.
    """

    name = "hrv_analyze"
    datasets_per_op = 1

    def __init__(self, bm, B):
        """Load and validate the dataset; build the contrasts."""
        self.bm = bm
        self.B = B
        path = ROOT / "data" / "hrv_synthetic.csv"
        if not path.is_file():
            raise BenchError(f"input dataset not found: {path}")
        schema = bm.CsvSchema(group="group", outcomes=HRV_OUTCOMES,
                              covariates=HRV_COVARIATES)
        start = clock()
        self.ds = ds = bm.load_csv(path, schema)
        self.setup_ms = {"dataset.load_csv.ms": (clock() - start) * 1e3}
        report = bm.validate(ds)
        if not report.ok:
            raise BenchError("HRV dataset not admissible: " + "; ".join(report.errors))
        self.contrasts = bm.build_family("two_sample", ds.k, ds.d,
                                         group_names=ds.groups,
                                         outcome_names=ds.outcome_names)

    def warm_up(self):
        self._analyze("wild", CHECK_SEED)

    def _analyze(self, kind, seed):
        bm = self.bm
        cfg = bm.BootstrapConfig(kind=kind, B=self.B, seed=seed)
        result = bm.mctp.run_mctp(self.ds, self.contrasts, cfg, ALPHA, keep_draws=True)
        bm.mctp.format_result_table(result)
        result.to_json()
        return result

    def run(self, seed, workers=1):
        """One operation; returns (results, per-scheme seconds)."""
        results, parts = [], {}
        for kind in ("wild", "parametric"):
            start = clock()
            results.append(self._analyze(kind, seed))
            parts[kind] = clock() - start
        return results, parts

    def fingerprint(self, results):
        return digest([res.draws.A_star for res in results])

    def check(self, results, oracles) -> list[str]:
        problems = []
        for res in results:
            expected = oracles.scan_adjust_level(res.draws.A_star, ALPHA)
            if res.gamma != expected:
                problems.append(f"{res.kind} seed={res.seed}: gamma {res.gamma!r} "
                                f"!= grid scan {expected!r}")
            for o in res.contrasts:
                if o.reject != (o.p_value <= res.gamma):
                    problems.append(f"{res.kind} seed={res.seed} {o.label}: decision "
                                    f"{o.reject} but p={o.p_value!r}, gamma={res.gamma!r}")
        return problems

    def decisions(self, results):
        out = {}
        for res in results:
            out[f"gamma {res.kind}"] = repr(res.gamma)
            out[f"rejected {res.kind}"] = "; ".join(
                o.label for o in res.contrasts if o.reject) or "none"
        return out


class Study:
    """``run_study`` cells; one operation is one cell of ``runs`` runs."""

    def __init__(self, bm, name, scenarios, runs, B):
        self.bm = bm
        self.name = name
        self.scenarios = scenarios
        self.runs = runs
        self.B = B
        self.datasets_per_op = runs * len(scenarios)
        self.setup_ms = {}

    def warm_up(self):
        self.bm.simgen.run_study(self.scenarios, runs=1, B=self.B, alpha=ALPHA,
                                 seed=CHECK_SEED)

    def run(self, seed, workers=1):
        results = self.bm.simgen.run_study(self.scenarios, runs=self.runs, B=self.B,
                                           alpha=ALPHA, seed=seed, workers=workers)
        return results, {}

    def fingerprint(self, results):
        return tuple(r.rate for r in results)

    def check(self, results, oracles) -> list[str]:
        problems = []
        if len(results) != 2 * len(self.scenarios):
            problems.append(f"{len(results)} study results for "
                            f"{len(self.scenarios)} scenarios")
        for res in results:
            hits = res.rate * res.runs / 100.0
            if (res.runs != self.runs or res.B != self.B
                    or not 0.0 <= res.ci_lower <= res.rate <= res.ci_upper <= 100.0
                    or abs(hits - round(hits)) > 1e-9):
                problems.append(f"malformed study result: {res}")
        return problems

    def decisions(self, results):
        return {f"rejections {r.method}": f"{round(r.rate * r.runs / 100.0)}/{r.runs}"
                for r in results}


def make_workload(name, bm, smoke=False):
    if name == "hrv_analyze":
        return HrvAnalyze(bm, B=50 if smoke else 2000)
    B = 50 if smoke else 1000
    if name == "study_small":
        scenario = bm.SimScenario(k=3, d=2, distribution="normal", covariance=1,
                                  sample_pattern=1, contrast_family="dunnett")
        return Study(bm, name, [scenario], runs=2 if smoke else 4, B=B)
    if name == "study_large":
        scenario = bm.SimScenario(k=4, d=5, multiplier=10, contrast_family="tukey")
        return Study(bm, name, [scenario], runs=1, B=B)
    raise BenchError(f"unknown workload '{name}'")


WORKLOADS = ("hrv_analyze", "study_small", "study_large")


def op_seeds(seed):
    """Endless deterministic sequence of per-operation seeds."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


class Loop:
    """Closed loop over operations; failures are counted, not raised."""

    def __init__(self, workload, oracles):
        self.workload = workload
        self.oracles = oracles
        self.seeds = []
        self.seconds = []
        self.parts = []
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0

    def run(self, seeds, budget_s=float("inf"), workers=1):
        """Run one operation per seed until the seeds or the time budget end."""
        start = clock()
        for i, seed in enumerate(seeds):
            if i >= MIN_OPS and clock() - start >= budget_s:
                break
            self.attempted += 1
            self.seeds.append(seed)
            t0 = clock()
            try:
                out, parts = self.workload.run(seed, workers)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"operation seed={seed} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            elapsed = clock() - t0
            problems = self.workload.check(out, self.oracles)
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)
                continue
            self.seconds.append(elapsed)
            self.parts.append(parts)
            self.fingerprints[seed] = self.workload.fingerprint(out)
        return self

    def expect_same_outputs(self, other, why):
        """Count a failure per seed whose output differs from ``other``'s."""
        for seed, mine in self.fingerprints.items():
            if other.fingerprints.get(seed, mine) != mine:
                self.failed += 1
                print(f"check failed: {why} changed the output of seed={seed}",
                      file=sys.stderr)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_probes(args, count):
    """Time import + set-up + warm-up in fresh processes; return seconds each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_line(bm):
    import numpy as np
    import scipy

    pinned = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"machine: nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} bootmctp={bm.__version__} "
            f"blas_pinning: {pinned}")


def philox(seed, index, attempt):
    """The replicate stream as the package documents it, built here anew."""
    import numpy as np

    mask = (1 << 64) - 1
    key = np.array([seed & mask, (attempt << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def dense_replicate(oracles, cfg, dm, fit, cov, H, b):
    """Recompute row ``b`` of A_star with the dense reference fits.

    The response is redrawn from replicate ``b``'s first stream, then
    refitted and studentized with ``tests/oracles.py`` (dense stacked OLS,
    dense sandwich, explicit hat matrix), not with the package's structured
    refit.  At CHECK_SEED no replicate is redrawn, so the first stream is the
    one the package used.
    """
    import numpy as np

    n, k, d = dm.n, dm.k, dm.d
    n_i = tuple(dm.n_i)
    Z = np.asarray(dm.X)[:, k:]
    lev = oracles.dense_hat_diagonal(n_i, Z)
    weights = (1.0 - lev) ** -np.minimum(4.0, lev * n / lev.sum())
    rng = philox(cfg.seed, b, 0)
    if cfg.kind == "wild":
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        Y = (signs / np.sqrt(1.0 - lev))[:, None] * fit.residuals
    else:
        u = rng.standard_normal((n, d))
        Y = np.empty((n, d))
        bounds = np.cumsum((0,) + n_i)
        for lo, hi, S in zip(bounds[:-1], bounds[1:], cov.group_sigmas):
            w, V = np.linalg.eigh(S)
            Y[lo:hi] = u[lo:hi] @ ((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)
    mu, _, resid = oracles.dense_ols(n_i, Z, Y)
    D = np.diag(oracles.dense_sandwich_block(n_i, Z, resid, weights))
    return np.sqrt(n) * (H @ mu.reshape(-1)) / np.sqrt(H**2 @ D)


def check_seed_failed(args, workload, oracles) -> bool:
    """Run one operation at CHECK_SEED and check it in depth.

    Beyond the workload's own check: every gamma computed is compared with
    the grid scan, rows 0, B/2 and B-1 of every A_star are recomputed densely,
    and the A_star digests and the decisions are compared with REFERENCE.
    Prints the digests and the decisions; returns True if anything differs.
    """
    import inspect

    import numpy as np

    bm = workload.bm
    bind_boot = inspect.signature(bm.bootstrap.run_bootstrap).bind
    bind_level = inspect.signature(bm.mctp.adjust_level).bind
    boots, problems, gammas = [], [], [0]

    def observe(name, fargs, kwargs, result, elapsed_ns):
        if name == "bootstrap.run_bootstrap":
            boots.append((bind_boot(*fargs, **kwargs).arguments, result))
        elif name == "mctp.adjust_level":
            given = bind_level(*fargs, **kwargs).arguments
            A = np.asarray(getattr(given["draws"], "A_star", given["draws"]))
            expected = oracles.scan_adjust_level(A, given["alpha"])
            gammas[0] += 1
            if result != expected:
                problems.append(f"gamma {result!r} != grid scan {expected!r}")

    try:
        with Tracer(("bootstrap.run_bootstrap", "mctp.adjust_level"), observe):
            results, _ = workload.run(CHECK_SEED)
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"check failed: seed={CHECK_SEED} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return True
    problems += workload.check(results, oracles)
    if gammas[0] == 0:
        problems.append("no adjust_level call observed; gamma left unchecked")

    rows, worst = 0, 0.0
    for a, draws in boots:
        B = draws.A_star.shape[0]
        for b in sorted({0, B // 2, B - 1}):
            row = dense_replicate(oracles, a["cfg"], a["dm"], a["fit"], a["cov"],
                                  a["contrasts"].H, b)
            got = draws.A_star[b]
            rows += 1
            if not np.allclose(got, row, rtol=ORACLE_TOL, atol=ORACLE_TOL):
                problems.append(f"{a['cfg'].kind} seed={a['cfg'].seed} A_star row {b} "
                                f"{got.tolist()} != dense refit {row!r}")
            else:
                worst = max(worst, float(np.max(np.abs(got - row))))

    record = {}
    for kind in ("wild", "parametric"):
        record[f"sha256(A_star {kind})"] = digest(
            [draws.A_star for a, draws in boots if a["cfg"].kind == kind])
    record.update(workload.decisions(results))
    print(f"check: seed={CHECK_SEED} bootstraps={len(boots)} "
          f"gammas_checked={gammas[0]} dense_rows_checked={rows} "
          f"max_abs_diff={worst:.3g}")
    reference = REFERENCE.get((workload.name, args.smoke), {})
    for key, value in record.items():
        expected = reference.get(key)
        if value == expected:
            print(f"check: {key} = {value} (as recorded)")
        else:
            print(f"check: {key} = {value} (recorded: {expected})")
            problems.append(f"check seed: {key} {value} != recorded {expected}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return bool(problems)


def end_to_end(args, workload, oracles, setup_s):
    loop = Loop(workload, oracles).run(op_seeds(args.seed), budget_s=args.seconds)
    if not loop.seconds:
        raise BenchError("every operation failed")
    # Read the peak before the dense check and the set-up probes start, so
    # that neither the reference fits nor the probe processes count.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    check_failed = check_seed_failed(args, workload, oracles)
    attempted, failed = loop.attempted + 1, loop.failed + check_failed
    setups = [setup_s] + setup_probes(args, 1 if args.smoke else SETUP_PROBES - 1)

    # Per-operation latency on a shared host is bimodal (other tenants load
    # the CPU or not), and the median jumps between the two modes from run
    # to run.  The tracked metrics are therefore the 90th percentile and
    # the throughput over the whole run; the median is printed for reference.
    n = len(loop.seconds)
    lat = [s * 1e3 for s in loop.seconds]
    metrics = {
        "setup_s": (metric(statistics.median(setups), "s"), len(setups)),
        "latency_ms.p90": (metric(p90(lat), "ms"), n),
        "runs_per_s": (metric(n * workload.datasets_per_op / sum(loop.seconds), "1/s"), n),
        "peak_rss_mb": (metric((self_kb + child_kb) / 1024.0, "MB"), 1),
    }
    print(f"info latency_ms.p50 = {statistics.median(lat):.6g} ms (samples={n})")
    for kind in ("wild", "parametric"):
        values = [p[kind] * 1e3 for p in loop.parts if kind in p]
        if values:
            print(f"info {kind}_ms.p50 = {statistics.median(values):.3f} ms "
                  f"(samples={len(values)})")
            print(f"info {kind}_ms.p90 = {p90(values):.3f} ms (samples={len(values)})")
    print(f"info failed_fraction = {failed / attempted:.6f} ({failed}/{attempted})")
    for name, (m, count) in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (samples={count})")
    return attempted, failed, {name: m for name, (m, _) in metrics.items()}


PER_LAYER_TOTAL_MS = (
    "_rng.substream", "mctp.adjust_level", "mctp.contrast_quantiles",
    "mctp.test_statistics", "design.build_design", "design.fit_ols",
    "covariance.hc4_weights", "covariance.sandwich",
)
# Layers that only some workloads exercise; printed, not in the JSON line.
REPORTED_TOTAL_MS = (
    "_rng.derive_seed", "simgen.gen_dataset", "contrasts.build_family",
    "mctp.local_p_values", "mctp.confidence_intervals", "dataset.validate",
    "mctp.format_result_table",
)


def per_layer(args, workload, oracles, import_s):
    counts = {"replicates": 0, "redraws": 0, "wild": 0, "parametric": 0}

    def observe(name, fargs, kwargs, result, elapsed_ns):
        if name == "bootstrap.run_bootstrap":
            counts["replicates"] += result.B
            counts["redraws"] += result.invalid_redraws
            counts[result.kind] += elapsed_ns

    # Each operation runs untraced and traced in turn, alternating which
    # goes first, so the wall-time difference is the tracing overhead.
    # Study cells are then rerun on a process pool, untraced: spans recorded
    # in pool workers would stay there.
    study = isinstance(workload, Study)
    budget = args.seconds * (0.4 if study else 0.5)
    untraced, traced = Loop(workload, oracles), Loop(workload, oracles)
    tracer = Tracer(TRACED, observe)
    start = clock()
    for i, seed in enumerate(op_seeds(args.seed)):
        if i >= MIN_OPS and clock() - start >= budget:
            break
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                with tracer:
                    traced.run([seed])
            else:
                untraced.run([seed])
    if not traced.seconds or len(traced.seconds) != len(untraced.seconds):
        raise BenchError("operations failed in the traced run")
    traced.expect_same_outputs(untraced, "tracing")
    pool = None
    if study:
        pool = Loop(workload, oracles).run(
            untraced.seeds[:max(MIN_OPS, len(untraced.seeds) // 2)],
            workers=POOL_WORKERS)
        pool.expect_same_outputs(untraced, f"workers={POOL_WORKERS}")
    check_failed = check_seed_failed(args, workload, oracles)

    summary = tracer.summary()
    units = len(traced.seconds) * workload.datasets_per_op

    def total_ms(name):
        return summary.get(name, {}).get("total_ns", 0) / 1e6 / units

    def self_ms(name):
        return summary.get(name, {}).get("self_ns", 0) / 1e6 / units

    replicates, redraws = counts["replicates"], counts["redraws"]
    untraced_s, traced_s = sum(untraced.seconds), sum(traced.seconds)
    metrics = {
        "rng.substream.calls": metric(
            summary.get("_rng.substream", {}).get("calls", 0) / units, "count"),
        "bootstrap.run_bootstrap.self_ms": metric(
            self_ms("bootstrap.run_bootstrap"), "ms"),
        "bootstrap.wild.ms": metric(counts["wild"] / 1e6 / units, "ms"),
        "bootstrap.parametric.ms": metric(counts["parametric"] / 1e6 / units, "ms"),
        "bootstrap.replicates": metric(replicates / units, "count"),
    }
    for name in PER_LAYER_TOTAL_MS:
        metrics[f"{name.lstrip('_')}.ms"] = metric(total_ms(name), "ms")
    metrics["setup.import_ms"] = metric(import_s * 1e3, "ms")

    print(f"info per-layer values are per dataset analysed with both schemes "
          f"({units} datasets in {len(traced.seconds)} traced operations)")
    # Redraws are 0 on every workload at this commit, so they are info only.
    print(f"info bootstrap.redraws = {redraws / units:.6g} per dataset")
    print(f"info bootstrap.useful_ratio = {replicates / (replicates + redraws):.6g}")
    for name in REPORTED_TOTAL_MS:
        if name in summary:
            print(f"info {name.lstrip('_')}.ms = {total_ms(name):.6g} ms")
    for name in ("simgen.run_study", "mctp.run_mctp"):
        if name in summary:
            print(f"info {name}.self_ms = {self_ms(name):.6g} ms")
    for name, value in workload.setup_ms.items():
        print(f"info {name} = {value:.6g} ms (set-up, once)")
    if pool is not None:
        w1 = statistics.median(untraced.seconds) * 1e3
        w2 = statistics.median(pool.seconds) * 1e3
        # A cell cannot be split over more workers than it has runs.
        overhead = w2 - w1 / min(POOL_WORKERS, workload.runs)
        print(f"info simgen.pool_overhead_ms = {overhead:.6g} ms per cell "
              f"(workers={POOL_WORKERS} {w2:.6g} ms, workers=1 {w1:.6g} ms, "
              f"samples={len(pool.seconds)}/{len(untraced.seconds)})")
    print(f"info tracing overhead = {(traced_s - untraced_s) * 1e3:.6g} ms, "
          f"{100.0 * (traced_s - untraced_s) / untraced_s:.3g}%, over "
          f"{len(traced.seconds)} operations "
          f"(traced {traced_s:.6g} s, untraced {untraced_s:.6g} s)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    loops = [untraced, traced] + ([pool] if pool else [])
    return (sum(lp.attempted for lp in loops) + 1,
            sum(lp.failed for lp in loops) + check_failed, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (B=50, few runs) for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = clock()
    try:
        bm, import_s = import_package()
        workload = make_workload(args.workload, bm, args.smoke)
        workload.warm_up()
        setup_s = clock() - start
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        oracles = load_oracles()
        print(f"# bootmctp benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
        print(machine_line(bm))
        print("load: closed loop, one caller, one process")
        if args.trace:
            attempted, failed, metrics = per_layer(args, workload, oracles, import_s)
        else:
            attempted, failed, metrics = end_to_end(args, workload, oracles, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

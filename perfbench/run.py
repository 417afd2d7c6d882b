"""Benchmark entry point for penn_mpc: one workload per invocation.

    python3 perfbench/run.py --workload explore_loop --seed 0 --seconds 30 --trace 0

``--trace 0`` sets the workload up SETUP_REPS times (the median is
``setup_s``), runs a third of the timed closed loop after each setup, checks
the outputs and reports the end-to-end metrics with tracing off. ``--trace 1``
sets up once under tracing, runs the loop untraced and then traced for half
the time each, and reports the per-layer split. Both print a human-readable
report and, as the last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 when every gate
passes, 1 when one fails, 2 when the package sources are missing. Scratch
files and reports go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3

# Metrics printed in the report but kept out of the JSON. Step times on a
# shared host switch between a fast and a slow mode (about 1.4x apart) for
# seconds at a time, so the median flips between modes from run to run; the
# mean and p90 are the steady summaries. The others are defined on one
# workload only or vary too much across seeds to hold a bound.
REPORTED_ONLY = [
    ("step_ms_p50", "ms"),
    ("ops_failed_frac", "frac"),
    ("e_lat_rms_m", "m"),
    ("exec_jrd_mean", "nats"),
    ("train_samples_per_s", "1/s"),
    ("heldout_rmse", "pooled"),
]


def _parse(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import penn_mpc from this checkout's src/, never from elsewhere; exit
    with code 2 and no result when that is impossible."""
    if not (SRC / "penn_mpc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import penn_mpc
    if SRC.resolve() not in Path(penn_mpc.__file__).resolve().parents:
        print(f"perfbench: penn_mpc imported from {penn_mpc.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    logging.getLogger("penn_mpc").setLevel(logging.ERROR)


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "git_sha": _git_sha()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs


def _fingerprints(st, res) -> dict:
    return {"setup_sha256": st.fingerprint,
            "setup_checkpoint_sha256": st.checkpoint_sha, **res.fingerprints}


def _setup_model_gates(st) -> dict:
    return {"setup_heldout_rmse_finite": math.isfinite(st.heldout_rmse),
            "setup_beats_zero_increment": st.heldout_rmse < st.zero_rmse}


def run_untraced(workloads, args, work: Path) -> dict:
    # Each setup is followed by a third of the timed loop, which spreads the
    # measured steps over the whole run and so over more of a shared host's
    # slow speed swings than one contiguous window would.
    setups, setup_s, segments = [], [], []
    for rep in range(SETUP_REPS):
        sub = work / f"setup{rep}"
        sub.mkdir()
        t0 = time.perf_counter()
        setups.append(workloads.SETUPS[args.workload](args.seed, sub))
        setup_s.append(time.perf_counter() - t0)
        segments.append(workloads.run_loop(setups[-1], args.seconds / SETUP_REPS))
    st = setups[-1]
    res = workloads.combine(segments)
    b = st.cfg.model.b
    metrics = {
        "setup_s": statistics.median(setup_s),
        "step_ms_mean": statistics.fmean(res.call_ms),
        "step_ms_p90": statistics.quantiles(res.call_ms, n=10,
                                            method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "step_ms_p50": statistics.median(res.call_ms),
        "ops_failed_frac": res.failed / len(res.call_ms),
        "train_samples_per_s": statistics.median(
            b * s.n_train * s.epochs / s.train_s for s in setups),
        "heldout_rmse": st.heldout_rmse,
        **{k: v for k, v in res.values.items()
           if k in ("e_lat_rms_m", "exec_jrd_mean")},
    }
    gates = {"setup_repeats_bit_identical":
             len({s.fingerprint for s in setups}) == 1}
    gates.update(_setup_model_gates(st))
    gates.update(res.gates)
    return {"metrics": metrics, "extra": extra, "gates": gates,
            "fingerprints": _fingerprints(st, res),
            "attempted": len(res.call_ms), "failed": res.failed,
            "samples": {"setups": len(setup_s), "steps": len(res.call_ms),
                        "setup_s_each": setup_s},
            "values": res.values}


def per_layer(tr, st, res, untraced_mean: float) -> tuple[dict, dict]:
    """Per-layer metrics and their work counts from one traced run.

    Control-step layers are totals per step, counting only spans inside
    ``mpc_step``; training layers are totals per epoch of the setup's
    ``dynamics.train``; other setup layers are totals for the one setup.
    """
    spans = tr.spans
    step_ms, step_calls, step_rows, step_flop = (
        defaultdict(float), defaultdict(int), defaultdict(int),
        defaultdict(float))
    train_ms, train_calls = defaultdict(float), defaultdict(int)
    setup_ms, setup_calls = defaultdict(float), defaultdict(int)
    child_ms = defaultdict(float)
    for i, s in enumerate(spans):
        child_ms[s.parent] += s.ms
        if s.phase == "setup":
            setup_ms[s.name] += s.ms
            setup_calls[s.name] += 1
            if tr.inside(i, "dynamics.train"):
                train_ms[s.name] += s.ms
                train_calls[s.name] += 1
        elif tr.inside(i, "mppi.mpc_step"):
            step_ms[s.name] += s.ms
            step_calls[s.name] += 1
            step_rows[s.name] += s.rows
            step_flop[s.name] += s.flop
    steps = [i for i, s in enumerate(spans)
             if s.phase == "timed" and s.name == "mppi.mpc_step"]
    n = len(steps)
    epochs = st.epochs
    fwd_s = step_ms["nn.mlp_forward"] / 1e3
    traced_mean = statistics.fmean(res.call_ms)
    m = {
        "mppi.mpc_step.self_ms":
            sum(spans[i].ms - child_ms[i] for i in steps) / n,
        "mppi.sample_perturbations.ms": step_ms["mppi.sample_perturbations"] / n,
        "dynamics.delta_batch.ms": step_ms["dynamics.delta_batch"] / n,
        "dynamics.delta_batch.rows": step_rows["dynamics.delta_batch"] / n,
        "nn.mlp_forward.ms": step_ms["nn.mlp_forward"] / n,
        "nn.mlp_forward.calls": step_calls["nn.mlp_forward"] / n,
        "nn.mlp_forward.gflop": step_flop["nn.mlp_forward"] / 1e9 / n,
        "nn.mlp_forward.gflops": step_flop["nn.mlp_forward"] / 1e9 / fwd_s,
        "jrd.jrd_batch.ms": step_ms["jrd.jrd_batch"] / n,
        "jrd.jrd_batch.rows": step_rows["jrd.jrd_batch"] / n,
        "sim.track_frame_batch.ms": step_ms["sim.track_frame_batch"] / n,
        "sim.track_frame_batch.rows": step_rows["sim.track_frame_batch"] / n,
        "mppi.invalid_rollout_frac": res.values["invalid_rollout_frac"],
        "dynamics.train.epoch_ms": setup_ms["dynamics.train"] / epochs,
        "nn.mlp_forward.train_ms": train_ms["nn.mlp_forward"] / epochs,
        "nn.mlp_backward.ms": train_ms["nn.mlp_backward"] / epochs,
        "nn.adam_step.ms": train_ms["nn.adam_step"] / epochs,
        "dynamics.evaluate_rmse.ms": train_ms["dynamics.evaluate_rmse"] / epochs,
        "dynamics.stack_samples.ms": train_ms["dynamics.stack_samples"] / epochs,
        "sim.plant_step.ms": setup_ms["sim.plant_step"],
        "sim.plant_step.calls": setup_calls["sim.plant_step"],
        "data.window_episodes.ms": setup_ms["data.window_episodes"],
        "commands.cmd_collect.ms": setup_ms["commands.cmd_collect"],
        "commands.train_set_jrd_percentile.ms":
            setup_ms["commands.train_set_jrd_percentile"],
        "trace.step_ms_mean": traced_mean,
        "trace.overhead_ms": traced_mean - untraced_mean,
    }

    # Work counts against their analytic values.
    b = st.cfg.model.b
    k, t = st.mppi_cfg.k, st.mppi_cfg.horizon
    batches = b * math.ceil(st.n_train / st.cfg.train.batch)
    want = {
        "sim.plant_step.calls": (setup_calls["sim.plant_step"], st.plant_calls),
        "mppi.sample_perturbations.calls":
            (step_calls["mppi.sample_perturbations"], n),
        "dynamics.delta_batch.calls": (step_calls["dynamics.delta_batch"], t * n),
        "dynamics.delta_batch.rows": (step_rows["dynamics.delta_batch"], k * t * n),
        "nn.mlp_forward.calls": (step_calls["nn.mlp_forward"], b * t * n),
        "nn.mlp_forward.rows": (step_rows["nn.mlp_forward"], b * k * t * n),
        "jrd.jrd_batch.rows": (step_rows["jrd.jrd_batch"],
                               k * t * n if b >= 2 else 0),
        "sim.track_frame_batch.rows": (step_rows["sim.track_frame_batch"],
                                       k * t * n if st.spec.needs_pose else 0),
        "train nn.mlp_forward.calls": (train_calls["nn.mlp_forward"],
                                       epochs * (batches + b)),
        "train nn.mlp_backward.calls": (train_calls["nn.mlp_backward"],
                                        epochs * batches),
        "train nn.adam_step.calls": (train_calls["nn.adam_step"], epochs * batches),
        "train dynamics.evaluate_rmse.calls":
            (train_calls["dynamics.evaluate_rmse"], epochs),
        "train dynamics.stack_samples.calls":
            (train_calls["dynamics.stack_samples"], 1 + epochs),
    }
    counts = {name: {"measured": got, "analytic": exp}
              for name, (got, exp) in want.items()}
    return m, counts


def run_traced(workloads, spans, args, work: Path) -> dict:
    tr = spans.Tracer()
    tr.install()
    try:
        st = workloads.SETUPS[args.workload](args.seed, work)
    finally:
        tr.uninstall()
    # half the time untraced, half traced, so a traced run costs no more
    # measured time than an untraced one
    untraced = workloads.run_loop(st, args.seconds / 2)
    tr.phase = "timed"
    tr.install()
    try:
        res = workloads.run_loop(st, args.seconds / 2)
    finally:
        tr.uninstall()
    metrics, counts = per_layer(tr, st, res, statistics.fmean(untraced.call_ms))
    gates = {f"count {name}": c["measured"] == c["analytic"]
             for name, c in counts.items()}
    gates.update(_setup_model_gates(st))
    gates.update(res.gates)
    return {"metrics": metrics, "counts": counts, "gates": gates,
            "fingerprints": _fingerprints(st, res),
            "attempted": len(res.call_ms), "failed": res.failed,
            "samples": {"traced_steps": len(res.call_ms),
                        "untraced_steps": len(untraced.call_ms)},
            "spans": tr.dump()}


# ---------------------------------------------------------------------------
# Report


def _print_report(args, env, out, shown_metrics) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, sha in out["fingerprints"].items():
        print(f"fingerprint {name}: {sha}")
    print("samples: " + " ".join(f"{k}={v}" for k, v in out["samples"].items()
                                 if not isinstance(v, list)))
    shown = dict(out["metrics"], **out.get("extra", {}))
    for name, unit in shown_metrics:
        value = shown.get(name)
        text = "n/a (not defined on this workload)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {name:<40} {text}")
    for name, c in out.get("counts", {}).items():
        print(f"  count {name:<34} {c['measured']} (analytic {c['analytic']})")
    for name, ok in out["gates"].items():
        print(f"  gate {name:<35} {'PASS' if ok else 'FAIL'}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    wanted = [(m["name"], m["unit"])
              for m in spec["per_layer" if args.trace else "end_to_end"]]
    BUILD.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    try:
        if args.trace:
            out = run_traced(workloads, spans, args, work)
            shown = wanted
        else:
            out = run_untraced(workloads, args, work)
            shown = wanted + REPORTED_ONLY
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    correct = all(out["gates"].values())
    report = BUILD / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "env": env, **out},
                                 default=str) + "\n")
    _print_report(args, env, out, shown)
    print(f"report: {report.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {name: {"value": float(out["metrics"][name]),
                                 "unit": unit} for name, unit in wanted}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

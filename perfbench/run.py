"""scenestruct benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in a fresh process

Run from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 runs the experiment untraced and then traced in
one process, checks that both write byte-identical predictions, and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A fuller record
(environment, workload shape, sample counts, spans of a traced run) is
written under perfbench/results/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy loads. The thread count changes
# results in the last bits (and from there the trained nets), so one thread
# keeps them independent of the machine's core count; it also keeps BLAS
# worker threads from competing with the Python thread on a small machine.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="corpus generator seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time budget of the measured part, from the start of training; "
                             "latency rounds repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "workload_seed": seed,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end_metrics(tracer, facts, raw):
    from harness import pass_timings

    train_s = sum(s[3] - s[2] for s in tracer.spans if s[0].startswith("run_train."))
    shots = sum(raw["epochs"].values()) * facts["train_shots"]
    latencies = [s[3] - s[2] for s in tracer.spans_of("latency", "pipeline.run_pipeline")]
    passes = pass_timings(tracer.spans, raw["pass_spans"])
    final = {mode: report["final"] for mode, report in raw["reports"].items()}
    metrics = {
        "setup_s": facts["setup_s"],
        "train_shots_per_s": shots / train_s,
        "predict_load_s": statistics.median(passes["load_s"]),
        "predict_videos_per_s": len(latencies) / sum(latencies),
        "predict_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
        "predict_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
        "evaluate_s": statistics.median(passes["evaluate_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # final_b and final_c are too small and too seed-dependent to gate
        # on (see perfbench/README.md); the record keeps them
        "final_a": final.get("a", float("nan")),
        "final_d": final.get("d", float("nan")),
    }
    details = {
        "segments_per_video": {
            mode: blob.count(b'"start_s"') / blob.count(b"\n")
            for mode, blob in raw["predictions"].items()
        },
        "latency_samples": len(latencies),
        "latency_samples_above_p90": sum(x * 1e3 > metrics["predict_ms_p90"] for x in latencies),
        "latency_rounds": raw["rounds"],
        "pass_timings_s": passes,
        "train_s": train_s,
        "train_shot_steps": shots,
        "epochs": raw["epochs"],
        "reports": raw["reports"],
    }
    return metrics, details


def layer_metrics(tracer, facts, raw, overhead_ratio):
    summary = tracer.summary()
    counts = tracer.counts

    def total(key):
        return summary.get(key, (0.0, 0.0, 0))[0]

    def self_s(key):
        return summary.get(key, (0.0, 0.0, 0))[1]

    def calls(key):
        return summary.get(key, (0.0, 0.0, 0))[2]

    model_keys = [k for k in summary if k.startswith("train.models.")]
    metrics = {
        "train.nn.lstm.forward_s": total("train.nn.lstm.forward"),
        "train.nn.lstm.backward_s": total("train.nn.lstm.backward"),
        "train.nn.lstm.calls": calls("train.nn.lstm.forward"),
        "train.nn.lstm.valid_step_ratio":
            counts["train.nn.lstm.valid_steps"] / counts["train.nn.lstm.padded_steps"],
        "predict.nn.lstm.forward_s": total("predict.nn.lstm.forward"),
        "predict.nn.lstm.calls": calls("predict.nn.lstm.forward"),
        "train.fusion.forward_s": total("train.fusion.forward"),
        "train.fusion.backward_s": total("train.fusion.backward"),
        "train.fusion.rows": counts["train.fusion.rows"],
        "predict.fusion.forward_s": total("predict.fusion.forward"),
        "train.nn.optim.step_s": total("train.nn.optim.step"),
        "train.nn.optim.steps": calls("train.nn.optim.step"),
        "train.nn.losses.bce_s": total("train.nn.losses.bce"),
        "train.models.self_s": sum(self_s(k) for k in model_keys),
        "train.models.val_s": sum(total(k) for k in model_keys if k.endswith(".val_loss")),
        "train.models.epochs": sum(raw["epochs"].values()),
        "train.boundary.s": total("train.run_train.boundary"),
        "train.segment_scalar.s": total("train.run_train.segment_scalar"),
        "train.segment_per_tag.s": total("train.run_train.segment_per_tag"),
        "train.tag.s": total("train.run_train.tag"),
        "train.nn.checkpoint.save_s": total("train.nn.checkpoint.save"),
        "train.nn.checkpoint.mb": counts["train.nn.checkpoint.mb"],
        "predict.nn.checkpoint.load_s": total("predict.nn.checkpoint.load"),
        "predict.nn.checkpoint.mb": counts["predict.nn.checkpoint.mb"],
        "setup.synth.generate_s": facts["setup_s"],
        "setup.data.corpus_mb": facts["shape"]["corpus_mb"],
        "predict.models.boundary.forward_s": total("predict.models.boundary.forward_video"),
        "predict.models.segment.forward_s": total("predict.models.segment.forward_video"),
        "predict.models.tag.forward_s": total("predict.models.tag.forward_scene"),
        "predict.models.tag.calls": calls("predict.models.tag.forward_scene"),
        "predict.pipeline.nms_s": total("predict.pipeline.nms"),
        "predict.pipeline.proposals": counts["predict.pipeline.proposals"],
        "predict.pipeline.segments_kept": counts["predict.pipeline.segments_kept"],
        "predict.pipeline.keep_ratio":
            counts["predict.pipeline.segments_kept"] / counts["predict.pipeline.proposals"],
        "predict.pipeline.self_s": self_s("predict.pipeline.run_pipeline"),
        "predict.pipeline.write_s": total("predict.pipeline.write_predictions"),
        "evaluate.pipeline.read_predictions_s": total("evaluate.pipeline.read_predictions"),
        "evaluate.metrics.evaluate_s": total("evaluate.metrics.evaluate"),
        "evaluate.metrics.segments_scored": counts["evaluate.metrics.segments_scored"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for stage in ("train", "predict", "evaluate"):
        metrics[f"{stage}.data.load_corpus_s"] = total(f"{stage}.data.load_corpus")
        metrics[f"{stage}.data.load_corpus_calls"] = calls(f"{stage}.data.load_corpus")
    return metrics, {"spans": len(tracer.spans)}


def measured_s(tracer):
    """Wall time of training plus the predict + evaluate pass."""
    stages = ("run_train.", "run_predict.", "run_evaluate.")
    return sum(end - start for name, _stage, start, end, _parent in tracer.spans
               if name.startswith(stages))


def run_workload(args):
    from harness import Failures, check_same_predictions, run_experiment, setup
    from tracing import Tracer, instrument, instrument_plain
    from workloads import WORKLOADS

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cfg, facts = setup(workload, args.seed, work)
        failures = Failures()
        plain_tracer = Tracer()
        deadline = None if args.trace else time.perf_counter() + args.seconds
        undo = instrument_plain(plain_tracer)
        try:
            plain = run_experiment(cfg, workload, facts, plain_tracer, failures,
                                   run_dir=work / "plain", deadline=deadline)
        finally:
            undo()
        if args.trace:
            tracer = Tracer()
            undo = instrument(tracer)
            try:
                traced = run_experiment(cfg, workload, facts, tracer, failures,
                                        run_dir=work / "traced")
            finally:
                undo()
            check_same_predictions(plain, traced, failures, "traced")
            overhead = measured_s(tracer) / measured_s(plain_tracer)
            metrics, details = layer_metrics(tracer, facts, traced, overhead)
        else:
            metrics, details = end_to_end_metrics(plain_tracer, facts, plain)
        facts["shape"]["checkpoint_mb"] = sum(
            p.stat().st_size for p in (work / "plain" / "ckpts").glob("*.json")) / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {sorted(set(names) - set(metrics))}, "
                           f"extra {sorted(set(metrics) - set(names))}")
    units = {m["name"]: m["unit"] for m in wanted}
    error_rate = failures.failed / max(failures.attempted, 1)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "shape": facts["shape"],
        "setup_times_s": facts["setup_times_s"],
        "error_rate": error_rate,
        "details": details,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_csv(RESULTS_DIR / f"{stem}-spans.csv")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print("shape " + json.dumps(record["shape"]))
    for n in names:
        print(f"  {n:40s} {metrics[n]:>14.6g} {units[n]}")
    print(f"  {'error_rate':40s} {error_rate:>14.6g} ratio "
          f"({failures.failed} failed of {failures.attempted})")
    if not args.trace:
        print(f"  latency samples {details['latency_samples']}, "
              f"{details['latency_samples_above_p90']} above p90, "
              f"{details['latency_rounds']} round(s)")
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": record["metrics"],
    }


def run_all(args):
    """Every workload in its own process, so memory is measured per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return None
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "scenestruct").is_dir() or not SPEC_PATH.is_file():
        print(f"benchmark: need {src / 'scenestruct'} and {SPEC_PATH}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

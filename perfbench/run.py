"""Benchmark of varimcf's simulate, check and distance subcommands.

    python3 perfbench/run.py --workload sphere-3d --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports varimcf from `src/`.  One
process, one operation at a time (a closed loop with one client), each
operation a call of `varimcf.cli.main`.  After set-up it repeats the
workload's repetition until `--seconds` have passed, checks every output,
and prints as its last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs one untraced repetition and then traced
ones, and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, instrumented, pair_yield, per_operation
from workloads import (WORKLOADS, frame_bytes, frame_digest, frame_files,
                       prepare, radius_law_error, strict_json, write_measures)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# pinned before numpy loads: the plain single-threaded baseline
THREADS = {"VARIMCF_THREADS": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
SETUP_SNIPPET = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                 "import workloads; workloads.prepare(sys.argv[3])")

CERTIFICATE_NAMES = (
    "mass-decay", "dissipation-budget", "technical-lemma", "barrier-defect",
    "eps-sphere-barrier", "external-sphere", "internal-sphere", "convex-hull",
    "avoidance", "lsc", "volume-change", "nontriviality")

# per-layer metrics read off the spans: (span name, field)
SPAN_METRICS = (
    ("presets.make_preset", "s"),
    ("mollifier.curvature_with_jacobian", "s"),
    ("mollifier.curvature_with_jacobian", "self_s"),
    ("mollifier.curvature_with_jacobian", "calls"),
    ("mollifier.curvature_with_jacobian", "query_points"),
    ("mollifier.neighbor_pairs", "s"),
    ("mollifier.neighbor_pairs", "pairs"),
    ("mollifier.dissipation", "s"),
    ("flow.run", "self_s"),
    ("cli.simulate", "self_s"),
    ("cli.load_manifest", "s"),
    ("cli.check", "self_s"),
    *((f"cli.certificate.{name}", "s") for name in CERTIFICATE_NAMES),
    ("geometry.contains", "s"),
    ("geometry.contains", "points"),
    ("geometry.volume_change_series", "s"),
    ("metrics.bounded_lipschitz", "s"),
    ("metrics.bounded_lipschitz", "support"),
)
KINDS = ("simulate", "check", "distance")


class Bench:
    """One benchmark process: its operations, their checks and timings."""

    def __init__(self, workload, seed: int, work: Path, trace: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer = Tracer() if trace else None
        self.times = {traced: {k: [] for k in KINDS} for traced in (False, True)}
        self.attempted = self.failed = 0
        self.first: dict[str, object] = {}
        self.rewritten: list[int] = []
        self.radius_error = None
        self.measures = None

    # -- operations -------------------------------------------------------

    def _attempt(self, kind: str, op, traced: bool) -> None:
        """Run one operation; any problem it reports counts it as failed."""
        self.attempted += 1
        if traced:
            self.tracer.run_id = f"{kind}-{self.attempted}"
        try:
            seconds, problems = op(traced)
            self.times[traced][kind].append(seconds)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {kind} #{self.attempted}: {p}",
                      file=sys.stderr)

    def _cli(self, kind: str, argv: list[str], traced: bool):
        """varimcf.cli.main(argv): exit code, captured stdout, seconds."""
        from varimcf import cli

        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            if traced:
                stack.enter_context(instrumented(self.tracer))
                stack.enter_context(self.tracer.span(f"cli.{kind}"))
            t0 = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - t0
        return rc, out.getvalue(), seconds

    def _same(self, key: str, value) -> list[str]:
        """Values that must repeat exactly across every operation."""
        first = self.first.setdefault(key, value)
        return [] if value == first else [f"{key} {value!r} != {first!r}"]

    def simulate(self, out: Path, traced: bool):
        wl = self.wl
        argv = ["simulate", "--preset", wl.preset, "--seed", str(self.seed),
                "--out", str(out)]
        if wl.end_time is not None:
            argv += ["--end-time", repr(wl.end_time)]
        rc, _, seconds = self._cli("simulate", argv, traced)
        if rc != 0:
            return seconds, [f"exit code {rc}"]
        manifest = json.loads((out / "manifest.json").read_text())
        names = frame_files(manifest)
        problems = self._same("frame digest", frame_digest(out, names))
        problems += self._same("frame bytes written", frame_bytes(out, names))
        self.radius_error = radius_law_error(out, manifest)
        if not self.radius_error <= wl.radius_tolerance:
            problems.append(f"radius-law error {self.radius_error} above "
                            f"tolerance {wl.radius_tolerance}")
        self.measures = write_measures(out, manifest, self.work / "measures")
        return seconds, problems

    def check(self, run_dir: Path, traced: bool):
        wl = self.wl
        target = self.work / "check"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(run_dir, target)
        manifest_path = target / "manifest.json"
        before = manifest_path.read_bytes()
        names = frame_files(json.loads(before))
        digest = frame_digest(target, names)
        argv = ["check", str(target)]
        if wl.certificates is not None:
            argv += ["--certificates", wl.certificates]
        if wl.config is not None:
            argv += ["--config", str(HERE / wl.config)]
        rc, text, seconds = self._cli("check", argv, traced)
        # check rewrites its input manifest today; counted, not hidden
        self.rewritten.append(int(manifest_path.read_bytes() != before))
        problems = self._same("frame bytes read", frame_bytes(target, names))
        if frame_digest(target, names) != digest:
            problems.append("check changed a frame file")
        if rc != 0:
            problems.append(f"exit code {rc}")
        payload = strict_json(text)
        verdicts = payload["verdicts"]
        if len(verdicts) != wl.verdicts:
            problems.append(f"{len(verdicts)} verdicts, want {wl.verdicts}")
        failing = [f"{v['name']}[{v['trace']}]" for v in verdicts
                   if v["passed"] is not True]
        if failing or payload["all_passed"] is not True:
            problems.append(f"verdicts failing: {failing}")
        return seconds, problems

    def distance(self, traced: bool):
        total, problems = 0.0, []
        for first, final in self.measures:
            rc, text, seconds = self._cli(
                "distance", ["distance", str(first), str(final)], traced)
            total += seconds
            result = strict_json(text)
            if rc != 0 or result["status"] != "optimal":
                problems.append(f"exit code {rc}, status {result['status']}")
            problems += self._same(f"distance {first.stem}", result["distance"])
        return total, problems

    # -- set-up and the measured loop -------------------------------------

    def setup(self) -> None:
        """Time set-up in fresh interpreters, then set up this process."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(HERE),
                            str(SRC), self.wl.name],
                           check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        self.setup_times = times
        self.prepared = prepare(self.wl.name)
        self.setup_s = statistics.median(times)
        if self.wl.record_in_setup:
            self.recording = self.work / "recording"
            self._attempt("simulate",
                          lambda t: self.simulate(self.recording, t), False)
            self.setup_s += self.times[False]["simulate"][-1]
            if self.tracer is not None:
                # the traced recording must write the same frames
                traced_dir = self.work / "recording-traced"
                self._attempt("simulate",
                              lambda t: self.simulate(traced_dir, t), True)
                shutil.rmtree(traced_dir)

    def repetition(self, index: int, traced: bool) -> None:
        wl = self.wl
        if wl.record_in_setup:
            run_dir = self.recording
        else:
            run_dir = self.work / f"run{index}"
            self._attempt("simulate", lambda t: self.simulate(run_dir, t),
                          traced)
        # checks spread between the distance rounds, so that the short
        # operations sample the whole repetition rather than one moment
        rounds, calls = wl.distance_rounds, wl.check_calls
        if self.tracer is not None:
            # per-layer values are medians per operation: fewer calls do
            rounds, calls = 2, max(2, calls // 4)
        for r in range(rounds):
            for _ in range(calls * (r + 1) // rounds - calls * r // rounds):
                self._attempt("check", lambda t: self.check(run_dir, t),
                              traced)
            self._attempt("distance", self.distance, traced)
        if not wl.record_in_setup:
            shutil.rmtree(run_dir, ignore_errors=True)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        if self.tracer is not None:
            self.repetition(index, traced=False)
            index += 1
        while True:
            self.repetition(index, traced=self.tracer is not None)
            index += 1
            if time.perf_counter() - start >= seconds:
                break

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        # the fastest simulate and check: the host's speed drifts over
        # seconds, and the fastest short call is what repeats from run to run
        best = {k: min(v) for k, v in self.times[False].items()}
        p = self.prepared
        return {
            "setup_s": self.setup_s,
            "simulate_s": best["simulate"],
            "atom_steps_per_s": p.atoms * p.steps / best["simulate"],
            "check_s": best["check"],
            # the mean round: each round is seconds long, and the fastest of
            # them depends on whether a run happens to catch a fast stretch
            "distance_s": statistics.mean(self.times[False]["distance"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "radius_law_rel_err": self.radius_error,
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.spans
        ops = per_operation(spans)
        out = {}
        for name, field in SPAN_METRICS:
            vals = [row[name][field] for row in ops.values() if name in row]
            out[f"{name}.{field}"] = statistics.median(vals) if vals else 0
        yields = [y for y in (pair_yield(spans, op) for op in ops)
                  if y is not None]
        untraced, traced = self.times[False], self.times[True]
        both = [k for k in KINDS if untraced[k] and traced[k]]
        base = sum(statistics.median(untraced[k]) for k in both)
        over = sum(statistics.median(traced[k]) for k in both) - base
        p = self.prepared
        out.update({
            "mollifier.stencil_nodes": p.stencil_nodes,
            "mollifier.pair_yield": statistics.median(yields) if yields else 0,
            "cli.frame_write.bytes": self.first["frame bytes written"],
            "cli.frame_read.bytes": self.first["frame bytes read"],
            "cli.check.manifest_rewritten": statistics.median(self.rewritten),
            "workload.atoms": p.atoms,
            "workload.tracked_vertices": p.tracked_vertices,
            "workload.steps": p.steps,
            "trace.overhead_s": over,
            "trace.overhead_share": over / base,
        })
        return out

    def info(self) -> dict:
        import numpy
        import scipy

        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError):
            blas = "unknown"
        p = self.prepared
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "threads": {k: os.environ[k] for k in THREADS},
            "counters": {
                "atoms": p.atoms,
                "tracked_vertices": p.tracked_vertices,
                "steps": p.steps,
                "stencil_nodes_per_query_point": p.stencil_nodes,
                "frame_bytes_written": self.first.get("frame bytes written"),
                "frame_bytes_read": self.first.get("frame bytes read"),
                "check_manifest_rewritten": sum(self.rewritten),
            },
            "setup_s_samples": self.setup_times,
            "untraced_s": _summary(self.times[False]),
            "traced_s": _summary(self.times[True]),
        }


def _summary(times: dict[str, list[float]]) -> dict[str, dict]:
    return {k: {"n": len(v), "min": min(v), "median": statistics.median(v),
                "max": max(v), "samples": v}
            for k, v in times.items() if v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "varimcf" / "__init__.py").is_file():
        print(f"perfbench: no varimcf sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    sys.path.insert(0, str(SRC))
    import varimcf
    if Path(varimcf.__file__).resolve().parent != SRC / "varimcf":
        print(f"perfbench: varimcf imported from {varimcf.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed % 2**31, work, bool(args.trace))
    try:
        bench.setup()
        bench.measure(args.seconds)
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print("perfbench: metrics out of step with BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 2
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{bench.seed}.json").write_text(
            json.dumps([dataclasses.asdict(sp) for sp in bench.tracer.spans]))
    print(json.dumps(bench.info(), indent=1))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

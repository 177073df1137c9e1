"""hybrideq benchmark: audited solve time and outer-iteration latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload shift_banach --seed 7 --seconds 30 --trace 0

One process, one thread, closed loop: one solve at a time, each started
after the previous one returned.  The run sets up its scenarios several
times, then solves rounds of the workload's instances until the next round
would overrun --seconds (a run always completes one round), checks every
solve, and prints one JSON object as the last line of its output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
only the iteration clock attached.  Other tenants of a shared host slow
this process down by up to 2.5x for minutes at a time, so solve and
iteration times are in reference seconds: the clock runs a small fixed
probe kernel every 10 ms and at every outer iteration, and scales the wall
time between two probes by the probe's reference time over its measured
time (tracer.IterationClock); each set-up pass is scaled by a probe run
just before it.  --trace 1 reports the per-layer metrics: every
instance is solved untraced and then traced, the two per-iteration CSVs
must be identical byte for byte, and the difference of the two median
solve times is the tracing overhead.

Outputs (CSV, JSON summaries, spans, the full result with provenance) go
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# pin the BLAS thread pools before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import layer_metrics, missing_counters  # noqa: E402
from tracer import PROBE_REF_S, IterationClock, SetupDone, Tracer, probe_s  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 7
SETUP_BATCH = 48  # set-up passes of each instance of the round, before each solve


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """The package from the checkout's src/; None when it is not there."""
    src = ROOT / "src"
    if not (src / "hybrideq" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import hybrideq.cli
    import hybrideq.harness

    return hybrideq


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, program, workload, seed: int, out_dir: Path):
        self.harness = program.harness
        self.cli = program.cli
        self.workload = workload
        self.seed = seed
        self.out = out_dir
        self.clock = IterationClock()
        self.setup_times = []
        self.setup_errors = []

    def instance(self, k: int):
        inst = self.workload.instance(self.seed, k)
        if self.workload.via_cli:
            # the CLI reads scenario files; writing one is input preparation
            path = self.out / "scenarios" / f"{inst.name}.json"
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(inst.doc, indent=2) + "\n")
            return inst, path
        return inst, inst.doc

    def _call(self, source, out_dir: Path):
        """The user's entry path for one solve; returns the CLI exit code or None."""
        if self.workload.via_cli:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(["solve", "--scenario", str(source), "--out", str(out_dir)])
        self.harness.run_scenario(self.harness.load_scenario(source), out_dir=out_dir)
        return None

    def setup_batch(self) -> None:
        """Time SETUP_BATCH set-up passes of each of the first round's instances.

        A pass takes the solve's own entry path (load and validate, both
        build_bundle calls, build_config, and the CLI's parsing for
        box_starts) and ends at the first outer iteration.  A batch runs
        before every solve, so that the passes are spread over the run.
        """
        sources = [self.instance(k)[1] for k in range(self.workload.round_size)]
        self.clock.setup_only = True
        try:
            for i in range(SETUP_BATCH * len(sources)):
                self.clock.reset()
                probe = probe_s()
                t0 = time.perf_counter()
                try:
                    self._call(sources[i % len(sources)], self.out / "setup")
                except SetupDone:
                    wall = self.clock.setup_end - t0
                    self.setup_times.append((i % len(sources), wall, wall * PROBE_REF_S / probe))
                except Exception as exc:  # reported as a problem of the run
                    self.setup_errors.append(f"set-up pass: {exc!r}")
        finally:
            self.clock.setup_only = False

    def solve(self, k: int, sub: str, tracer=None) -> dict:
        """Solve instance k into out/<sub>/ and check it; never raises."""
        inst, source = self.instance(k)
        out_dir = self.out / sub
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{inst.name}_iterations.csv"
        summary_path = out_dir / f"{inst.name}_summary.json"
        for stale in (csv_path, summary_path):
            stale.unlink(missing_ok=True)
        slot = k % self.workload.round_size
        record = {"instance": inst.name, "seed": inst.doc["seed"], "slot": slot, "ok": False}
        self.clock.reset()
        if tracer is not None:
            tracer.install()
        self.clock.sampling(True)
        try:
            t0 = time.perf_counter()
            exit_code = self._call(source, out_dir)
        except Exception as exc:  # a failed solve is counted, not fatal
            record["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            return record
        finally:
            self.clock.finish()
            if tracer is not None:
                tracer.uninstall()
        try:
            summary = json.loads(summary_path.read_text())
            csv_bytes = csv_path.read_bytes()
        except (OSError, ValueError) as exc:
            record["error"] = f"outputs unreadable: {exc}"
            return record
        problems = check(inst, summary, csv_bytes.decode(), exit_code)
        if len(self.clock.marks) < 2:
            problems.append("no outer iteration ran")
        record.update(
            ok=not problems,
            problems=problems,
            iterations=summary["iterations"],
            cuts_final=summary["rows"][-1]["cut_count"] if summary["rows"] else 0,
            csv=csv_bytes,
        )
        if not problems:
            clock = self.clock
            wall_s, ref_s = clock.solve_s()
            record.update(
                setup_in_solve_s=clock.events[clock.marks[0]][0] - t0,
                solve_wall_s=wall_s,
                solve_s=ref_s,
                iter_ms=[1e3 * t for t in clock.iterations_ref_s()],
                probe_s=statistics.median(e[1] for e in clock.events),
                probes=len(clock.events),
            )
        return record


def _rounds(bench: Bench, seconds: float, solve_one) -> None:
    """Call solve_one(k) for k = 0, 1, ... in rounds of `round_size` while the next round fits in `seconds`."""
    size = bench.workload.round_size
    started = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        for _ in range(size):
            solve_one(k)
            k += 1
        now = time.perf_counter()
        if (now - started) + (now - t0) > seconds:
            return


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def run_plain(bench: Bench, seconds: float) -> tuple:
    records = []

    def solve(k):
        bench.setup_batch()
        records.append(bench.solve(k, "plain"))

    _rounds(bench, seconds, solve)
    good = [r for r in records if r["ok"]]
    setup, solve, iters = {}, {}, {}
    for source, _, ref in bench.setup_times:
        setup.setdefault(source, []).append(ref)
    for r in good:
        solve.setdefault(r["slot"], []).append(r["solve_s"])
        iters.setdefault((r["slot"], len(r["iter_ms"])), []).append(r["iter_ms"])
    # iteration i of an instance does the same work in every repeat: take
    # its median over the repeats, then the quantiles over the iterations
    intervals = [ms for runs in iters.values() for ms in np.median(runs, axis=0)]
    values = {
        # medians per instance of the round, averaged over the instances
        "setup_s": _mean(_median(v) for v in setup.values()),
        "solve_s": _mean(_median(v) for v in solve.values()),
        "iter_ms.p50": float(np.percentile(intervals, 50)) if intervals else 0.0,
        "iter_ms.p90": float(np.percentile(intervals, 90)) if intervals else 0.0,
        "outer_iters": _median(r["iterations"] for r in good),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "solves": len(records),
        "solve_wall_s.median": _median(r["solve_wall_s"] for r in good),
        "probe_s.median": _median(r["probe_s"] for r in good),
        "setup_wall_s.median": _median(t[1] for t in bench.setup_times),
        "setup_wall_s.min": min((t[1] for t in bench.setup_times), default=0.0),
        "iter_ms.samples": len(intervals),
        "setup_reps": len(bench.setup_times),
    }
    return records, values, [], notes


def run_traced(bench: Bench, seconds: float) -> tuple:
    tracer = Tracer()
    records, traced = [], []

    def pair(k):
        records.append(bench.solve(k, "plain"))
        tracer.solve_id = len(traced)
        traced.append(bench.solve(k, "traced", tracer=tracer))

    _rounds(bench, seconds, pair)
    for plain, tr in zip(records, traced):
        if plain["ok"] and tr["ok"] and plain["csv"] != tr["csv"]:
            tr["ok"] = False
            tr["problems"].append("traced CSV differs from the untraced CSV")
    good = [(p, t) for p, t in zip(records, traced) if p["ok"] and t["ok"]]
    values = layer_metrics(tracer, len(traced), [t["cuts_final"] for _, t in good] or [0])
    untraced = _median(p["solve_s"] for p, _ in good)
    traced_s = _median(t["solve_s"] for _, t in good)
    values.update(
        {
            "trace.solve_s": traced_s,
            "trace.untraced_solve_s": untraced,
            "trace.overhead_s": traced_s - untraced,
        }
    )
    missing = missing_counters(bench.workload.name, values, tracer.bindings)
    problems = [f"per-layer counter {name} is zero" for name in missing]
    tracer.write(bench.out / "spans.npz")
    notes = {"spans": len(tracer.start), "bindings": tracer.bindings, "solves": len(traced)}
    return records + traced, values, problems, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    program = _import_program()
    if program is None:
        print(f"error: no hybrideq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}_trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(program, workload, args.seed, out_dir)
    bench.clock.install()
    try:
        if args.trace:
            records, values, problems, notes = run_traced(bench, args.seconds)
        else:
            records, values, problems, notes = run_plain(bench, args.seconds)
    finally:
        bench.clock.uninstall()
    problems += bench.setup_errors

    failures = [r for r in records if not r["ok"]]
    for r in failures:
        problems.append(f"{r['instance']}: {r.get('error') or '; '.join(r['problems'])}")
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not computed: {missing}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "problems": problems,
        "notes": notes,
        "setup_wall_s_first": bench.setup_times[0][1] if bench.setup_times else None,
        "solves": [{k: v for k, v in r.items() if k not in ("csv", "iter_ms")} for r in records],
        "result": result,
    }
    (out_dir / "result.json").write_text(json.dumps(full, indent=1, default=str) + "\n")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    prov = full["provenance"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} nproc={prov['nproc']} "
        f"python={prov['python']} numpy={prov['numpy']} commit={prov['commit']}"
    )
    print(
        f"# failed_frac = {len(failures)}/{len(records)} = "
        f"{len(failures) / max(len(records), 1):.3f}; notes: {json.dumps(notes, default=str)}"
    )
    for name, metric in metrics.items():
        print(f"#   {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

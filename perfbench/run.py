"""chirpnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cv_desk --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Traced runs also write their spans and the count
cross-checks to ``perfbench/out/``. See README.md for the workloads.
"""

import time

_PROCESS_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import os

BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SCRATCH_DIR = HERE / ".scratch"


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_chirpnet():
    """Import chirpnet from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chirpnet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no chirpnet sources under {src}")
    sys.path.insert(0, str(src))
    import chirpnet

    if Path(chirpnet.__file__).resolve().parent != (src / "chirpnet").resolve():
        raise SystemExit(f"benchmark: imported chirpnet from {chirpnet.__file__}, not {src}")
    return chirpnet


def run_rounds(workload, seconds: float, trace, min_rounds: int):
    """Whole rounds until the next one would end past ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting untraced,
    so both kinds run on the same warm process.
    """
    rounds, walls, traced = [], [], []
    start = time.perf_counter()
    while True:
        tracing_now = trace is not None and len(rounds) % 2 == 1
        if trace is not None:
            trace.enabled = tracing_now
        t0 = time.perf_counter()
        rounds.append(workload.run_round(first=not rounds))
        walls.append(time.perf_counter() - t0)
        traced.append(tracing_now)
        if trace is not None:
            trace.enabled = False
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, walls, traced


def count_errors(cross: dict) -> list[str]:
    """Counts the tracer saw per round that differ from the derived ones."""
    return [
        f"trace: {name} counted {pair['traced']}, derived {pair['derived']}"
        for name, pair in cross.items()
        if pair["traced"] != pair["derived"]
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_chirpnet()
    import numpy as np

    from speed import Sample, SpeedProbe
    from tracing import Tracer
    from workloads import Workload

    SCRATCH_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_DIR))
    try:
        # Traced runs report raw wall times: probes would land inside spans.
        clock = SpeedProbe(enabled=not args.trace)
        workload = Workload(args.workload, args.seed, workdir, clock)
        workload.warm()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        setup_end = time.perf_counter()
        setup = Sample(_PROCESS_T0, setup_end, setup_end - _PROCESS_T0 - clock.excluded_s)

        if clock.enabled:
            clock.install_hooks()
        try:
            rounds, walls, traced = run_rounds(workload, args.seconds, tracer, 2 if tracer else 1)
        finally:
            clock.uninstall_hooks()
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = workload.check(rounds)
    if tracer is None:
        measured = workload.metrics(rounds)
        measured["setup_s"] = (clock.reference_s(setup), "s")
        measured["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = workload.metrics(rounds, ref=lambda sample: sample.wall_s)
        print(f"machine speed: median probe {clock.median_probe_s() * 1e3:.2f} ms over "
              f"{len(clock.probes)} probes; unscaled wall metrics "
              + json.dumps({k: round(v, 5) for k, (v, _) in raw.items()} | {"setup_s": round(setup.wall_s, 5)}),
              file=sys.stderr)
    else:
        n_traced = sum(traced)
        measured = tracer.layer_metrics(n_traced)
        traced_wall = statistics.median(w for w, t in zip(walls, traced) if t)
        plain_wall = statistics.median(w for w, t in zip(walls, traced) if not t)
        measured["trace.round_s"] = (traced_wall, "s")
        measured["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        measured["trace.spans"] = (len(tracer.spans) / n_traced, "count")
        expected = workload.expected_counts()
        cross = {
            name: {"traced": tracer.counts.get(name, 0.0) / n_traced, "derived": want}
            for name, want in expected.items()
        }
        errors += count_errors(cross)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "blas_threads": BLAS_THREADS,
            "numpy": np.__version__,
            "rounds": [{"wall_s": w, "traced": t} for w, t in zip(walls, traced)],
            "count_cross_checks": cross,
            "metrics": {k: v for k, (v, _) in measured.items()},
            "spans": [list(s) for s in tracer.spans],
        }))
        print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)

    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    attempted = len(rounds) * workload.ops_per_round
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Launch one benchmark child process with probes (and, traced, spans).

Every measured process — campaign coordinator, distributed worker, object
store, campaign service — starts through this file in a fresh interpreter,
so caches and process-global counters start cold and each process reports
its own deltas.  Usage::

    python perfbench/launch.py --dump FILE [--trace] ready
    python perfbench/launch.py --dump FILE [--trace] campaign --seed N --store ROOT --backend B
    python perfbench/launch.py --dump FILE [--trace] cli <repro.cli arguments>

``ready`` imports the program and exits (the cold-start probe), ``campaign``
runs the benchmark's fixed campaign plan and reports its wall time and
digest, ``cli`` hands the remaining arguments to ``repro.cli.main``.  At exit
the process writes one JSON document to ``--dump``: probe counts, hot-path
counter deltas, per-experiment host seconds, the reference work's host
seconds before the cold import and before each experiment and, traced, the
span summary.  SIGTERM is
turned into a normal exit so the dump is still written.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from time import perf_counter

from recorder import Probes, Recorder, null_span, reference_objects, reference_work

#: The fixed bench plan (ROADMAP): three workloads × 48 injection
#: experiments, 2 golden runs each.  ``run.py`` passes the same plan to
#: ``repro.cli submit`` for the service-read fill.
PLAN_WORKLOADS = ("deploy", "scale", "failover")
MAX_EXPERIMENTS = 48
GOLDEN_RUNS = 2


def run_campaign(seed: int, store: str, backend: str, span) -> dict:
    """Run the bench plan into ``store``; time it up to a computed digest."""
    from repro.core.campaign import Campaign, CampaignConfig
    from repro.core.resultstore import ShardedResultStore
    from repro.workloads.workload import WorkloadKind

    config = CampaignConfig(
        workloads=tuple(WorkloadKind(name) for name in PLAN_WORKLOADS),
        golden_runs=GOLDEN_RUNS,
        max_experiments_per_workload=MAX_EXPERIMENTS,
        seed=seed,
        workers=1,
    )
    started = perf_counter()
    with span("campaign.run"):
        result = Campaign(config).run(results_dir=store, backend=backend)
        with span("campaign.aggregate"):
            digest = ShardedResultStore(store).results_digest()
    return {
        "wall_s": perf_counter() - started,
        "experiments": result.total_experiments(),
        "digest": digest,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("mode", choices=("ready", "campaign", "cli"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    # One reference call before the cold import, on the CPU the import
    # starts on: the parent reports start-up times at nominal host speed.
    begun = perf_counter()
    objects = reference_objects()
    started = perf_counter()
    reference_work(objects)
    start = {"reference_s": perf_counter() - started, "overhead_s": perf_counter() - begun}

    import repro.cli  # the cold import every mode pays

    probes = Probes()
    probes.install()
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    # Servers stop on SIGINT as on Ctrl-C, even when started by a parent
    # that ignores SIGINT (which children would inherit); SIGTERM exits too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    dump: dict = {"start": start}
    code = 0
    try:
        if args.mode == "campaign":
            options = argparse.ArgumentParser()
            options.add_argument("--seed", type=int, required=True)
            options.add_argument("--store", required=True)
            options.add_argument("--backend", choices=("local", "distributed"), required=True)
            opts = options.parse_args(args.rest)
            span = recorder.span if recorder is not None else null_span
            dump["campaign"] = run_campaign(opts.seed, opts.store, opts.backend, span)
        elif args.mode == "cli":
            code = repro.cli.main(args.rest)
    finally:
        dump.update(probes.report())
        if recorder is not None:
            dump["trace"] = recorder.summary()
        tmp = f"{args.dump}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
        os.replace(tmp, args.dump)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

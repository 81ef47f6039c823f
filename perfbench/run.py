"""scckit benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload webcam-stream --seed 1 --seconds 40 --trace 0

Workloads are webcam-stream and large-spec; BENCHMARK.json says why each
exists. Inputs come from ``--seed``. The main loop runs whole rounds until
they have taken ``--seconds``; every round of a workload does the same work.
After the rounds, the `scc` CLI runs in fresh processes, and then one more
fresh process runs one round to measure the peak memory
the program adds to its inputs (see ``rss_probe``). With ``--trace 1`` a
third of the time runs untraced, as the base for the tracing overhead, and
the rest traced; the per-layer metrics come from the traced part.

Other tenants of a shared host slow whole stretches of a run by tens of
percent, and raw medians moved by a quarter or more from one run to the next.
So every end-to-end timing is put at a fixed host speed before it is
summarised: each operation, and each CLI run, is scaled by the recent times of
a fixed reference workload (see ``hostspeed``). The run then reports medians
over all its samples: of setup, check and graph times, of emit latency (and
its pooled 99th percentile), of emits per second per round, and of CLI times.
Per-layer times are as measured under tracing, unscaled; the trace ratios
divide scaled traced times by scaled untraced ones. Raw medians and the
reference times are kept in the run's record.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations that raised or whose output differs from the
benchmark's reference; ``failed / attempted`` is the error rate) and
``metrics``. The full record, with provenance and sample counts, and in
traced runs the spans, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys

import env
import hostspeed

CLI_REPS = 20
DEMO_BLOCKS = 25  # `scc demo` script: 400 emits, 100 ad writes
DEMO_REPS = 20


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(stats, cli_check: list, cli_demo: list, rss_mb: float) -> dict:
    emits = stats.scaled("emit")
    rates = [len(r) * 1e9 / sum(r) for r in stats.per_round("emit")]
    return {
        "setup_s": (_median(stats.scaled("setup")) / 1e9, "s"),
        "check_s": (_median(stats.scaled("check")) / 1e9, "s"),
        "graph_s": (_median(stats.scaled("graph")) / 1e9, "s"),
        "emit_per_s": (_median(rates), "1/s"),
        "emit_p50_us": (_median(emits) / 1e3, "us"),
        "emit_p99_us": (_quantile(emits, 0.99) / 1e3, "us"),
        "cli_check_s": (_median(cli_check), "s"),
        "cli_demo_s": (_median(cli_demo), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def host_record(stats) -> dict:
    """The reference times of a run, and its raw (unscaled) median timings."""
    ref = stats.clock.samples
    return {
        "reference_s": hostspeed.REFERENCE_S,
        "reference_runs": len(ref),
        "reference_median_s": _median(ref) / 1e9,
        "reference_p10_s": _quantile(ref, 0.1) / 1e9,
        "raw_median_s": {kind: _median(getattr(stats, kind)) / 1e9 for kind in stats.scales},
    }


def per_layer(tracer, base, traced, interpreter: list, imported: list) -> dict:
    self_ns, counts, calls = tracer.self_ns, tracer.counts, tracer.calls
    static = ("check", "setup")
    emits = len(traced.emit)
    activations = counts[("emit", "activate")]
    kernel_ns = self_ns[("emit", "emit")] + self_ns[("emit", "runtime.handle")]

    def med(roots, name):
        return _median(tracer.per_root(roots, name))

    def vs_untraced(kind):
        # Traced over untraced time, both at the reference host speed. A
        # traced check or setup takes as long as its root span, whose
        # layers' self times add up to it.
        return _median(traced.scaled(kind)) / _median(base.scaled(kind))

    return {
        "parser.parse_s": (med(static, "parser.parse"), "s"),
        "parser.decls_per_s": (counts[("check", "parser.decls")] * 1e9
                               / self_ns[("check", "parser.parse")], "1/s"),
        "decls.validate_s": (med(static, "decls.validate"), "s"),
        "decls.by_name_calls": (sum(counts[(r, "decls.by_name_calls")] for r in ("check", "graph", "setup"))
                                / calls[("check", "check")], "count"),
        "contracts.derive_all_s": (med(static, "contracts.derive_all"), "s"),
        "contracts.render_s": (med(("check",), "contracts.render"), "s"),
        "flow.build_s": (med(("graph",), "flow.build"), "s"),
        "flow.export_s": (med(("graph",), "flow.export"), "s"),
        "flow.ancestors_s": (med(("graph",), "flow.ancestors"), "s"),
        "runtime.create_s": (med(("setup",), "runtime.create"), "s"),
        "runtime.register_s": (med(("setup",), "runtime.register"), "s"),
        "runtime.bind_s": (med(("setup",), "runtime.bind"), "s"),
        "runtime.seal_s": (med(("setup",), "runtime.seal"), "s"),
        "runtime.emit_self_s": (kernel_ns / emits / 1e9, "s"),
        "runtime.kernel_us_per_activation": (kernel_ns / activations / 1e3, "us"),
        "runtime.activations_per_emit": (activations / emits, "count"),
        "runtime.pulls_per_emit": (counts[("emit", "pull")] / emits, "count"),
        "runtime.deliveries_per_emit": (traced.deliveries / emits, "count"),
        "runtime.taint_size_mean": (traced.taint_total / traced.deliveries, "count"),
        "impl.self_s": (self_ns[("emit", "impl")] / emits / 1e9, "s"),
        "scenario.parse_s": (med(("demo",), "scenario.parse"), "s"),
        "webcam.build_s": (_median(tracer.per_root(("demo",), "webcam.build", inclusive=True)), "s"),
        "cli.interpreter_s": (_median(interpreter), "s"),
        "cli.import_s": (_median(imported) - _median(interpreter), "s"),
        "trace.overhead_ratio": (vs_untraced("emit"), "ratio"),
        "trace.check_ratio": (vs_untraced("check"), "ratio"),
        "trace.setup_ratio": (vs_untraced("setup"), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.bootstrap()
    import gen
    import harness
    import procs
    import scckit
    from tracing import NullTracer, Tracer, instrument

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(harness.WORKLOADS)}")
    record = {"provenance": env.provenance(args.workload, args.seed, args.trace, args.seconds)}
    workload = harness.WORKLOADS[args.workload](args.seed)
    ledger = harness.Ledger()
    stats = harness.Stats()

    demo_steps = gen.webcam_stream(args.seed, DEMO_BLOCKS)
    script = gen.scenario_text(demo_steps)
    env.OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    spec_path, script_path = env.OUT / f"{tag}.scc", env.OUT / f"{tag}.scn"
    spec_path.write_text(workload.spec_text, encoding="utf-8")
    script_path.write_text(script, encoding="utf-8")

    gc.collect()
    if args.trace == 0:
        check_argv = ["-m", "scckit", "check", str(spec_path), "--contracts"]
        demo_argv = ["-m", "scckit", "demo", "--scenario", str(script_path)]
        demo_out = gen.demo_output(demo_steps)

        def scaled_command(argv, expected):
            # Scaled by the mean of reference runs just before and just after.
            before = stats.clock.measure()
            seconds = procs.time_command(argv, ledger, expected)
            return seconds * (before + stats.clock.measure()) / 2

        rounds = harness.run_rounds(workload, NullTracer(), stats, ledger, args.seconds)
        # The CLI runs after the rounds: a round that followed a subprocess
        # started with cold caches and ran 1.5 to 2 times slower. The first
        # pair also compiles bytecode, so it is checked but not timed.
        expected_check = "".join(line + "\n" for line in workload.contract_lines)
        cli = [(scaled_command(check_argv, expected_check), scaled_command(demo_argv, demo_out))
               for _ in range(CLI_REPS + 1)][1:]
        cli_check, cli_demo = [c for c, _ in cli], [d for _, d in cli]
        record["samples"] = {"cli": len(cli_check)}
        record["rss"] = procs.peak_rss(args.workload, args.seed, ledger)
        metrics = end_to_end(stats, cli_check, cli_demo, record["rss"]["peak_rss_mb"])
        record["host"] = host_record(stats)
    else:
        base = stats
        harness.run_rounds(workload, NullTracer(), base, ledger, args.seconds / 3)
        tracer, stats = Tracer(), harness.Stats()
        gc.collect()
        with instrument(tracer):
            rounds = harness.run_rounds(workload, tracer, stats, ledger, args.seconds * 2 / 3)
            for _ in range(DEMO_REPS):
                with tracer.root("demo"):
                    sc = tracer.call("scenario.parse", scckit.parse_scenario, script)
                    tracer.call("webcam.build", scckit.build_webcam_app, tracer.hook)
                ledger.record(len(sc.steps) == len(demo_steps), "scenario: step count differs")
        interpreter = [procs.time_command(["-c", "pass"]) for _ in range(CLI_REPS + 1)][1:]
        imported = [procs.time_command(["-c", "import scckit.cli"]) for _ in range(CLI_REPS + 1)][1:]
        metrics = per_layer(tracer, base, stats, interpreter, imported)
        (env.OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    record.setdefault("samples", {}).update(rounds=rounds, **dict(zip(harness.TIMED, stats.ends())))
    record["errors"] = ledger.errors
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (env.OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

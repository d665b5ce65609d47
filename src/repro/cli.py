"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands:

* ``sweep``, ``attack sweep``, ``model sweep``, ``mc sweep``, ``system
  sweep`` — one command per sweep family, built from its registry
  entry with one flag set: run a named preset grid in parallel, write
  a ``BENCH_<family>_<preset>.json`` artifact, and with ``--check``
  gate it exactly (no tolerance) against the committed baseline;
  ``--list-presets`` lists the family's grids. ``model sweep`` is also
  where the analytic tables live (``table2-bound``, ``fig15``,
  ``sec71``, ...).
* ``attack`` — the security evaluation: ``attack run`` executes one
  registered attack through the channel stack (``--set`` sets any
  registry parameter), ``attack list`` prints the attack registry
  with each kind's parameters.
* ``mc`` — the closed-loop memory-controller evaluation: ``mc run``
  serves a synthetic (or trace-replayed) request stream through
  per-bank queues and prints read-latency percentiles, bandwidth, and
  queue occupancy under ALERT back-pressure; ``mc list-scheds`` prints
  the scheduling-policy registry (selected with ``--sched``).
* ``system`` — ``system run`` serves several clients through the
  crossbar over one or more channels.
* ``perf`` — evaluate a mitigation policy on a Table 4 workload (or a
  recorded address trace via ``--trace``), optionally across multiple
  sub-channels (``--subchannels``); ``--list-policies`` prints the
  mitigation registry.
* ``report`` — the unified paper report: ``report all`` (or ``report
  run <figure>...``) renders every registered paper figure/table from
  cached ``BENCH_*`` artifacts as paper-vs-measured tables plus a
  machine-readable ``BENCH_report.json``; ``--check`` gates every
  source artifact exactly against the committed smoke baselines;
  ``report list`` prints the figure registry.
* ``trace`` — synthesize or inspect physical-address traces for the
  channel-level replay workload.
* ``workloads`` — list the Table 4 profiles.
* ``obs`` — observability traces: ``obs summarize`` prints the event
  counts / latency histograms / provenance of a recorded
  ``repro.obs/v2`` trace (``mc run --trace-out`` / ``system run
  --trace-out``), ``obs export`` converts one to a pure
  Perfetto/Chrome trace-event JSON file.
* ``lint`` — the repo's static-analysis rules.

A bad name, value or path (an unknown workload or preset, an invalid
setting, a missing or malformed file) ends every command the same way:
one ``error: ...`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable, List, Mapping, Optional

from repro.attacks.base import AttackResult, AttackRunConfig
from repro.attacks.registry import ATTACK_KINDS, AttackSpec, run_attack
from repro.dram.timing import LEGAL_ABO_LEVELS
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.report.figures import FIGURES
from repro.report.pipeline import (
    ReportOptions,
    SMOKE_N_TREFI,
    check_results,
    make_report_artifact,
    render_figure_text,
    render_markdown,
    run_figures,
    write_baselines,
)
from repro.report.tables import format_table
from repro.mc.controller import ROW_POLICIES
from repro.mc.sched import SCHED_KINDS
from repro.sim.mapping import CoffeeLakeMapping
from repro.sim.mc import McRunConfig, run_mc, run_mc_trace
from repro.sim.perf import RunConfig, run_trace, run_workload
from repro.workloads.requests import ARRIVAL_PROCESSES, McWorkload
from repro.trace import AddressTrace, load_trace
from repro.sweep.artifacts import write_artifact
from repro.sweep.family import FAMILIES, PERF_FAMILY, SweepFamily
from repro.obs import (
    TraceRecorder,
    artifact_events,
    load_obs_artifact,
    make_obs_artifact,
    run_provenance,
    summarize_obs,
    write_perfetto,
)
from repro.sweep.runner import stderr_progress
from repro.system import ClientSpec, STREAMABLE_ATTACKS, SystemRunConfig, run_system
from repro.workloads.profiles import TABLE4_PROFILES, profile_by_name


def _print_attack(result: AttackResult) -> None:
    rows = [
        ("ACTs on attack row", result.acts_on_attack_row),
        ("max victim exposure", result.max_danger),
        ("ALERTs", result.alerts),
        ("total ACTs issued", result.total_acts),
        ("elapsed (us)", round(result.elapsed_ns / 1000.0, 1)),
    ]
    rows += [(key, value) for key, value in sorted(result.details.items())]
    print(format_table(["metric", "value"], rows, title=result.name))


def _format_params(
    values: Mapping[str, object], names: Optional[Iterable[str]] = None
) -> str:
    """``name=value, ...`` over ``names`` (default: every key of
    ``values``), or ``-`` when there are none.

    Numbers print with ``:g``; ``None``, tuples and strings print as
    they are; a name without a value prints bare (a required registry
    parameter). One spelling for every parameter or metric listing:
    ``attack list``, ``mc list-scheds`` and the model sweep table.
    """
    def item(name: str) -> str:
        if name not in values:
            return name
        value = values[name]
        if isinstance(value, (int, float)):
            return f"{name}={value:g}"
        return f"{name}={value}"

    return ", ".join(item(name) for name in (
        values if names is None else names)) or "-"


#: CLI-level parameter defaults applied when the user sets nothing.
#: feinting's library default is a full refresh window (2048 periods,
#: tens of seconds); the CLI keeps the historical 256-period quick run.
#: jailbreak-randomized has no library defaults for its counter state,
#: so the CLI supplies the paper's all-heavy iteration (Figure 5).
_ATTACK_RUN_DEFAULTS = {
    "feinting": {"periods": 256},
    "jailbreak-randomized": {
        "initial_counters": (112,) * 8,
        "attack_row_counter": 96,
    },
}


def _parse_set_value(raw: str):
    # "a,b,c" is a tuple parameter (e.g. jailbreak-randomized's
    # initial_counters); elements go through the scalar parser.
    if "," in raw:
        return tuple(_parse_set_value(part) for part in raw.split(","))
    for parse in (int, float):
        try:
            value = parse(raw)
        except ValueError:
            continue
        # Integral floats ("96.0") mean the integer, in tuple elements
        # exactly as in scalars.
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value
    return raw


def _cmd_attack_list(_args: argparse.Namespace) -> int:
    rows = [
        (
            kind.name,
            kind.fields["figure"],
            "adaptive" if kind.fields["adaptive"] else "open-loop",
            _format_params(kind.defaults, kind.params),
            kind.description,
        )
        for kind in sorted(ATTACK_KINDS, key=lambda kind: kind.name)
    ]
    print(format_table(
        ["attack", "paper", "pattern", "params (defaults)", "description"],
        rows, title="Registered attacks"))
    return 0


def _cmd_attack_run(args: argparse.Namespace) -> int:
    params = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects name=value, got {item!r}")
        name, _, raw = item.partition("=")
        value = _parse_set_value(raw)
        scalars = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(scalar, int) for scalar in scalars):
            # Every registered attack parameter is an integer or a
            # tuple of integers (counts, thresholds, levels); catching
            # this here keeps type errors out of the attack internals.
            raise ValueError(
                f"--set {name} expects an integer (or comma-separated "
                f"integers), got {raw!r}")
        params[name] = value
    for name, value in _ATTACK_RUN_DEFAULTS.get(args.name, {}).items():
        params.setdefault(name, value)
    if args.subchannels < 1:
        raise ValueError("--subchannels must be at least 1")
    # Bad or missing parameters (AttackSpec validation), impossible
    # geometry, or an adaptive attack at subchannels > 1 raise
    # ValueError: a usage error.
    run_config = AttackRunConfig(subchannels=args.subchannels)
    _print_attack(run_attack(AttackSpec.of(args.name, **params), run_config))
    return 0


def _render_attack_table(result, args: argparse.Namespace) -> None:
    spec = result.spec

    def tput_loss(metrics):
        # Absence of the metric is not a measured zero: only the
        # throughput attacks (kernels, TSA) report a loss at all.
        loss = metrics.get("detail:throughput_loss")
        return "-" if loss is None else f"{loss * 100:.1f}%"

    rows = [
        (
            r.identity["attack"],
            r.identity["figure"],
            f"{r.metrics.get('acts_on_attack_row', 0.0):.0f}",
            f"{r.metrics.get('max_danger', 0.0):.0f}",
            f"{r.metrics.get('alerts', 0.0):.0f}",
            tput_loss(r.metrics),
            "hit" if r.cached else f"{r.wall_clock_s:.1f}s",
        )
        for r in result.results
    ]
    print(
        format_table(
            ["attack", "paper", "attack-row ACTs", "max danger",
             "ALERTs", "tput loss", "time"],
            rows,
            title=f"Attack sweep {spec.name} (jobs={args.jobs}, "
            f"{result.cache_hits} cached)",
        )
    )


def _cmd_perf(args: argparse.Namespace) -> int:
    if args.list_policies:
        rows = [
            (kind.name, kind.fields["trefi_per_mitigation"], kind.description)
            for kind in sorted(POLICY_KINDS, key=lambda kind: kind.name)
        ]
        print(format_table(
            ["policy", "tREFI/mitigation", "description"], rows,
            title="Registered mitigation policies"))
        return 0
    if args.subchannels < 1:
        raise ValueError("--subchannels must be at least 1")
    if not (args.trace or args.workload):
        raise ValueError(
            "a workload name (or --trace/--list-policies) is required")
    config = RunConfig(
        ath=args.ath,
        eth=args.eth,
        abo_level=args.level,
        policy=PolicySpec(args.policy),
        subchannels=args.subchannels,
        n_trefi=args.trefi,
    )
    if args.trace:
        result = run_trace(_load_address_trace(args.trace, "perf"), config)
        display = f"trace {args.trace} ({result.workload})"
    else:
        profile = profile_by_name(args.workload)
        result = run_workload(profile, config)
        display = profile.display_name
    rows = [
        ("ALERTs per tREFI (sub-channel)", f"{result.alerts_per_trefi:.4f}"),
        ("slowdown", f"{result.slowdown:.3%}"),
        ("mitigations+ALERTs / tREFW / bank",
         f"{result.mitigations_per_trefw_per_bank:.0f}"),
        ("activation overhead", f"{result.activation_overhead:.2%}"),
    ]
    scope = (f", {result.subchannels} sub-channels"
             if result.subchannels > 1 else "")
    title = (f"{display} under {result.policy}-L{args.level} "
             f"(ATH={args.ath}, ETH={result.eth}{scope})")
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def _load_address_trace(path: str, command: str) -> AddressTrace:
    """The address trace at ``path`` for a ``command`` replay."""
    trace = load_trace(path)
    if not isinstance(trace, AddressTrace):
        raise ValueError(
            f"{path} is an activation trace; {command} replay needs an "
            "address trace (see `repro trace synth`)")
    return trace


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.action == "synth":
        if not args.workload:
            raise ValueError("trace synth needs a workload name")
        profile = profile_by_name(args.workload)
        from repro.workloads.generator import generate_address_trace

        trace = generate_address_trace(
            profile,
            CoffeeLakeMapping(),
            n_trefi=args.trefi,
            seed=args.seed,
            banks_per_subchannel=args.banks,
        )
        out = args.out or f"{profile.name}.trace.jsonl"
        trace.save(out)
        print(f"wrote {len(trace)} address events "
              f"({trace.duration_ns / 1e6:.2f} ms) to {out}")
        return 0
    # info
    if not args.workload:
        raise ValueError("trace info needs a trace path")
    trace = load_trace(args.workload)
    kind = "address" if isinstance(trace, AddressTrace) else "activation"
    rows = [
        ("kind", kind),
        ("events", len(trace)),
        ("duration (ms)", round(trace.duration_ns / 1e6, 3)),
    ]
    rows += [(f"meta:{k}", v) for k, v in sorted(trace.metadata.items())]
    print(format_table(["field", "value"], rows, title=str(args.workload)))
    return 0


def _render_perf_table(result, args: argparse.Namespace) -> None:
    spec = result.spec
    rows = [
        (
            r.identity["workload"],
            r.identity["policy"],
            r.identity["ath"],
            r.identity["eth"],
            f"L{r.identity['abo_level']}",
            f"{r.metrics['slowdown'] * 100:.3f}%",
            f"{r.metrics['alerts_per_trefi']:.4f}",
            "hit" if r.cached else f"{r.wall_clock_s:.1f}s",
        )
        for r in result.results
    ]
    agg = PERF_FAMILY.aggregate(result.results)
    rows.append(
        (
            "AVERAGE",
            "",
            "",
            "",
            "",
            f"{agg['avg_slowdown'] * 100:.3f}%",
            f"{agg['avg_alerts_per_trefi']:.4f}",
            f"{result.wall_clock_s:.1f}s",
        )
    )
    print(
        format_table(
            ["workload", "policy", "ATH", "ETH", "level",
             "slowdown", "ALERT/tREFI", "time"],
            rows,
            title=f"Sweep {spec.name} (n_trefi={spec.n_trefi}, "
            f"jobs={args.jobs}, {result.cache_hits} cached)",
        )
    )


def _print_mc_result(result) -> None:
    depth = "unbounded" if result.queue_depth is None else result.queue_depth
    rows = [
        ("requests completed", result.requests),
        ("read latency mean (ns)", f"{result.read_mean_ns:.1f}"),
        ("read latency p50 (ns)", f"{result.read_p50_ns:.1f}"),
        ("read latency p99 (ns)", f"{result.read_p99_ns:.1f}"),
        ("read latency max (ns)", f"{result.read_max_ns:.1f}"),
        ("achieved bandwidth (GB/s)", f"{result.achieved_gbps:.3f}"),
        ("avg queue occupancy", f"{result.avg_queue_occupancy:.2f}"),
        ("ALERTs per tREFI (sub-channel)", f"{result.alerts_per_trefi:.4f}"),
        ("ALERT stall fraction", f"{result.stall_fraction:.3%}"),
    ]
    if result.row_policy == "open":
        rows.append(("row-buffer hit rate", f"{result.row_hit_rate:.1%}"))
    scope = (f", {result.subchannels} sub-channels"
             if result.subchannels > 1 else "")
    title = (
        f"{result.workload} through {result.scheduler}/"
        f"{result.row_policy} MC (depth {depth}) under {result.policy} "
        f"L{result.abo_level} (ATH={result.ath}, ETH={result.eth}, "
        f"{result.banks} banks{scope})"
    )
    print(format_table(["metric", "value"], rows, title=title))


def _parse_sched(text: str):
    """Parse ``KIND[:k=v,...]`` into (scheduler, sched_params).

    Values parse as int, then float; anything else is handed to the
    registry validation verbatim for its (numeric-only) error message.
    """
    kind, _, params_text = text.partition(":")
    kind = kind.strip()
    params = []
    if params_text.strip():
        for item in params_text.split(","):
            name, sep, value_text = item.partition("=")
            if not sep or not name.strip():
                raise ValueError(
                    f"bad --sched parameter {item!r}; expected k=v"
                )
            value_text = value_text.strip()
            try:
                value = int(value_text)
            except ValueError:
                try:
                    value = float(value_text)
                except ValueError:
                    value = value_text
            params.append((name.strip(), value))
    return kind, tuple(params)


def _cmd_mc_list_scheds(_args: argparse.Namespace) -> int:
    rows = [
        (kind.name, _format_params(kind.defaults, kind.params),
         kind.description)
        for kind in SCHED_KINDS
    ]
    print(format_table(
        ["scheduler", "params (defaults)", "description"], rows,
        title="Registered scheduling policies"))
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared tracing flags of ``mc run``/``system run``."""
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the typed event trace and write a repro.obs/v2 "
        "artifact to PATH (Perfetto-loadable; results are "
        "bit-identical with tracing on or off)")
    parser.add_argument(
        "--obs", action="store_true",
        help="print the observability summary (event counts, latency "
        "histograms, provenance) after the run")


def _run_recorder(args: argparse.Namespace, **meta):
    """A :class:`repro.obs.TraceRecorder` when ``--trace-out``/``--obs``
    was requested, else ``None`` (the run stays on the null recorder)."""
    if not (args.trace_out or args.obs):
        return None
    return TraceRecorder(meta=meta)


def _emit_obs(args: argparse.Namespace, recorder,
              n_trefi: int, t_refi_ns: float) -> None:
    """Write/print the observability outputs of a traced run.

    ``n_trefi`` is the run's window (a trace replay's is the trace's,
    not ``--trefi``); it sizes the per-tREFI series and is recorded as
    ``meta.n_trefi``.
    """
    artifact = make_obs_artifact(
        recorder, meta={"n_trefi": n_trefi},
        n_trefi=n_trefi, t_refi_ns=t_refi_ns,
    )
    if args.trace_out:
        out_path = Path(args.trace_out)
        write_artifact(out_path, artifact)
        print(f"trace artifact: {out_path} ({len(recorder)} events)",
              file=sys.stderr)
    if args.obs:
        print(format_table(["field", "value"], summarize_obs(artifact),
                           title="Observability summary"))


def _closed_loop_settings(args: argparse.Namespace):
    """The workload and the config fields ``mc run`` and ``system run``
    share, parsed from their common flags (see
    :func:`_add_closed_loop_flags`). Raises :class:`ValueError` on a
    bad value."""
    depth = None if args.queue_depth == 0 else args.queue_depth
    if depth is not None and depth < 0:
        raise ValueError("--queue-depth must be >= 0 (0 = unbounded)")
    workload = McWorkload(
        process=args.process, reads_per_trefi_per_bank=args.rate,
        hot_fraction=args.hot_fraction, hot_rows=args.hot_rows,
        write_fraction=args.write_fraction,
    )
    scheduler, sched_params = _parse_sched(args.sched)
    return workload, dict(
        ath=args.ath, eth=args.eth, abo_level=args.level,
        policy=PolicySpec(args.policy), queue_depth=depth,
        scheduler=scheduler, sched_params=sched_params,
        row_policy=args.row_policy, subchannels=args.subchannels,
        banks=args.banks, n_trefi=args.trefi, seed=args.seed,
    )


def _cmd_mc_run(args: argparse.Namespace) -> int:
    workload, shared = _closed_loop_settings(args)
    config = McRunConfig(workload=workload, **shared)
    recorder = _run_recorder(
        args, command="mc run", policy=args.policy,
        scheduler=config.scheduler, seed=args.seed,
    )
    if args.trace:
        trace = _load_address_trace(args.trace, "mc")
        result = run_mc_trace(trace, config, recorder=recorder)
    else:
        result = run_mc(config, recorder=recorder)
    _print_mc_result(result)
    if recorder is not None:
        _emit_obs(args, recorder, n_trefi=result.n_trefi,
                  t_refi_ns=config.timing.t_refi)
    return 0


def _print_system_result(result) -> None:
    config = result.config
    agg = result.aggregate
    rows = [
        (
            c.name,
            c.priority,
            c.requests,
            f"{c.read_p50_ns:.0f}",
            f"{c.read_p99_ns:.0f}",
            f"{c.achieved_gbps:.3f}",
            f"{c.avg_queue_occupancy:.2f}",
        )
        for c in result.clients
    ]
    rows.append(
        (
            "SYSTEM",
            "",
            agg.requests,
            f"{agg.read_p50_ns:.0f}",
            f"{agg.read_p99_ns:.0f}",
            f"{agg.achieved_gbps:.3f}",
            f"{agg.avg_queue_occupancy:.2f}",
        )
    )
    title = (
        f"{len(result.clients)} clients x {config.channels} channels "
        f"under {config.policy.display_name()} L{config.abo_level}, "
        f"{config.sched_display()} "
        f"(ATH={config.ath}, ETH={config.eth_resolved}, "
        f"{config.banks} banks, {agg.alerts} ALERTs)"
    )
    print(format_table(
        ["client", "prio", "requests", "p50 ns", "p99 ns", "GB/s",
         "queue occ"],
        rows, title=title))


def _cmd_system_run(args: argparse.Namespace) -> int:
    if args.clients < 1:
        raise ValueError("--clients must be at least 1")
    workload, shared = _closed_loop_settings(args)
    clients = tuple(
        ClientSpec(name=f"tenant{i}", workload=workload, seed=i)
        for i in range(args.clients)
    )
    if args.attacker:
        # kernel budgets are request counts; trespass sizes itself
        # from its aggressor parameters.
        params = (
            {"total_acts": args.attacker_acts}
            if args.attacker.startswith("kernel") else {}
        )
        clients += (
            ClientSpec(
                name="attacker",
                attack=AttackSpec.of(args.attacker, **params),
            ),
        )
    config = SystemRunConfig(
        clients=clients, channels=args.channels, **shared
    )
    recorder = _run_recorder(
        args, command="system run", policy=args.policy,
        scheduler=config.scheduler, clients=len(clients),
        channels=args.channels, seed=args.seed,
    )
    result = run_system(
        config,
        jobs=args.jobs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        progress=stderr_progress(args.quiet),
        recorder=recorder,
    )
    _print_system_result(result)
    if recorder is not None:
        _emit_obs(args, recorder, n_trefi=result.aggregate.n_trefi,
                  t_refi_ns=config.timing.t_refi)
    return 0


def _render_mc_table(result, args: argparse.Namespace) -> None:
    spec = result.spec
    rows = [
        (
            r.identity["workload"],
            r.identity["policy"],
            f"L{r.identity['abo_level']}",
            f"{r.identity['scheduler']}/{r.identity['row_policy']}",
            f"{r.metrics['read_p50_ns']:.0f}",
            f"{r.metrics['read_p99_ns']:.0f}",
            f"{r.metrics['achieved_gbps']:.2f}",
            f"{r.metrics['alerts_per_trefi']:.3f}",
            "hit" if r.cached else f"{r.wall_clock_s:.1f}s",
        )
        for r in result.results
    ]
    print(
        format_table(
            ["workload", "policy", "level", "MC", "p50 ns", "p99 ns",
             "GB/s", "ALERT/tREFI", "time"],
            rows,
            title=f"MC sweep {spec.name} (n_trefi={spec.n_trefi}, "
            f"jobs={args.jobs}, {result.cache_hits} cached)",
        )
    )


def _render_model_table(result, args: argparse.Namespace) -> None:
    spec = result.spec
    rows = [
        (
            r.identity["kind"],
            _format_params(r.identity["params"]),
            _format_params(r.metrics),
            "hit" if r.cached else f"{r.wall_clock_s:.1f}s",
        )
        for r in result.results
    ]
    print(
        format_table(
            ["kind", "parameters", "metrics", "time"],
            rows,
            title=f"Model sweep {spec.name} (jobs={args.jobs}, "
            f"{result.cache_hits} cached)",
        )
    )


def _render_system_table(result, args: argparse.Namespace) -> None:
    spec = result.spec
    rows = [
        (
            r.identity["scenario"],
            len(r.identity["clients"]),
            r.identity["policy"],
            f"ch{r.identity['channels']}",
            f"{r.metrics['read_p50_ns']:.0f}",
            f"{r.metrics['read_p99_ns']:.0f}",
            f"{r.metrics['achieved_gbps']:.2f}",
            f"{r.metrics['alerts']:.0f}",
            "hit" if r.cached else f"{r.wall_clock_s:.1f}s",
        )
        for r in result.results
    ]
    print(
        format_table(
            ["scenario", "clients", "policy", "channels", "p50 ns",
             "p99 ns", "GB/s", "ALERTs", "time"],
            rows,
            title=f"System sweep {spec.name} (jobs={args.jobs}, "
            f"{result.cache_hits} cached)",
        )
    )


#: Per family: the ``sweep`` command's summary table and the override
#: flags it offers (the axes its points carry). The perf family's
#: command is the top-level ``repro sweep``; the others are ``repro
#: <family> sweep``.
_SWEEP_COMMANDS = {
    "sweep": (_render_perf_table, ("--trefi", "--workloads", "--seed")),
    "attack": (_render_attack_table, ()),
    "model": (_render_model_table, ("--trefi",)),
    "mc": (_render_mc_table, ("--trefi", "--seed")),
    "system": (_render_system_table, ("--trefi", "--seed")),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The one ``<family> sweep`` command body.

    Everything family-specific arrives through the registry entry
    (preset table, runner, schema, baseline naming), the
    spec's ``with_overrides`` (a seed it has no axis for is a usage
    error) and the summary table in :data:`_SWEEP_COMMANDS`.
    """
    family: SweepFamily = args.family
    if args.list_presets:
        rows = [
            (spec.name, len(spec.points()), spec.description)
            for spec in family.presets.values()
        ]
        print(format_table(["preset", "points", "description"], rows,
                           title=family.list_title))
        return 0
    if not args.preset:
        raise ValueError("a preset name (or --list-presets) is required")
    if args.trefi is not None and args.trefi <= 0:
        raise ValueError("--trefi must be positive")
    workloads = tuple(args.workloads.split(",")) if args.workloads else None
    spec = family.preset(args.preset).with_overrides(
        n_trefi=args.trefi, seed=args.seed, workloads=workloads
    )

    result = family.run(
        spec,
        jobs=args.jobs,
        # The layout ``repro report`` uses: one cache per family.
        cache_dir=(None if args.no_cache
                   else Path(args.cache_root) / family.name),
        progress=stderr_progress(args.quiet),
    )
    _SWEEP_COMMANDS[family.name][0](result, args)

    # Provenance is opt-in (--obs): without it the artifact stays
    # byte-identical run to run, and the gate never sees the block
    # either way (diff_artifacts compares points only).
    provenance = None
    if args.obs:
        seed = getattr(spec, "seed", None)
        provenance = run_provenance(
            config_hash=spec.sweep_hash(),
            seeds=None if seed is None else {"seed": seed},
            cache=result.cache_stats,
            extra={"family": family.name, "preset": spec.name,
                   "jobs": args.jobs},
        )
    artifact = family.make_artifact(result, provenance=provenance)
    return _emit_artifact_and_gate(args, artifact, family, spec.name)


def _emit_artifact_and_gate(
    args: argparse.Namespace,
    artifact: dict,
    family: SweepFamily,
    preset_name: str,
) -> int:
    """Write a sweep artifact and apply --baseline/--write-baselines/
    --check — identical semantics for every sweep family."""
    out_path = Path(args.out or f"BENCH_{family.name}_{preset_name}.json")
    write_artifact(out_path, artifact)
    print(f"artifact: {out_path}", file=sys.stderr)

    baseline = (Path(args.baseline) if args.baseline
                else family.default_baseline_path(preset_name))
    if args.write_baselines:
        write_artifact(baseline, artifact)
        print(f"baseline written: {baseline}", file=sys.stderr)
        return 0
    if args.check:
        ok, problems = family.check_against_baseline(artifact, baseline)
        if not ok:
            print(f"BASELINE CHECK FAILED ({baseline}):", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"baseline check passed ({baseline})", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = [
            (
                spec.name,
                spec.section,
                ", ".join(spec.source_keys()),
                ", ".join(spec.paper_values),
            )
            for spec in FIGURES.values()
        ]
        print(format_table(
            ["figure", "paper section", "sources", "paper values"], rows,
            title="Registered paper figures/tables"))
        return 0

    if args.action == "all":
        names = list(FIGURES)
    else:
        names = args.figures
        if not names:
            raise ValueError("report run needs at least one figure name "
                             "(see 'report list')")
        unknown = [name for name in names if name not in FIGURES]
        if unknown:
            raise ValueError(f"unknown figures: {', '.join(unknown)} "
                             f"(known: {', '.join(FIGURES)})")
    if args.trefi <= 0:
        raise ValueError("--trefi must be positive")

    options = ReportOptions(
        n_trefi=args.trefi,
        jobs=args.jobs,
        cache_root=None if args.no_cache else Path(args.cache_root),
        progress=stderr_progress(args.quiet),
    )
    results = run_figures(names, options)

    root = Path(args.baseline_root) if args.baseline_root else None
    if args.write_baselines:
        for path in write_baselines(results, root=root):
            print(f"baseline written: {path}", file=sys.stderr)
        return 0

    if args.check:
        check_results(results, baseline_root=root)

    for result in results:
        print(render_figure_text(result))
        print()

    artifact = make_report_artifact(results, options)
    out_path = Path(args.out)
    write_artifact(out_path, artifact)
    print(f"report artifact: {out_path}", file=sys.stderr)
    md_path = Path(args.md)
    md_path.parent.mkdir(parents=True, exist_ok=True)
    md_path.write_text(render_markdown(results) + "\n")
    print(f"report markdown: {md_path}", file=sys.stderr)

    failed = [r for r in results if r.checked and not r.ok]
    if failed:
        print("REPORT BASELINE CHECK FAILED:", file=sys.stderr)
        seen = set()
        for result in failed:
            for problem in result.problems:
                # A drifted source shared by several figures is one
                # defect; print it once (the problem line carries the
                # source key).
                if problem not in seen:
                    seen.add(problem)
                    print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.check:
        print(f"report baseline check passed "
              f"({len(results)} figures)", file=sys.stderr)
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        (p.display_name, p.suite, p.act_pki, p.act_32_plus, p.act_64_plus, p.act_128_plus)
        for p in TABLE4_PROFILES
    ]
    print(format_table(
        ["workload", "suite", "ACT-PKI", "32+", "64+", "128+"],
        rows, title="Table 4 workloads"))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Summarize or export a recorded ``repro.obs/v2`` trace."""
    artifact = load_obs_artifact(args.path)
    if args.action == "summarize":
        print(format_table(["field", "value"], summarize_obs(artifact),
                           title=str(args.path)))
        return 0
    # export: strip the artifact down to a pure Chrome trace-event file
    # (the artifact itself is already Perfetto-loadable; this drops the
    # repro-specific keys for tools that validate strictly).
    out_path = (Path(args.out) if args.out
                else Path(args.path).with_suffix(".perfetto.json"))
    meta = artifact.get("meta") or None
    write_perfetto(out_path, artifact_events(artifact), meta=meta)
    print(f"perfetto trace: {out_path}", file=sys.stderr)
    return 0


def _split_rule_names(value: Optional[str]) -> Optional[List[str]]:
    """``"a,b"`` -> ``["a", "b"]`` (None/empty stays None)."""
    if not value:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules; exit 0 clean / 1 findings."""
    import json

    from repro.analysis.lint import (
        format_findings,
        make_lint_artifact,
        rule_descriptions,
        run_lint,
    )

    if args.list_rules:
        rows = [
            (name, info["scope"], info["description"])
            for name, info in rule_descriptions().items()
        ]
        print(format_table(["rule", "scope", "description"], rows,
                           title="Registered lint rules"))
        return 0

    root = Path(args.root) if args.root else None
    paths = [Path(p) for p in args.paths] if args.paths else None
    result = run_lint(
        paths=paths,
        select=_split_rule_names(args.select),
        ignore=_split_rule_names(args.ignore),
        root=root,
    )

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(make_lint_artifact(result), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(json.dumps(make_lint_artifact(result), indent=2,
                         sort_keys=True))
    else:
        print(format_findings(result))
    return 0 if result.clean else 1


#: Rows printed by ``--profile`` (top functions by cumulative time).
_PROFILE_TOP_N = 25


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the command under cProfile and print the top "
        f"{_PROFILE_TOP_N} functions by cumulative time to stderr")


def positive_int(text: str) -> int:
    """argparse type of every ``--jobs`` flag: an integer >= 1 (argparse
    names the type in its error for a non-integer)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--jobs", type=positive_int,
                        default=max(1, os.cpu_count() or 1),
                        help=f"{what} (default: CPU count)")


def _add_closed_loop_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``mc run`` and ``system run`` share (parsed by
    :func:`_closed_loop_settings`): policy and thresholds, the arrival
    process (each tenant's, in a system run), the controller, the
    channel geometry, the window, the seed, and tracing."""
    parser.add_argument("--policy", choices=sorted(POLICY_KINDS.names()),
                        default="moat",
                        help="mitigation policy (default: moat)")
    parser.add_argument("--ath", type=int, default=64)
    parser.add_argument("--eth", type=int, default=None)
    parser.add_argument("--level", type=int, default=1, choices=LEGAL_ABO_LEVELS,
                        help="ABO mitigation level")
    parser.add_argument("--process", choices=list(ARRIVAL_PROCESSES),
                        default="poisson",
                        help="arrival process (of each tenant, in a "
                        "system run)")
    parser.add_argument("--rate", type=float, default=24.0,
                        help="mean requests per tREFI per bank (of each "
                        "tenant, in a system run)")
    parser.add_argument("--hot-fraction", type=float, default=0.0,
                        help="fraction of requests to the hot row set")
    parser.add_argument("--hot-rows", type=int, default=8,
                        help="hot-set size per bank")
    parser.add_argument("--write-fraction", type=float, default=0.0,
                        help="fraction of requests that are writes")
    parser.add_argument("--sched", default="frfcfs", metavar="KIND[:k=v,...]",
                        help="scheduling policy and its parameters "
                        "(default: frfcfs), e.g. 'fcfs', "
                        "'slo:budget_ns=5000' or 'bw-cap:gbps=8,gbps2=0.1' "
                        "(see `repro mc list-scheds`)")
    parser.add_argument("--row-policy", choices=list(ROW_POLICIES),
                        default="closed")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="per-bank queue depth (0 = unbounded)")
    parser.add_argument("--banks", type=int, default=4,
                        help="banks simulated per sub-channel")
    parser.add_argument("--subchannels", type=int, default=1, metavar="N")
    parser.add_argument("--trefi", type=int, default=1024,
                        help="simulated tREFI intervals")
    parser.add_argument("--seed", type=int, default=0)
    _add_obs_flags(parser)


def _add_gate_flags(parser: argparse.ArgumentParser) -> None:
    """``--check`` and ``--write-baselines`` of the sweep and report
    commands: exclusive, since a regressed run that rewrote its own
    baseline would pass."""
    gate = parser.add_mutually_exclusive_group()
    gate.add_argument("--check", action="store_true",
                      help="compare every metric exactly against the "
                      "committed baseline; exit 1 on any difference")
    gate.add_argument("--write-baselines", action="store_true",
                      help="write this run as the committed baseline "
                      "(mutually exclusive with --check)")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The point-cache and progress flags of the sweep and report
    commands."""
    parser.add_argument("--cache-root", default=".repro-cache",
                        metavar="DIR",
                        help="root of the per-family point caches (each "
                        "family's at DIR/<family>; default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-point result caches")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress on stderr")


def _add_sweep_flags(
    parser: argparse.ArgumentParser, family: SweepFamily
) -> None:
    """The flags of a ``<family> sweep`` command.

    All five families expose identical orchestration/gating semantics
    (jobs, seed, artifact output, exact baseline check/write, point
    cache, progress), with defaults drawn from the family's registry
    entry — declared once so the commands cannot drift. Only the
    override axes in :data:`_SWEEP_COMMANDS` differ.
    """
    parser.set_defaults(func=_cmd_sweep, family=family, trefi=None,
                        workloads=None)
    overrides = _SWEEP_COMMANDS[family.name][1]
    if "--trefi" in overrides:
        parser.add_argument("--trefi", type=int, default=None,
                            help="override simulated tREFI intervals "
                            "(512 = smoke scale, 8192 = full window)")
    if "--workloads" in overrides:
        parser.add_argument("--workloads", default=None,
                            help="comma-separated workload subset override")
    parser.add_argument("preset", nargs="?", default=None,
                        help="preset name (see --list-presets)")
    parser.add_argument("--list-presets", action="store_true",
                        help=f"list the {family.name} presets and exit")
    _add_jobs_flag(parser, "worker processes")
    # Every family parses --seed, so a spec without a seed axis refuses
    # it with a usage error that says so; only the others show it.
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sweep seed"
                        if "--seed" in overrides else argparse.SUPPRESS)
    parser.add_argument("--out", default=None,
                        help="artifact path (default: "
                        f"BENCH_{family.name}_<preset>.json)")
    _add_gate_flags(parser)
    parser.add_argument("--baseline", default=None,
                        help="baseline path (default: benchmarks/baselines/"
                        f"{family.baseline_prefix}<preset>.json)")
    _add_cache_flags(parser)
    parser.add_argument("--obs", action="store_true",
                        help="record run provenance (config hash, "
                        "backend, seed schedule, cache hit/miss "
                        "statistics, per-run timing) into the "
                        "artifact's provenance block")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOAT (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser(
        "attack",
        help="run or sweep the paper's attacks (security evaluation)",
    )
    attack_sub = attack.add_subparsers(dest="action", required=True)

    attack_run = attack_sub.add_parser(
        "run", help="run one registered attack and print the result"
    )
    attack_run.add_argument("name", choices=sorted(ATTACK_KINDS.names()),
                            help="attack kind (see 'attack list')")
    attack_run.add_argument("--set", action="append", metavar="NAME=VALUE",
                            help="set any registry parameter "
                            "(repeatable; see 'attack list' for names "
                            "and defaults; feinting's periods defaults "
                            "to 256 here, the library's to a full "
                            "window)")
    attack_run.add_argument("--subchannels", type=int, default=1, metavar="N",
                            help="sub-channels in the simulated channel "
                            "(open-loop patterns replicate across them; "
                            "adaptive attacks require 1)")
    attack_run.set_defaults(func=_cmd_attack_run)

    attack_list = attack_sub.add_parser(
        "list", help="list the registered attacks"
    )
    attack_list.set_defaults(func=_cmd_attack_list)

    perf = sub.add_parser("perf", help="evaluate a mitigation policy on a workload")
    perf.add_argument("workload", nargs="?", default=None,
                      help="Table 4 workload name (see 'workloads')")
    perf.add_argument("--ath", type=int, default=64)
    perf.add_argument("--eth", type=int, default=None)
    perf.add_argument("--level", type=int, default=1, choices=LEGAL_ABO_LEVELS)
    perf.add_argument("--policy", choices=sorted(POLICY_KINDS.names()),
                      default="moat",
                      help="mitigation policy (default: moat)")
    perf.add_argument("--list-policies", action="store_true",
                      help="list the registered mitigation policies and exit")
    perf.add_argument("--subchannels", type=int, default=1, metavar="N",
                      help="sub-channels simulated per run (synthetic "
                      "workloads; trace replay takes its geometry from "
                      "the mapping)")
    perf.add_argument("--trace", default=None, metavar="PATH",
                      help="replay a recorded address trace instead of a "
                      "synthetic workload (see `repro trace synth`)")
    perf.add_argument("--trefi", type=int, default=4096,
                      help="simulated tREFI intervals (8192 = full window)")
    _add_profile_flag(perf)
    perf.set_defaults(func=_cmd_perf)

    trace = sub.add_parser(
        "trace",
        help="synthesize or inspect channel-level address traces",
    )
    trace.add_argument("action", choices=["synth", "info"])
    trace.add_argument("workload", nargs="?", default=None,
                       help="workload name (synth) or trace path (info)")
    trace.add_argument("--trefi", type=int, default=256,
                       help="trace length in tREFI intervals (synth)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--banks", type=int, default=None,
                       help="banks per sub-channel to populate "
                       "(default: all 32)")
    trace.add_argument("--out", default=None,
                       help="output path (default: <workload>.trace.jsonl)")
    trace.set_defaults(func=_cmd_trace)

    mc = sub.add_parser(
        "mc",
        help="closed-loop memory-controller evaluation (request-driven "
        "latency under ALERT back-pressure)",
    )
    mc_sub = mc.add_subparsers(dest="action", required=True)

    mc_run = mc_sub.add_parser(
        "run",
        help="serve one request stream and print latency/bandwidth "
        "metrics",
    )
    _add_closed_loop_flags(mc_run)
    mc_run.add_argument("--trace", default=None, metavar="PATH",
                        help="replay a recorded address trace as the "
                        "request stream (geometry from the mapping; "
                        "see `repro trace synth`)")
    _add_profile_flag(mc_run)
    mc_run.set_defaults(func=_cmd_mc_run)

    mc_list_scheds = mc_sub.add_parser(
        "list-scheds",
        help="list the registered scheduling policies",
    )
    mc_list_scheds.set_defaults(func=_cmd_mc_list_scheds)

    system = sub.add_parser(
        "system",
        help="multi-client, multi-channel system evaluation (crossbar "
        "arbitration, per-client latency tails, noisy neighbors)",
    )
    system_sub = system.add_subparsers(dest="action", required=True)

    system_run = system_sub.add_parser(
        "run",
        help="run one multi-client system configuration and print "
        "per-client metrics",
    )
    system_run.add_argument("--clients", type=int, default=1, metavar="N",
                            help="homogeneous tenant clients sharing the "
                            "crossbar (per-client seeds 0..N-1)")
    system_run.add_argument("--channels", type=int, default=1, metavar="M",
                            help="independent channels (sharded across "
                            "--jobs workers)")
    system_run.add_argument("--attacker", default=None,
                            choices=sorted(STREAMABLE_ATTACKS),
                            help="add one attacker client replaying this "
                            "registered attack kind")
    system_run.add_argument("--attacker-acts", type=int, default=200_000,
                            help="attacker activation budget "
                            "(kernel kinds)")
    _add_closed_loop_flags(system_run)
    _add_jobs_flag(system_run, "shard worker processes")
    system_run.add_argument("--cache-dir", default=None,
                            help="channel-shard result cache directory "
                            "(default: no cache)")
    system_run.add_argument("--quiet", action="store_true",
                            help="suppress per-shard progress on stderr")
    system_run.set_defaults(func=_cmd_system_run)

    report = sub.add_parser(
        "report",
        help="render the unified paper-vs-measured report from cached "
        "artifacts",
    )
    report_sub = report.add_subparsers(dest="action", required=True)
    report_all = report_sub.add_parser(
        "all", help="render every registered paper figure/table"
    )
    report_run = report_sub.add_parser(
        "run", help="render selected figures (see 'report list')"
    )
    report_run.add_argument("figures", nargs="*", metavar="FIGURE",
                            help="registered figure names")
    for sub_parser in (report_all, report_run):
        sub_parser.add_argument(
            "--trefi", type=int, default=SMOKE_N_TREFI,
            help="window length for the performance sweeps (default "
            f"{SMOKE_N_TREFI} = the committed smoke-baseline scale; "
            "use 8192 for the full paper figure)")
        _add_jobs_flag(sub_parser, "worker processes")
        sub_parser.add_argument(
            "--out", default="BENCH_report.json",
            help="machine-readable report path")
        sub_parser.add_argument(
            "--md", default="BENCH_report.md",
            help="rendered markdown report path")
        _add_gate_flags(sub_parser)
        sub_parser.add_argument(
            "--baseline-root", default=None,
            help="root containing benchmarks/baselines/ for both "
            "--check and --write-baselines (default: CWD if it holds "
            "the baseline dir, else the repro checkout)")
        _add_cache_flags(sub_parser)
    report_list = report_sub.add_parser(
        "list", help="list the registered paper figures/tables"
    )
    report_list.set_defaults(func=_cmd_report)
    report_all.set_defaults(func=_cmd_report)
    report_run.set_defaults(func=_cmd_report)

    model = sub.add_parser(
        "model",
        help="analytic model tables as sweeps (no simulation)",
    )
    model_sub = model.add_subparsers(dest="action", required=True)

    # One loop builds every family's sweep command: the perf family's
    # is the top-level ``repro sweep``, the others sit under their own
    # command.
    family_commands = {"attack": attack_sub, "mc": mc_sub,
                       "system": system_sub, "model": model_sub}
    for family in FAMILIES.values():
        group = family_commands.get(family.name)
        if group is None:
            family_sweep = sub.add_parser(family.name,
                                          help=family.description)
        else:
            family_sweep = group.add_parser("sweep",
                                            help=family.description)
        _add_sweep_flags(family_sweep, family)

    workloads = sub.add_parser("workloads", help="list Table 4 profiles")
    workloads.set_defaults(func=_cmd_workloads)

    obs = sub.add_parser(
        "obs",
        help="summarize or export recorded observability traces "
        "(see `mc run --trace-out` / `system run --trace-out`)",
    )
    obs_sub = obs.add_subparsers(dest="action", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize",
        help="print event counts, latency histograms, and provenance "
        "of a repro.obs/v2 trace",
    )
    obs_summarize.add_argument("path", help="repro.obs/v2 artifact path")
    obs_summarize.set_defaults(func=_cmd_obs)
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a repro.obs/v2 trace to a pure Perfetto/Chrome "
        "trace-event JSON file",
    )
    obs_export.add_argument("path", help="repro.obs/v2 artifact path")
    obs_export.add_argument("--out", default=None, metavar="PATH",
                            help="output path (default: "
                            "<path>.perfetto.json)")
    obs_export.set_defaults(func=_cmd_obs)

    lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rules (determinism, "
        "hash-neutrality, registry-coverage, listener-hygiene, "
        "telemetry-purity)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                      "(default: <root>/src)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule names to run "
                      "(default: all; see --list-rules)")
    lint.add_argument("--ignore", default=None, metavar="RULES",
                      help="comma-separated rule names to skip")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text",
                      help="report format (json emits the "
                      "repro.lint/v1 artifact)")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the repro.lint/v1 JSON "
                      "artifact to PATH")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="repo root for relative paths and "
                      "registry-coverage (default: git toplevel)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule registry and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the command under cProfile; stats go to stderr.

    The table is printed on stderr so the command's own stdout
    (tables, artifacts-to-stdout) stays pipeable.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(args.func, args)
    finally:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        print(f"--- cProfile: top {_PROFILE_TOP_N} by cumulative time ---",
              file=sys.stderr)
        stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "profile", False):
            return _run_profiled(args)
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early. Exit with
        # the conventional SIGPIPE status (not 0: the command may have
        # been cut short before e.g. a --check gate ran).
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    except (KeyError, ValueError, OSError) as exc:
        # A bad name, value or path is a usage error: one line, exit 2,
        # never a traceback. A KeyError's str() quotes its message.
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

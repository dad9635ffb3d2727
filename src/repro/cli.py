"""Command-line interface: assemble, disassemble, simulate, reproduce.

Installed as ``python -m repro``.  Subcommands:

* ``asm FILE``            -- assemble to a hex listing
* ``dis WORD [WORD...]``  -- disassemble instruction words
* ``run FILE``            -- assemble and simulate a program
* ``kernel NAME``         -- run one benchmark configuration
* ``nn NAME``             -- run one NN workload kernel (scalar /
                             auto / manual / fused-block modes,
                             optional stochastic rounding)
* ``formats``             -- list registered number formats (the
                             pluggable codec registry: IEEE smallFloat,
                             posit, MX block formats)
* ``lint FILE``           -- static-analyze an assembly file (or a
                             built-in kernel with ``--kernel``)
* ``analyze FILE``        -- abstract interpretation: value-range and
                             rounding-error bounds, overflow/underflow/
                             cancellation risks; ``--validate`` replays
                             the bounds against the simulator and fails
                             hard on any escape (with no target, the
                             full kernel matrix is validated)
* ``profile KERNEL``      -- cycle-attribution profile of one kernel
                             run: hot loops/blocks, stall causes, and
                             optional JSON / Chrome-trace / annotated
                             disassembly exports
* ``experiments [NAME]``  -- regenerate paper tables/figures
* ``tune``                -- run the precision-tuning case study
* ``faults KERNEL``       -- run fault-injection campaigns and print a
                             per-format resilience summary
* ``serve``               -- long-lived kernel-execution service
                             (JSON over HTTP, batched + cached)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import ReproError


def _kernel_ftypes() -> List[str]:
    """Registered kernel-capable type keywords, for ``--ftype`` choices."""
    from .fp import registry

    return list(registry.kernel_ftypes())


def _unbuildable(spec, ftype: str, mode: str) -> bool:
    """Print why a kernel point has no program, if it has none."""
    from .harness.runner import build_error

    problem = build_error(spec, ftype, mode)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
    return problem is not None


def _build_kernel_arg(args: argparse.Namespace):
    """Compile ``--kernel`` as ``run_kernel`` would; ``None`` if it can't."""
    from .harness.runner import build_kernel
    from .kernels import KERNELS

    if args.kernel not in KERNELS:
        print(f"unknown kernel {args.kernel!r}; choose from "
              f"{sorted(KERNELS)}", file=sys.stderr)
        return None
    spec = KERNELS[args.kernel]
    if _unbuildable(spec, args.ftype, args.mode):
        return None
    return build_kernel(spec, args.ftype, args.mode, lint=False)


def _cmd_formats(args: argparse.Namespace) -> int:
    from .fp import registry
    from .nn import fused_block_kernels

    rows = []
    for fmt in registry.all_formats():
        rows.append({
            "name": fmt.name,
            "suffix": fmt.suffix,
            "keyword": fmt.c_keyword,
            "width": fmt.width,
            "family": ("ieee" if fmt.ieee else "guest"),
            "extension": fmt.ext_name or ("F" if fmt.suffix in ("s", "d")
                                          else "Xsmallfloat"),
            "vector": bool(fmt.has_vector and fmt.width <= 16),
            "block_dotp": bool(fmt.has_block_dotp),
            "fused_block_kernels": list(
                fused_block_kernels(fmt.c_keyword)),
            "has_inf": bool(fmt.has_inf),
            "max_value": fmt.max_value,
            "machine_epsilon": fmt.machine_epsilon,
            "energy_row": fmt.energy_row(),
        })
    if args.json:
        import json

        print(json.dumps({"formats": rows}, indent=2, sort_keys=True))
        return 0
    header = (f"{'name':<12s} {'suffix':<6s} {'keyword':<11s} "
              f"{'bits':>4s} {'family':<6s} {'extension':<12s} "
              f"{'simd':<5s} {'max':>10s} {'eps':>10s} "
              f"{'fused-block NN':<22s}")
    print(header)
    print("-" * len(header))
    for row in rows:
        simd = ("block" if row["block_dotp"]
                else "vec" if row["vector"] else "-")
        fused = ",".join(k[len("nn_"):]
                         for k in row["fused_block_kernels"]) or "-"
        print(f"{row['name']:<12s} .{row['suffix']:<5s} "
              f"{row['keyword']:<11s} {row['width']:>4d} "
              f"{row['family']:<6s} {row['extension']:<12s} "
              f"{simd:<5s} {row['max_value']:>10.4g} "
              f"{row['machine_epsilon']:>10.4g} {fused:<22s}")
    print(f"{len(rows)} formats registered")
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    from .isa import assemble, disassemble

    with open(args.file) as handle:
        program = assemble(handle.read())
    for index, word in enumerate(program.words):
        addr = program.text_base + 4 * index
        print(f"{addr:08x}: {word:08x}  {disassemble(word, addr)}")
    if program.data:
        print(f"# data section: {len(program.data)} bytes at "
              f"{program.data_base:#x}")
    for symbol, addr in sorted(program.symbols.items(), key=lambda s: s[1]):
        print(f"# {symbol} = {addr:#x}")
    return 0


def _cmd_dis(args: argparse.Namespace) -> int:
    from .isa import disassemble

    for text in args.words:
        word = int(text, 16) if text.lower().startswith("0x") else int(text)
        print(f"{word:08x}  {disassemble(word)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .isa import assemble
    from .isa.registers import parse_xreg, xreg_name
    from .sim import Simulator

    with open(args.file) as handle:
        program = assemble(handle.read())
    sim = Simulator(program, mem_latency=args.latency)
    regs = {}
    for spec in args.reg or []:
        name, _, value = spec.partition("=")
        regs[parse_xreg(name)] = int(value, 0) & 0xFFFFFFFF
    entry = args.entry if args.entry in program.symbols else 0
    result = sim.run(entry, args=regs, max_instructions=args.max_instructions)
    print(f"exit: {result.exit_reason}, {result.instret} instructions, "
          f"{result.cycles} cycles")
    if result.trap is not None:
        print(f"  trap: {result.trap}")
        csr = sim.machine.csr
        print(f"  mcause={csr.mcause:#x} mepc={csr.mepc:#010x} "
              f"mtval={csr.mtval:#010x}")
    elif result.exit_reason == "budget_exceeded":
        print(f"  {result.detail}")
    for reg in range(10, 18):  # a0-a7
        value = sim.machine.read_x(reg)
        if value:
            print(f"  {xreg_name(reg)} = {value:#010x} ({value})")
    if args.breakdown:
        for category, count in result.trace.breakdown().items():
            if count:
                print(f"  {category:<10s} {count}")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from .harness import run_kernel
    from .kernels import KERNELS

    if args.name not in KERNELS:
        print(f"unknown kernel {args.name!r}; choose from "
              f"{sorted(KERNELS)}", file=sys.stderr)
        return 1
    if _unbuildable(KERNELS[args.name], args.ftype, args.mode):
        return 2
    run = run_kernel(KERNELS[args.name], args.ftype, args.mode,
                     mem_latency=args.latency, seed=args.seed,
                     profile=args.profile)
    print(f"{args.name} [{args.ftype}, {args.mode}, latency={args.latency}]")
    print(f"  cycles:  {run.cycles}")
    print(f"  instret: {run.instret}")
    print(f"  energy:  {run.energy.total / 1e3:.2f} nJ "
          f"(ops {run.energy.op_energy / 1e3:.2f}, "
          f"mem {run.energy.mem_energy / 1e3:.2f}, "
          f"background {run.energy.background_energy / 1e3:.2f})")
    print(f"  SQNR:    {run.sqnr_db():.1f} dB")
    if args.asm:
        print(run.asm)
    if run.profile is not None:
        from .profile import render_text

        print()
        print(render_text(run.profile))
    return 0


def _cmd_nn(args: argparse.Namespace) -> int:
    from .fp.rounding import RoundingMode
    from .kernels import KERNELS
    from .metrics import max_abs_err
    from .nn import NN_KERNEL_NAMES, BlockFormatError, run_fused_block

    if args.name == "list":
        for name in NN_KERNEL_NAMES:
            spec = KERNELS[name]
            dims = ", ".join(f"{k}={v}" for k, v in spec.params.items())
            print(f"{name:<14s} {dims}")
        return 0
    if args.name not in NN_KERNEL_NAMES:
        print(f"unknown NN kernel {args.name!r}; choose from "
              f"{NN_KERNEL_NAMES} (or 'list')", file=sys.stderr)
        return 1

    frm = int(RoundingMode.SR) if args.sr is not None else None
    sr_key = args.sr or 0
    rounding = f"SR(key={sr_key})" if args.sr is not None else "RNE"

    if args.mode == "block":
        try:
            run = run_fused_block(args.name, args.ftype, seed=args.seed,
                                  frm=frm or 0, sr_key=sr_key)
        except BlockFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{args.name} [{args.ftype}, fused-block, {rounding}]")
        print(f"  instret: {run.instret}")
        print(f"  vfdotpmx calls: {run.dotp_count}")
        for name in sorted(run.outputs):
            print(f"  {name}: SQNR {run.sqnr_db(name):.1f} dB, "
                  f"max |err| "
                  f"{max_abs_err(run.golden[name], run.outputs[name]):.3g}")
        return 0

    from .harness import run_kernel

    run = run_kernel(KERNELS[args.name], args.ftype, args.mode,
                     seed=args.seed, frm=frm, sr_key=sr_key)
    print(f"{args.name} [{args.ftype}, {args.mode}, {rounding}]")
    print(f"  cycles:  {run.cycles}")
    print(f"  instret: {run.instret}")
    for name in sorted(run.outputs):
        print(f"  {name}: SQNR {run.sqnr_db(name):.1f} dB, max |err| "
              f"{max_abs_err(run.golden[name], run.outputs[name]):.3g}")
    if args.name == "nn_mlp_train":
        losses = ", ".join(f"{v:.5f}" for v in run.outputs["losses"])
        print(f"  losses:  [{losses}]")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json

    from .harness import run_kernel
    from .harness.runner import build_kernel
    from .kernels import KERNELS
    from .profile import (TimelineRecorder, annotate_disassembly,
                          render_text, to_chrome_trace)

    if args.name not in KERNELS:
        print(f"unknown kernel {args.name!r}; choose from "
              f"{sorted(KERNELS)}", file=sys.stderr)
        return 1
    # 'vector' reads naturally on the command line; it is the
    # compiler's auto-vectorized build.
    mode = "auto" if args.mode == "vector" else args.mode
    if _unbuildable(KERNELS[args.name], args.ftype, mode):
        return 2
    # The timeline needs per-step timestamps, so only --trace runs the
    # reference loop under a step hook; the profile comes from the
    # trace either way.
    timeline = None
    if args.trace:
        timeline = TimelineRecorder(
            build_kernel(KERNELS[args.name], args.ftype, mode).program,
            max_events=args.max_timeline_events)
    run = run_kernel(KERNELS[args.name], args.ftype, mode,
                     mem_latency=args.latency, seed=args.seed,
                     profile=True, injector=timeline)
    profile = run.profile

    if args.json:
        print(_json.dumps(profile.to_payload(), indent=2))
    else:
        print(render_text(profile, top=args.top))
    if args.annotate:
        # Re-assembling run.asm reproduces the program's exact layout,
        # so the profile's addresses line up with the listing.
        from .isa import assemble

        print(annotate_disassembly(profile, assemble(run.asm)))
    if args.trace:
        timeline.finish(run.trace)
        with open(args.trace, "w") as handle:
            _json.dump(to_chrome_trace(profile, timeline), handle)
        print(f"wrote Chrome trace to {args.trace} "
              "(load in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis import (LintConfig, lint_program, severity_at_least,
                           validate_findings)

    # ------------------------------------------------------------------
    # Obtain a program (an assembly file, or a built-in kernel build).
    # ------------------------------------------------------------------
    source = None
    vector_report = None
    trace = None
    if args.kernel is not None:
        kernel = _build_kernel_arg(args)
        if kernel is None:
            return 2
        program = kernel.program
        source = kernel.asm
        vector_report = kernel.vector_report
        if args.validate:
            from .harness import run_kernel
            from .kernels import KERNELS

            trace = run_kernel(KERNELS[args.kernel], args.ftype,
                               args.mode).trace
    elif args.file is not None:
        from .isa import assemble

        with open(args.file) as handle:
            source = handle.read()
        program = assemble(source)
        if args.validate:
            from .sim import Simulator

            sim = Simulator(program)
            entry = args.entry if args.entry in program.symbols else 0
            trace = sim.run(entry).trace
    else:
        print("lint: give an assembly FILE or --kernel NAME",
              file=sys.stderr)
        return 2

    # ------------------------------------------------------------------
    # Lint (and optionally validate against the dynamic trace).
    # ------------------------------------------------------------------
    config = LintConfig(disabled=set(args.disable or []),
                        min_severity=args.min_severity)
    entries = [args.entry] if args.kernel is None and args.entry and \
        args.entry in program.symbols else None
    result = lint_program(program, entries=entries,
                          vector_report=vector_report, source=source,
                          config=config)
    report = validate_findings(result.findings, trace) \
        if trace is not None else None

    if args.json:
        payload = result.to_payload()
        payload["elapsed_ms"] = round(result.elapsed * 1e3, 3)
        if report is not None:
            payload["validation"] = report.to_payload()
        print(_json.dumps(payload, indent=2))
    elif report is not None:
        print(report.render_text())
    else:
        print(result.render_text())

    failing = [f for f in result.findings
               if severity_at_least(f.severity, args.fail_on)]
    return 1 if failing else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis.absint import AbsintConfig, analyze_program
    from .analysis.absint_validate import (AbsintObserver,
                                           check_trip_contract,
                                           validate_kernel, validate_matrix)

    config = AbsintConfig(input_bound=args.input_bound,
                          trip_bound=args.trip_bound,
                          error_budget=args.budget)

    # ------------------------------------------------------------------
    # No target + --validate: replay the whole baseline matrix.
    # ------------------------------------------------------------------
    if args.kernel is None and args.file is None:
        if not args.validate:
            print("analyze: give an assembly FILE, --kernel NAME, or "
                  "--validate for the full-matrix soundness replay",
                  file=sys.stderr)
            return 2
        report = validate_matrix(config=config, seed=args.seed)
        if args.json:
            payload = {
                "sound": report.ok,
                "configs": [
                    {
                        "kernel": c.kernel, "ftype": c.ftype,
                        "mode": c.mode, "ok": c.ok,
                        "checked_values": c.checked_values,
                        "violations": [v.render() for v in c.violations],
                    }
                    for c in report.configs
                ],
            }
            print(_json.dumps(payload, indent=2))
        else:
            print(report.render_text())
        return 0 if report.ok else 1

    # ------------------------------------------------------------------
    # Obtain a program (an assembly file, or a built-in kernel build).
    # ------------------------------------------------------------------
    violations = None
    if args.kernel is not None:
        kernel = _build_kernel_arg(args)
        if kernel is None:
            return 2
        result = analyze_program(kernel.program, config=config)
        if args.validate:
            cv = validate_kernel(args.kernel, args.ftype, args.mode,
                                 config=config, seed=args.seed)
            violations = cv.violations
    else:
        from .isa import assemble
        from .sim import Simulator

        with open(args.file) as handle:
            program = assemble(handle.read())
        result = analyze_program(program, config=config)
        if args.validate:
            observer = AbsintObserver(config, result=result)
            sim = Simulator(program)
            entry = args.entry if args.entry in program.symbols else 0
            run = sim.run(entry, step_hook=observer)
            if run.trap is None:
                observer.finish()
            violations = list(observer.violations)
            violations.extend(
                check_trip_contract(result, run.trace, config))

    # ------------------------------------------------------------------
    # Report.
    # ------------------------------------------------------------------
    if args.json:
        payload = result.to_payload()
        payload["elapsed_ms"] = round(result.elapsed * 1e3, 3)
        if violations is not None:
            payload["validation"] = {
                "sound": not violations,
                "violations": [v.render() for v in violations],
            }
        print(_json.dumps(payload, indent=2))
    else:
        print(result.render_text(top=args.top))
        if violations is not None:
            if violations:
                print(f"validation: UNSOUND -- {len(violations)} "
                      f"violation(s):")
                for violation in violations:
                    print(f"  {violation.render()}")
            else:
                print("validation: SOUND -- no dynamic value or error "
                      "escaped its static bound")
    return 1 if violations else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .harness import experiments as E

    name = args.name
    if args.profile_dir:
        rows = E.profile_sweep(args.profile_dir)
        written = sum(1 for row in rows if row["file"])
        print(f"wrote {written}/{len(rows)} profiles to {args.profile_dir}")
        for row in rows:
            if not row["file"]:
                print(f"  skipped {row['benchmark']}/{row['ftype']}/"
                      f"{row['mode']}: {row['status']} ({row['detail']})")
        return 0
    if name in ("table2", "all"):
        print("Table II (lanes per format):")
        for flen, row in E.table2_vector_formats().items():
            print(f"  FLEN={flen}: {row}")
    jobs, cache_dir = args.jobs, args.cache_dir
    if name in ("fig1", "all"):
        print("Fig. 1 (speedup averages):")
        for row in E.fig1_speedup(jobs=jobs, cache_dir=cache_dir):
            if row["benchmark"] == "average":
                print(f"  {row['ftype']:<12s} {row['mode']:<7s} "
                      f"{row['speedup']:.2f}x")
    if name in ("fig2", "all"):
        print("Fig. 2 (latency gains over L1):")
        rows = E.fig2_latency_speedup(jobs=jobs, cache_dir=cache_dir)
        for ftype, gains in E.fig2_latency_gains(rows).items():
            print(f"  {ftype}: L2 {gains['L2_vs_L1']:+.1%}, "
                  f"L3 {gains['L3_vs_L1']:+.1%}")
    if name in ("fig3", "all"):
        print("Fig. 3 (energy savings vs float):")
        rows = E.fig3_energy(jobs=jobs, cache_dir=cache_dir)
        for ftype, savings in E.fig3_average_savings(rows).items():
            row = ", ".join(f"{k} {v:.0%}" for k, v in savings.items())
            print(f"  {ftype}: {row}")
    if name in ("table3", "all"):
        print("Table III (SQNR dB):")
        for row in E.table3_sqnr(jobs=jobs, cache_dir=cache_dir):
            print(f"  {row['benchmark']:<8s} {row['ftype']:<12s} "
                  f"{row['sqnr_db']:6.1f}")
    if name in ("fig4", "all"):
        print("Fig. 4 (SVM instruction breakdown):")
        for variant, counts in E.fig4_breakdown(
                jobs=jobs, cache_dir=cache_dir).items():
            print(f"  {variant}: {counts}")
    if name in ("fig5", "all"):
        result = E.fig5_codegen()
        print(f"Fig. 5: auto {result['auto_loop_instructions']} vs manual "
              f"{result['manual_loop_instructions']} loop instructions "
              f"({result['reduction']:.0%} reduction)")
    if name in ("fig6", "all"):
        print("Fig. 6 (mixed precision):")
        for row in E.fig6_mixed_precision(jobs=jobs, cache_dir=cache_dir):
            print(f"  {row['scheme']:<15s} speedup {row['speedup']:.2f}, "
                  f"energy {row['energy_normalized']:.2f}, "
                  f"error {row['classification_error']:.1%}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import compare_formats
    from .kernels import KERNELS

    if args.kernel not in KERNELS:
        print(f"unknown kernel {args.kernel!r}; choose from "
              f"{sorted(KERNELS)}", file=sys.stderr)
        return 1
    ftypes = [t.strip() for t in args.ftypes.split(",") if t.strip()]
    targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    try:
        results = compare_formats(
            args.kernel, ftypes=ftypes, mode=args.mode, runs=args.runs,
            flips_per_run=args.flips, targets=targets, seed=args.seed,
            mem_latency=args.latency, instruction_budget=args.budget,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"Fault resilience: {args.kernel} [{args.mode}], "
          f"{args.runs} runs x {args.flips} flip(s), "
          f"targets {','.join(targets)}, seed {args.seed}")
    header = (f"  {'ftype':<12s} {'ok':>4s} {'trap':>5s} {'budget':>7s} "
              f"{'error':>6s} {'masked':>7s} {'SDC':>6s} "
              f"{'mean dSQNR':>11s} {'ref SQNR':>9s}")
    print(header)
    for ftype, campaign in results.items():
        s = campaign.summary()
        drop = s["mean_sqnr_drop_db"]
        drop_text = f"{drop:8.1f} dB" if drop is not None else "       - "
        print(f"  {ftype:<12s} {s['ok']:>4d} {s['trap']:>5d} "
              f"{s['budget_exceeded']:>7d} {s['error']:>6d} "
              f"{s['masked_rate']:>6.0%} {s['sdc_rate']:>6.0%} "
              f"{drop_text} {s['reference_sqnr_db']:>6.1f} dB")
    if args.trials:
        for ftype, campaign in results.items():
            print(f"\n{ftype} trials:")
            for trial in campaign.trials:
                tags = [trial.status]
                if trial.masked:
                    tags.append("masked")
                if trial.sdc:
                    tags.append("sdc")
                flips = "; ".join(f.describe() for f in trial.flips)
                line = f"  #{trial.trial:<3d} {'/'.join(tags):<22s} {flips}"
                if trial.detail:
                    line += f"  [{trial.detail}]"
                print(line)
    if args.json:
        import json

        payload = {
            ftype: {
                "summary": campaign.summary(),
                "trials": [
                    {
                        "trial": t.trial,
                        "seed": t.seed,
                        "status": t.status,
                        "masked": t.masked,
                        "sdc": t.sdc,
                        "sqnr_db": t.sqnr_db,
                        "sqnr_drop_db": t.sqnr_drop_db,
                        "classification_error": t.classification_error,
                        "instret": t.instret,
                        "flips": [f.describe() for f in t.flips],
                        "detail": t.detail,
                    }
                    for t in campaign.trials
                ],
            }
            for ftype, campaign in results.items()
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.server import ReproServeApp, make_server, run_server

    app = ReproServeApp(
        workers=args.jobs,
        cache_dir=args.cache_dir,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        worker_processes=args.workers,
        journal_path=args.journal,
    )
    server = make_server(app, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    cache_root = app.cache.root if app.cache is not None else "off"
    if args.workers:
        topology = f"fleet workers={args.workers}"
    else:
        topology = f"threads={args.jobs}"
    journal = f", journal={args.journal}" if args.journal else ""
    print(f"repro serve listening on http://{host}:{port} "
          f"({topology}, max-queue={args.max_queue}, "
          f"cache={cache_root}{journal})", flush=True)
    drained = run_server(server, app)
    print(f"repro serve: drained={'clean' if drained else 'timeout'}, bye",
          flush=True)
    return 0 if drained else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import make_gesture_case, run_case_study

    case = make_gesture_case(seed=args.seed)
    for label, result in run_case_study(case).items():
        print(f"{label}: {result.assignment} "
              f"(error {result.qor:.1%}, {result.evaluations} evaluations)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="smallFloat RISC-V reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a file to a hex listing")
    p_asm.add_argument("file")
    p_asm.set_defaults(func=_cmd_asm)

    p_dis = sub.add_parser("dis", help="disassemble instruction words")
    p_dis.add_argument("words", nargs="+", metavar="WORD")
    p_dis.set_defaults(func=_cmd_dis)

    p_run = sub.add_parser("run", help="assemble and simulate a program")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="main")
    p_run.add_argument("--latency", type=int, default=1,
                       help="data-memory latency in cycles (1/10/100)")
    p_run.add_argument("--reg", action="append", metavar="NAME=VALUE",
                       help="initial register value, e.g. --reg a0=5")
    p_run.add_argument("--breakdown", action="store_true",
                       help="print the instruction-category histogram")
    p_run.add_argument("--max-instructions", type=int, default=50_000_000)
    p_run.set_defaults(func=_cmd_run)

    p_formats = sub.add_parser(
        "formats", help="list registered number formats")
    p_formats.add_argument("--json", action="store_true",
                           help="emit the registry as JSON")
    p_formats.set_defaults(func=_cmd_formats)

    p_kernel = sub.add_parser("kernel", help="run one benchmark kernel")
    p_kernel.add_argument("name")
    p_kernel.add_argument("--ftype", default="float16",
                          choices=_kernel_ftypes())
    p_kernel.add_argument("--mode", default="auto",
                          choices=["scalar", "auto", "manual"])
    p_kernel.add_argument("--latency", type=int, default=1)
    p_kernel.add_argument("--seed", type=int, default=0)
    p_kernel.add_argument("--asm", action="store_true",
                          help="print the generated assembly")
    p_kernel.add_argument("--profile", action="store_true",
                          help="also collect and print a cycle-"
                               "attribution profile")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_nn = sub.add_parser(
        "nn", help="run one NN workload kernel (or 'list')")
    p_nn.add_argument("name",
                      help="nn_mlp_fwd, nn_mlp_train, nn_conv2d, "
                           "nn_softmax, nn_layernorm, nn_attention, "
                           "or 'list'")
    p_nn.add_argument("--ftype", default="float8",
                      help="number format keyword (block formats like "
                           "mx8 require --mode block)")
    p_nn.add_argument("--mode", default="scalar",
                      choices=["scalar", "auto", "manual", "block"])
    p_nn.add_argument("--seed", type=int, default=0)
    p_nn.add_argument("--sr", type=int, default=None, metavar="KEY",
                      help="use stochastic rounding with this lane key")
    p_nn.set_defaults(func=_cmd_nn)

    p_profile = sub.add_parser(
        "profile", help="cycle-attribution profile of one kernel run")
    p_profile.add_argument("name", metavar="KERNEL")
    p_profile.add_argument("--ftype", default="float16",
                           choices=_kernel_ftypes())
    p_profile.add_argument("--mode", default="auto",
                           choices=["scalar", "auto", "manual", "vector"],
                           help="build to profile ('vector' is an alias "
                                "for the auto-vectorized build)")
    p_profile.add_argument("--latency", type=int, default=1,
                           help="data-memory latency in cycles (1/10/100)")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--top", type=int, default=10,
                           help="rows per hot-spot table")
    p_profile.add_argument("--json", action="store_true",
                           help="emit the schema-versioned JSON payload "
                                "instead of the text report")
    p_profile.add_argument("--annotate", action="store_true",
                           help="print the disassembly with per-"
                                "instruction cycles in the margin")
    p_profile.add_argument("--trace", metavar="FILE",
                           help="write a Chrome trace_event timeline "
                                "(chrome://tracing, Perfetto)")
    p_profile.add_argument("--max-timeline-events", type=int,
                           default=100_000,
                           help="cap on captured block/stall events "
                                "(with --trace)")
    p_profile.set_defaults(func=_cmd_profile)

    p_lint = sub.add_parser(
        "lint", help="static-analyze an assembly file or built-in kernel")
    p_lint.add_argument("file", nargs="?", default=None,
                        help="assembly file (omit when using --kernel)")
    p_lint.add_argument("--kernel", default=None,
                        help="lint a built-in benchmark kernel instead")
    p_lint.add_argument("--ftype", default="float16",
                        choices=_kernel_ftypes())
    p_lint.add_argument("--mode", default="scalar",
                        choices=["scalar", "auto", "manual"])
    p_lint.add_argument("--entry", default="main",
                        help="entry symbol (file mode; default: infer)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    p_lint.add_argument("--min-severity", default="note",
                        choices=["note", "warning", "error"],
                        help="hide findings below this severity")
    p_lint.add_argument("--fail-on", default="error",
                        choices=["note", "warning", "error"],
                        help="exit non-zero when findings reach this "
                             "severity (default: error)")
    p_lint.add_argument("--disable", action="append", metavar="CHECK",
                        help="disable one check (repeatable)")
    p_lint.add_argument("--validate", action="store_true",
                        help="run the program and classify each finding "
                             "against the dynamic trace")
    p_lint.set_defaults(func=_cmd_lint)

    p_analyze = sub.add_parser(
        "analyze", help="abstract interpretation: value/error bounds, "
                        "overflow risks, soundness validation")
    p_analyze.add_argument("file", nargs="?", default=None,
                           help="assembly file (omit when using --kernel "
                                "or full-matrix --validate)")
    p_analyze.add_argument("--kernel", default=None,
                           help="analyze a built-in benchmark kernel")
    p_analyze.add_argument("--ftype", default="float16",
                           choices=_kernel_ftypes())
    p_analyze.add_argument("--mode", default="scalar",
                           choices=["scalar", "auto", "manual"])
    p_analyze.add_argument("--entry", default="main",
                           help="entry symbol (file mode; default: infer)")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    p_analyze.add_argument("--input-bound", type=float, default=128.0,
                           help="assumed magnitude bound on unknown-"
                                "provenance operands (the input "
                                "contract; default 128)")
    p_analyze.add_argument("--trip-bound", type=int, default=4096,
                           help="assumed max iterations per loop entry "
                                "(the trip contract; default 4096)")
    p_analyze.add_argument("--budget", type=float, default=None,
                           help="relative error budget checked at store "
                                "sites (arms error-budget-exceeded)")
    p_analyze.add_argument("--top", type=int, default=8,
                           help="rows in the largest-error-bound table")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="kernel data seed for --validate")
    p_analyze.add_argument("--validate", action="store_true",
                           help="replay the static bounds against the "
                                "simulator; any escape exits non-zero "
                                "(no FILE/--kernel: the full matrix)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("experiments",
                           help="regenerate paper tables/figures")
    p_exp.add_argument("name", nargs="?", default="all",
                       choices=["all", "table2", "table3", "fig1", "fig2",
                                "fig3", "fig4", "fig5", "fig6"])
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="compute sweep points in N worker processes")
    p_exp.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent per-point result cache "
                            "(default: $REPRO_RESULT_CACHE if set)")
    p_exp.add_argument("--profile-dir", metavar="DIR", default=None,
                       help="instead of figures, write one cycle-"
                            "attribution profile JSON per sweep point "
                            "into DIR")
    p_exp.set_defaults(func=_cmd_experiments)

    p_faults = sub.add_parser(
        "faults", help="run fault-injection campaigns on one kernel")
    p_faults.add_argument("kernel")
    p_faults.add_argument("--ftypes", default="float16,float16alt,float8",
                          help="comma-separated FP types to compare")
    p_faults.add_argument("--mode", default="scalar",
                          choices=["scalar", "auto", "manual"])
    p_faults.add_argument("--runs", type=int, default=20,
                          help="fault-injected reruns per type")
    p_faults.add_argument("--flips", type=int, default=1,
                          help="bit flips per run")
    p_faults.add_argument("--targets", default="freg,mem",
                          help="comma-separated surfaces: "
                               "xreg,freg,mem,instr")
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--latency", type=int, default=1)
    p_faults.add_argument("--budget", type=int, default=None,
                          help="per-trial instruction watchdog "
                               "(default: 4x the clean run)")
    p_faults.add_argument("--trials", action="store_true",
                          help="print every trial with its flip schedule")
    p_faults.add_argument("--json", metavar="FILE",
                          help="dump campaigns as JSON")
    p_faults.set_defaults(func=_cmd_faults)

    p_serve = sub.add_parser(
        "serve", help="long-lived kernel-execution service (HTTP)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 picks an ephemeral port, "
                              "printed on startup)")
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="run N supervised worker *subprocesses* "
                              "(crash-isolated fleet with heartbeats, "
                              "failover and circuit breakers) instead of "
                              "in-process threads")
    p_serve.add_argument("--journal", metavar="PATH", default=None,
                         help="write-ahead sweep journal (JSONL); an "
                              "interrupted server resumes incomplete "
                              "sweeps from it on restart")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker threads executing kernel points")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="persistent per-point result cache "
                              "(default: $REPRO_RESULT_CACHE, else a "
                              "private temp dir)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="queued-job bound; beyond it requests get "
                              "429 + Retry-After")
    p_serve.add_argument("--deadline-ms", type=int, default=None,
                         help="default per-request deadline (cancels "
                              "via the instruction budget); requests "
                              "may override")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=_cmd_serve)

    p_tune = sub.add_parser("tune", help="precision-tuning case study")
    p_tune.add_argument("--seed", type=int, default=42)
    p_tune.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

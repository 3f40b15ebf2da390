"""The e9tool analogue: one-call instrumentation of an ELF binary, a
batch API over the staged pipeline, and a command-line interface.

``instrument_elf`` runs the standard pass sequence (decode -> match ->
plan -> group -> emit) for one configuration; ``rewrite_many`` runs many
configurations of the same binary while decoding the instruction stream
once and caching matcher results — the eval/ablation drivers are thin
loops over it.  Both surface per-pass wall-time and counters through the
shared :class:`~repro.core.observe.Observer`.

Two optional accelerators thread through every entry point:

* ``jobs`` — a :class:`~repro.core.parallel.BatchExecutor` shards a
  batch across worker processes, one (binary, config) pair per task,
  with deterministic ordering and a serial fallback that produces the
  same bytes;
* ``cache`` — an :class:`~repro.core.cache.ArtifactStore` persists
  decoded instruction streams and matcher results (optionally whole
  rewrite results) on disk, so warm runs skip ``DecodePass`` and
  ``MatchPass`` entirely — checkable via ``pass.decode.runs == 0`` and
  the ``cache.*`` counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from repro.analysis.lint import LintError
from repro.core.cache import ArtifactStore
from repro.core.grouping import DEFAULT_MAX_MAP_COUNT
from repro.core.observe import Observer, derive_throughput, stderr_trace_hook
from repro.core.parallel import BatchExecutor, ExecutorConfig, is_picklable
from repro.core.pipeline import (EMISSION_MODES, DecodePass, MatchPass, RewriteContext,
                                 RewriteOptions, RewriteResult)
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.trampoline import Counter, Empty, Instrumentation
from repro.elf.reader import ElfFile
from repro.errors import OptionsError
from repro.frontend.matchers import MATCHERS, Matcher, resolve_matcher
from repro.x86.fastscan import InstructionStream


@dataclass
class InstrumentReport:
    """Result bundle for an instrumentation run."""

    result: RewriteResult
    n_sites: int
    counter_vaddr: int | None = None  # set when instrumentation="counter"
    label: str = ""  # batch configuration label (rewrite_many)
    elf_type: str = "ET_EXEC"  # input image kind ("ET_EXEC" / "ET_DYN")
    cet: bool = False  # CET/IBT instruction set observed (note or endbr64)
    cet_note: bool = False  # explicit GNU property note carrying the IBT bit

    @property
    def stats(self):
        return self.result.stats

    @property
    def timings(self) -> dict[str, float]:
        """Per-pass wall-time seconds for this run (batch runs report
        the per-configuration delta, not the whole batch)."""
        return self.result.timings

    @property
    def counters(self) -> dict[str, int]:
        """Per-pass counters for this run (per-configuration delta)."""
        return self.result.counters

    def summary(self) -> str:
        s = self.result.stats
        return (
            f"{s} Size%={self.result.size_pct:.2f} "
            f"mode={self.result.mode}"
        )

    def to_dict(self) -> dict:
        """The full machine-readable stats/timings bundle (CLI ``--json``)."""
        return {
            "label": self.label,
            "n_sites": self.n_sites,
            "mode": self.result.mode,
            "input_size": self.result.input_size,
            "output_size": self.result.output_size,
            "size_pct": round(self.result.size_pct, 2),
            "counter_vaddr": self.counter_vaddr,
            "binary": {
                "type": self.elf_type,
                "cet": self.cet,
                "cet_note": self.cet_note,
            },
            "stats": self.stats.row(),
            "failures": self.result.plan.failures,
            "timings": {k: round(v, 6) for k, v in self.result.timings.items()},
            "counters": self.result.counters,
            "throughput": derive_throughput(self.result.timings,
                                            self.result.counters),
        }


@dataclass
class RewriteConfig:
    """One batch entry: matcher + instrumentation + rewrite options.

    ``matcher``/``instrumentation`` left as ``None`` inherit the batch
    call's defaults, so sweeping options with a fixed matcher stays
    one-line.
    """

    matcher: Matcher | str | None = None
    instrumentation: Instrumentation | str | None = None
    options: RewriteOptions | None = None
    label: str = ""


def _resolve_instrumentation(
    ctx: RewriteContext, instrumentation
) -> tuple[Instrumentation, int | None]:
    """Turn the user-facing instrumentation spec into a concrete body."""
    counter_vaddr: int | None = None
    if instrumentation is None or instrumentation == "empty":
        instrumentation = Empty()
    elif instrumentation == "counter":
        counter_vaddr = ctx.add_runtime_data(4096)
        # ET_DYN images (shared objects, PIE) relocate at load time, so
        # the counter access must be rip-relative, not movabs.
        instrumentation = Counter(counter_vaddr, pic=ctx.elf.is_pie)
    elif callable(instrumentation) and not isinstance(instrumentation,
                                                      Instrumentation):
        # A factory receiving the context (for runtime code/data setup).
        instrumentation = instrumentation(ctx)
    return instrumentation, counter_vaddr


def prepare_binary(
    data: bytes,
    *,
    frontend: str = "linear",
    observer: Observer | None = None,
    cache: ArtifactStore | None = None,
    jobs: BatchExecutor | None = None,
) -> RewriteContext:
    """Parse and disassemble *data* once, into a reusable context.

    *frontend* selects the disassembly wrapper: ``"linear"`` (whole
    ``.text`` sweep — the paper's prototype) or ``"symbols"``
    (symbol-guided sweeps, required for binaries whose .text embeds data,
    e.g. glibc's hand-written assembly).

    With a *cache*, the decoded instruction stream is looked up by
    content hash first; on a hit ``DecodePass`` never runs (its ``runs``
    counter stays 0) and ``cache.decode.hits`` is counted instead.

    *jobs* (a :class:`~repro.core.parallel.BatchExecutor`) enables
    chunked intra-binary parallel decode for large code regions; the
    resulting stream is byte-identical to the serial sweep.
    """
    observer = observer or Observer()
    ctx = RewriteContext(ElfFile(data), observer=observer)
    key = None
    if cache is not None:
        key = cache.decode_key(data, frontend)
        cached = cache.get("decode", key)
        if isinstance(cached, (list, InstructionStream)):
            ctx.instructions = cached
            observer.count("cache.decode.hits")
            observer.count("decode.instructions", len(cached))
            return ctx
        observer.count("cache.decode.misses")
    DecodePass(frontend, jobs=jobs).run(ctx)
    if cache is not None:
        cache.put("decode", key, ctx.instructions)
    return ctx


# -- parallel worker (must be module-level: it crosses a process fork) ----


@dataclass
class _ConfigTask:
    """One (binary, config) unit shipped to a worker process."""

    data: bytes
    config: RewriteConfig
    matcher: Matcher | str
    instrumentation: Instrumentation | str | None
    frontend: str
    cache_root: str | None
    cache_max_bytes: int
    cache_outputs: bool


def _run_config_task(task: _ConfigTask):
    """Worker body: a single-configuration serial rewrite, returning the
    report plus the worker observer's accumulations and cache traffic."""
    cache = (ArtifactStore(task.cache_root, max_bytes=task.cache_max_bytes)
             if task.cache_root is not None else None)
    observer = Observer()
    [report] = _rewrite_serial(
        task.data, [task.config],
        matcher=task.matcher, instrumentation=task.instrumentation,
        frontend=task.frontend, observer=observer, cache=cache,
        cache_outputs=task.cache_outputs,
    )
    cache_stats = cache.stats.as_dict() if cache is not None else {}
    return report, observer.timings, observer.counters, cache_stats


def _rewrite_serial(
    source: bytes | RewriteContext,
    configs: list[RewriteConfig],
    *,
    matcher: Matcher | str,
    instrumentation: Instrumentation | str | None,
    frontend: str,
    observer: Observer | None,
    cache: ArtifactStore | None,
    cache_outputs: bool,
    jobs: BatchExecutor | None = None,
) -> list[InstrumentReport]:
    """The in-process batch loop: one decode, cached matches, and a
    fresh planner/emitter (hence a fresh allocator) per configuration."""
    shared_observer = (source.observer if isinstance(source, RewriteContext)
                       else observer or Observer())
    # Snapshot *before* decoding: the first configuration's per-run
    # counters carry the decode/match work its batch actually triggered.
    run_snapshot = shared_observer.snapshot()
    if isinstance(source, RewriteContext):
        base = source
    else:
        base = prepare_binary(data=source, frontend=frontend,
                              observer=shared_observer, cache=cache,
                              jobs=jobs)
    decode_key = (cache.decode_key(base.elf.data, frontend)
                  if cache is not None else None)
    elf_meta = {
        "elf_type": base.elf.elf_type,
        "cet": base.elf.is_cet_enabled(),
        "cet_note": base.elf.has_ibt_note,
    }

    site_cache: dict[object, list] = {}
    reports: list[InstrumentReport] = []
    for n, cfg in enumerate(configs):
        if n > 0:
            # Per-run counter scope: each configuration's report carries
            # only its own pass work, not the batch's running total.
            run_snapshot = shared_observer.snapshot()
        spec = cfg.matcher if cfg.matcher is not None else matcher
        sites = _match_sites(base, spec, site_cache, cache, decode_key)

        body_spec = (cfg.instrumentation if cfg.instrumentation is not None
                     else instrumentation)
        options = cfg.options or RewriteOptions()
        output_key = None
        if (cache is not None and cache_outputs and isinstance(spec, str)
                and body_spec in (None, "empty")):
            output_key = cache.output_key(decode_key, spec, options, "empty")
            hit = cache.get("output", output_key)
            if (isinstance(hit, tuple) and len(hit) == 2
                    and isinstance(hit[0], RewriteResult)):
                result, n_sites = hit
                shared_observer.count("cache.output.hits")
                result.timings, result.counters = (
                    shared_observer.since(run_snapshot))
                reports.append(InstrumentReport(
                    result=result, n_sites=n_sites, label=cfg.label,
                    **elf_meta))
                continue
            shared_observer.count("cache.output.misses")

        ctx = RewriteContext(base.elf, options, observer=shared_observer,
                             instructions=base.instructions)
        body, counter_vaddr = _resolve_instrumentation(ctx, body_spec)
        result = ctx.rewrite([PatchRequest(insn=i, instrumentation=body)
                              for i in sites])
        result.timings, result.counters = (
            shared_observer.since(run_snapshot))
        if output_key is not None:
            cache.put("output", output_key, (result, len(sites)))
        reports.append(InstrumentReport(
            result=result, n_sites=len(sites),
            counter_vaddr=counter_vaddr, label=cfg.label,
            **elf_meta,
        ))
    return reports


def _match_sites(
    base: RewriteContext,
    spec: Matcher | str,
    site_cache: dict[object, list],
    cache: ArtifactStore | None,
    decode_key: str | None,
) -> list:
    """Resolve a matcher spec to its site list: per-batch memo first,
    then the on-disk cache (string specs only), then ``MatchPass``."""
    memo_key = spec if isinstance(spec, str) else id(spec)
    if memo_key in site_cache:
        return site_cache[memo_key]

    observer = base.observer
    match_key = None
    if cache is not None and isinstance(spec, str):
        match_key = cache.match_key(decode_key, spec)
        indices = cache.get("match", match_key)
        if (isinstance(indices, list)
                and all(isinstance(i, int)
                        and 0 <= i < len(base.instructions)
                        for i in indices)):
            sites = [base.instructions[i] for i in indices]
            observer.count("cache.match.hits")
            observer.count("match.sites", len(sites))
            site_cache[memo_key] = sites
            return sites
        observer.count("cache.match.misses")

    MatchPass(resolve_matcher(spec)).run(base)
    sites = base.sites
    if match_key is not None:
        site_indices = getattr(base.instructions, "site_indices", None)
        if site_indices is not None:  # InstructionStream: address bisect
            cache.put("match", match_key, site_indices(sites))
        else:
            position = {
                id(insn): i for i, insn in enumerate(base.instructions)
            }
            cache.put("match", match_key, [position[id(s)] for s in sites])
    site_cache[memo_key] = sites
    return sites


def rewrite_many(
    source: bytes | RewriteContext,
    configs: list[RewriteConfig | RewriteOptions],
    *,
    matcher: Matcher | str = "jumps",
    instrumentation: Instrumentation | str | None = None,
    frontend: str = "linear",
    observer: Observer | None = None,
    jobs: int | ExecutorConfig | BatchExecutor | None = None,
    cache: ArtifactStore | None = None,
    cache_outputs: bool = False,
) -> list[InstrumentReport]:
    """Rewrite one binary under many configurations, sharing the decode.

    *source* is the raw ELF bytes, or a context from
    :func:`prepare_binary` when the caller wants to reuse the decode
    across several ``rewrite_many`` calls.  Each entry of *configs* is a
    :class:`RewriteConfig` (or bare :class:`RewriteOptions`, inheriting
    the call-level *matcher*/*instrumentation* defaults).

    Serially, the instruction stream is decoded exactly once and matcher
    results are memoized per matcher (checkable via the shared
    observer's ``pass.decode.runs`` / ``pass.match.runs`` counters).
    With ``jobs > 1`` (or ``$REPRO_JOBS``), picklable configurations fan
    out one (binary, config) task per worker process; outputs and stats
    are byte-identical to the serial path, results come back in config
    order, and worker observers are merged into the shared one.  An
    unpicklable matcher/instrumentation quietly degrades to serial, as
    does any batch whose effective concurrency is 1 (e.g. a one-CPU
    host, where forking workers would only forfeit the shared decode).
    """
    norm = [cfg if isinstance(cfg, RewriteConfig) else RewriteConfig(options=cfg)
            for cfg in configs]
    # *jobs* may be a pre-built executor (or a frozen ExecutorConfig):
    # long-lived callers resolve $REPRO_JOBS once at startup and reuse
    # the result for every request instead of re-reading it here.
    executor = jobs if isinstance(jobs, BatchExecutor) else BatchExecutor(jobs)
    # would_parallelize folds in the CPU count: on a one-CPU host the
    # pool cannot beat the serial path (which shares a single decode),
    # so the batch never pays the fork/pickle overhead.
    if (executor.would_parallelize(len(norm))
            and isinstance(source, (bytes, bytearray))):
        reports = _rewrite_parallel(
            executor, bytes(source), norm,
            matcher=matcher, instrumentation=instrumentation,
            frontend=frontend, observer=observer, cache=cache,
            cache_outputs=cache_outputs,
        )
        if reports is not None:
            return reports
    return _rewrite_serial(
        source, norm,
        matcher=matcher, instrumentation=instrumentation,
        frontend=frontend, observer=observer, cache=cache,
        cache_outputs=cache_outputs,
        # The serial batch path reuses the executor *inside* the decode:
        # a batch too small to fan out may still carry a binary large
        # enough for chunked intra-binary decode.
        jobs=executor,
    )


def _rewrite_parallel(
    executor: BatchExecutor,
    data: bytes,
    configs: list[RewriteConfig],
    *,
    matcher: Matcher | str,
    instrumentation: Instrumentation | str | None,
    frontend: str,
    observer: Observer | None,
    cache: ArtifactStore | None,
    cache_outputs: bool,
) -> list[InstrumentReport] | None:
    """Fan the batch out across worker processes, or return None when a
    task cannot be shipped (the caller then takes the serial path, which
    shares one in-process decode instead)."""
    tasks = [
        _ConfigTask(
            data=data, config=cfg,
            matcher=matcher, instrumentation=instrumentation,
            frontend=frontend,
            cache_root=str(cache.root) if cache is not None else None,
            cache_max_bytes=cache.max_bytes if cache is not None else 0,
            cache_outputs=cache_outputs,
        )
        for cfg in configs
    ]
    if not all(is_picklable(task) for task in tasks):
        return None
    outcomes = executor.map(_run_config_task, tasks)

    shared = observer or Observer()
    shared.count("parallel.tasks", len(tasks))
    shared.set_counter("parallel.jobs", executor.jobs)
    reports: list[InstrumentReport] = []
    for report, timings, counters, cache_stats in outcomes:
        shared.merge(timings, counters)
        if cache is not None:
            for name, value in cache_stats.items():
                setattr(cache.stats, name,
                        getattr(cache.stats, name) + value)
        reports.append(report)
    return reports


def instrument_elf(
    data: bytes,
    matcher: Matcher | str,
    instrumentation: Instrumentation | str | None = None,
    options: RewriteOptions | None = None,
    *,
    frontend: str = "linear",
    observer: Observer | None = None,
    cache: ArtifactStore | None = None,
) -> InstrumentReport:
    """Instrument every matched instruction of the binary *data*.

    *matcher* may be a predicate, one of the named matchers
    (``"jumps"``, ``"heap-writes"``, ``"calls"``, ``"all"``) or a match
    expression.
    *instrumentation* may be an :class:`Instrumentation`, ``"empty"``, or
    ``"counter"`` (a shared 64-bit counter placed in a fresh RW segment;
    its address is reported in the result).  A single-configuration
    :func:`rewrite_many`.
    """
    return rewrite_many(
        data,
        [RewriteConfig(matcher=matcher, instrumentation=instrumentation,
                       options=options)],
        frontend=frontend,
        observer=observer,
        cache=cache,
    )[0]


def instrument_elf_auto(
    data: bytes,
    matcher: Matcher | str,
    instrumentation: Instrumentation | str | None = None,
    options: RewriteOptions | None = None,
    *,
    max_mappings: int | None = None,
    cache: ArtifactStore | None = None,
) -> InstrumentReport:
    """Like :func:`instrument_elf`, but auto-tunes the page-grouping
    granularity M: doubling it until the loader's mapping count fits
    under *max_mappings* (default: the Linux ``vm.max_map_count``
    default), trading physical memory for mappings exactly as Section 4
    describes.  The adaptive search decodes the binary only once.
    """
    limit = max_mappings if max_mappings is not None else DEFAULT_MAX_MAP_COUNT
    base = options or RewriteOptions()
    prepared = prepare_binary(data, cache=cache)
    m = max(1, base.granularity)
    while True:
        report = rewrite_many(
            prepared,
            [RewriteConfig(matcher=matcher, instrumentation=instrumentation,
                           options=replace(base, mode="loader",
                                           granularity=m))],
        )[0]
        grouping = report.result.grouping
        if grouping is None or grouping.mapping_count <= limit or m >= 1024:
            return report
        m *= 2


def main(argv: list[str] | None = None) -> int:
    """Command-line interface: ``e9patch -M jumps -i empty in.elf out.elf``."""
    parser = argparse.ArgumentParser(
        prog="e9patch",
        description="Static binary rewriting without control flow recovery "
        "(E9Patch reproduction).",
    )
    parser.add_argument("input", help="input ELF binary")
    parser.add_argument("output", help="patched output path")
    parser.add_argument(
        "-M", "--match", default="jumps",
        help="patch-site matcher: a named matcher "
        f"({'/'.join(sorted(MATCHERS))}) or an expression such as "
        "'mnemonic == \"call\" and size >= 5' (default: jumps)",
    )
    parser.add_argument(
        "-i", "--instrument", default="empty", choices=("empty", "counter"),
        help="instrumentation body (default: empty)",
    )
    parser.add_argument(
        "--template", metavar="FILE",
        help="JSON trampoline template file (overrides -i); parameters "
        "are bound with --template-arg",
    )
    parser.add_argument(
        "--template-arg", action="append", default=[], metavar="NAME=INT",
        help="bind a template parameter (repeatable); the special value "
        "'alloc' reserves a fresh RW page and passes its address",
    )
    parser.add_argument(
        "--stats-json", metavar="FILE",
        help="write the patching statistics as JSON",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full stats/timings/counters dict as JSON on "
        "stdout instead of the human summary",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="stream per-pass trace events (start/end, wall time) to "
        "stderr while rewriting",
    )
    parser.add_argument(
        "--profile", nargs="?", const=15, type=int, default=None,
        metavar="N",
        help="run under cProfile and print the top N functions by "
        "cumulative time to stderr (default N: 15)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run the verification pass: re-decode every patched site "
        "and check its jump target",
    )
    parser.add_argument(
        "--liveness", action=argparse.BooleanOptionalAction, default=False,
        help="liveness-driven trampoline slimming: drop register/flag "
        "save-restore pairs the backward analysis proves dead at each "
        "patch site (default: off)",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the rewrite-plan linter after emission: statically "
        "re-derive site jump chains, trampoline layout/image bytes, "
        "replay equivalence, and jump-back targets (exit 1 on any "
        "error finding; see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run the semantic-equivalence oracle: execute original and "
        "rewritten binaries on the built-in VM and compare behaviour, "
        "then run a seeded synthetic differential campaign (exit 1 on "
        "any divergence)",
    )
    parser.add_argument(
        "--check-seed", type=int, default=1, metavar="N",
        help="campaign seed for --check (default: 1; a campaign is a "
        "pure function of its seed)",
    )
    parser.add_argument(
        "--check-count", type=int, default=25, metavar="N",
        help="synthetic binaries in the --check campaign (default: 25; "
        "0 skips the campaign and only checks this rewrite)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for batch rewrites (default: $REPRO_JOBS "
        "or serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="persist/reuse decoded instruction streams and matcher "
        "results under the on-disk artifact cache (--no-cache disables)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--mode", default="loader", choices=EMISSION_MODES,
        help="emission mode (default: loader)",
    )
    parser.add_argument(
        "--granularity", "-g", type=int, default=1, metavar="M",
        help="page-grouping granularity in pages (default: 1)",
    )
    parser.add_argument(
        "--no-grouping", action="store_true",
        help="disable physical page grouping (naive 1:1 mapping)",
    )
    parser.add_argument(
        "--no-t1", action="store_true", help="disable tactic T1 (padded jumps)"
    )
    parser.add_argument(
        "--no-t2", action="store_true", help="disable tactic T2 (successor eviction)"
    )
    parser.add_argument(
        "--no-t3", action="store_true", help="disable tactic T3 (neighbour eviction)"
    )
    parser.add_argument(
        "--shared", action="store_true",
        help="input is a shared object (positive offsets only; loader "
        "installed via DT_INIT)",
    )
    parser.add_argument(
        "--cet", action=argparse.BooleanOptionalAction, default=None,
        help="treat the binary as CET/IBT-enabled: endbr64 landing pads "
        "are never clobbered and the loader stub carries its own endbr64 "
        "(default: auto-detect from the GNU property note or an endbr64 "
        "scan; --no-cet forces it off)",
    )
    parser.add_argument(
        "--frontend", default="linear", choices=("linear", "symbols"),
        help="disassembly frontend (symbols: per-function sweeps, for "
        "binaries mixing data into .text)",
    )
    parser.add_argument(
        "--library-path", metavar="PATH",
        help="install path of the patched shared object (required with "
        "--shared in loader mode; defaults to the output path)",
    )
    args = parser.parse_args(argv)

    library_path = args.library_path
    if args.shared and library_path is None:
        library_path = args.output

    try:
        options = RewriteOptions(
            mode=args.mode,
            grouping=not args.no_grouping,
            granularity=args.granularity,
            toggles=TacticToggles(
                t1=not args.no_t1, t2=not args.no_t2, t3=not args.no_t3
            ),
            shared=args.shared,
            library_path=library_path,
            cet=args.cet,
            verify=args.verify,
            liveness=args.liveness,
            lint=args.lint,
        )
    except OptionsError as exc:
        parser.error(str(exc))
    with open(args.input, "rb") as f:
        data = f.read()

    instrumentation: object = args.instrument
    if args.template:
        from repro.core.templates import load_template

        with open(args.template) as f:
            template = load_template(f.read())

        def factory(ctx):
            bound = {}
            for item in args.template_arg:
                name, _, value = item.partition("=")
                if value == "alloc":
                    bound[name] = ctx.add_runtime_data(4096)
                    if not args.json:
                        print(f"{name} at {bound[name]:#x}")
                else:
                    bound[name] = int(value, 0)
            return template.instantiate(**bound)

        instrumentation = factory

    observer = Observer()
    if args.trace:
        observer.add_hook(stderr_trace_hook)
    cache = ArtifactStore(args.cache_dir) if args.cache else None

    def run() -> InstrumentReport:
        return rewrite_many(
            data,
            [RewriteConfig(matcher=args.match,
                           instrumentation=instrumentation, options=options)],
            frontend=args.frontend, observer=observer,
            jobs=args.jobs, cache=cache,
        )[0]

    try:
        if args.profile is not None:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            report = profiler.runcall(run)
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(max(1, args.profile))
        else:
            report = run()
    except LintError as exc:
        for finding in exc.report.findings:
            print(f"  {finding}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.counter_vaddr is not None and not args.json:
        print(f"counter at {report.counter_vaddr:#x}")
    if args.stats_json:
        stats = report.stats.row()
        stats["size_pct"] = round(report.result.size_pct, 2)
        stats["mode"] = report.result.mode
        stats["failures"] = report.result.plan.failures
        with open(args.stats_json, "w") as f:
            json.dump(stats, f, indent=2)
    with open(args.output, "wb") as f:
        f.write(report.result.data)

    check_failed = False
    check_payload = None
    if args.check:
        from repro.check import CampaignConfig, run_campaign
        from repro.check.oracle import check_rewrite

        oracle = check_rewrite(
            data, report.result.data,
            b0_sites=report.result.b0_sites,
            matcher=args.match, frontend=args.frontend,
        )
        campaign = None
        if args.check_count > 0:
            campaign = run_campaign(
                CampaignConfig(seed=args.check_seed, count=args.check_count),
                observer=observer,
            )
        check_failed = (oracle.verdict == "divergent"
                        or (campaign is not None and not campaign.ok))
        counters = {"check.binaries": 0, "check.divergences": 0,
                    "check.shrink_steps": 0}
        counters.update({k: v for k, v in observer.counters.items()
                         if k.startswith("check.")})
        check_payload = {
            "rewrite": oracle.to_dict(),
            "campaign": campaign.to_dict() if campaign is not None else None,
            "counters": counters,
        }

    if args.json:
        payload = report.to_dict()
        payload["cache"] = cache.stats.as_dict() if cache is not None else None
        if check_payload is not None:
            payload["check"] = check_payload
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(report.summary())
        if cache is not None:
            s = cache.stats
            print(f"cache: {s.hits} hits, {s.misses} misses, "
                  f"{s.stores} stores")
        if check_payload is not None:
            print(f"check: rewrite {check_payload['rewrite']['verdict']}")
            camp = check_payload["campaign"]
            if camp is not None:
                print(f"check: campaign seed={camp['seed']} "
                      f"binaries={camp['binaries']} "
                      f"equivalent={camp['equivalent']} "
                      f"divergences={camp['divergences']} "
                      f"unsupported={camp['unsupported']}")
    if report.result.plan.failures:
        print(f"warning: {len(report.result.plan.failures)} sites not patched",
              file=sys.stderr)
    if check_failed:
        print("error: equivalence check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

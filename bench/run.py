"""locmat benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli-oneshot``: seeded argvs, each run as its own ``python -m locmat.cli``
  subprocess; every num/set/alg subcommand plus a fixed share of malformed
  calls that must exit 2 cleanly.
* ``verify-corpus``: the acceptance brute-force r_s(b) tables for every
  corpus set and every b in Omega up to 210, then in-process
  ``check all --seed <seed> --bound 60``.
* ``decision-stream``: a closed loop, one client, of seeded library
  decisions and constructions over generated canonical sets.
* ``cli-defects`` (not a gated workload): the ROADMAP item 3 input-contract
  defects, run like cli-oneshot; it reports how many still fail.

With ``--trace 0`` the run measures for ``--seconds`` and prints the
end-to-end metrics; with ``--trace 1`` it runs a fixed op list untraced and
then traced, each in a fresh interpreter, and prints the per-layer metrics
(layers.py).  The last stdout line is the JSON result; a fuller record, with
the environment, raw times and per-kind time shares, is written to
``.bench_results/``.  A failure is a wrong answer, an unexpected exception or
a wrong exit code; ``failed/attempted`` is the run's failed_frac.

End-to-end metrics.  An op is one CLI subprocess (cli workloads), one
brute-table entry, ``enumerate_omega`` or ``check all`` (verify-corpus), or
one decision (decision-stream).

* ``setup_s``: median of five fresh interpreters that import locmat.cli and
  generate the workload's inputs, spread over the run.
* ``op_ms_p50`` and ``op_ms_tail``: op latency at the median and at the
  highest percentile, up to p99, with at least ten ops beyond it (the record
  states which percentile and how many ops).
* ``ops_per_s``: ops per second of op time (one client, closed loop).
* ``peak_rss_mb``: peak RSS of the largest CLI subprocess, or of this process
  after a fixed amount of work (the first verify pass, the first
  DECISION_RSS_OPS decisions), so that doing more ops does not cost memory.

Times are scaled to a nominal host speed with a reference task timed next to
each op (speed.py); raw times are in the record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

GATED = ("cli-oneshot", "verify-corpus", "decision-stream")
WORKLOADS = GATED + ("cli-defects",)
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
DECISION_BLOCK = 200
#: Decisions in a traced run's fixed op list (cli workloads run one block
#: of argvs, verify-corpus one pass).
DECISION_TRACED_OPS = 10000
#: Decision ops after which peak memory is read.
DECISION_RSS_OPS = 50000
DIVISOR_BOUND = 210
#: Brute-table entries (a few ms each) between two speed references.
VERIFY_CALIBRATE_EVERY = 16
CHECK_BOUND = 60
TAIL_CAP = 99.0
CLI_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# -- statistics ----------------------------------------------------------


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: the highest percentile, up to
    TAIL_CAP, with at least ten samples beyond it (the maximum when n <= 10)."""
    if n <= 10:
        return n
    return min(math.ceil(TAIL_CAP / 100 * n), n - 10)


def latency_summary(lat_s: list[float]) -> dict:
    ordered = sorted(lat_s)
    n = len(ordered)
    k = tail_rank(n)
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[k - 1] * 1e3,
        "tail_percentile": round(100 * k / n, 3),
        "ops_per_s": n / sum(ordered),
    }


# -- recording -----------------------------------------------------------


class Record:
    """Latency and outcome of every op, with time totals per op kind.

    Latencies are kept raw, each with the index of the last speed reference
    taken before it (``calibrate``); ``scaled()`` turns them into times at
    nominal host speed (see speed.py), which is what the metrics use.
    """

    def __init__(self, ref=None):
        self.ref = ref
        self.at = -1
        self.raw = array("d")
        self.ref_index = array("l")
        self.kinds: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss_mb: float | None = None

    def calibrate(self) -> None:
        """Time the speed reference now, for the ops that follow."""
        if self.ref is not None:
            self.at = self.ref.sample()

    def add(self, kind: str, seconds: float, ok: bool, what: str = "", at: int | None = None) -> None:
        """Record one op; ``at`` overrides the reference index for an op
        timed before the record was made."""
        self.attempted += 1
        self.raw.append(seconds)
        self.ref_index.append(self.at if at is None else at)
        totals = self.kinds.setdefault(kind, [0, 0.0])
        totals[0] += 1
        totals[1] += seconds
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {what}"[:400])

    def scaled(self) -> list[float]:
        if self.ref is None or not self.ref.samples:
            return list(self.raw)
        factors = self.ref.factors()
        return [t * factors[max(i, 0)] for t, i in zip(self.raw, self.ref_index)]

    def mark_rss(self) -> None:
        """Peak RSS so far, taken once a fixed amount of work is done, so
        that a faster program doing more ops in the run is not charged for
        the caches those extra ops fill."""
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def shares(self) -> dict[str, dict]:
        """Ops and share of raw op time per kind."""
        total = sum(self.raw) or 1.0
        return {k: {"ops": n, "time_share": round(t / total, 4)} for k, (n, t) in sorted(self.kinds.items())}


# -- cli workloads -------------------------------------------------------


def cli_call(argv: list[str], trace_file: Path | None = None) -> tuple[float, int, str, float]:
    """One CLI subprocess: wall seconds, exit code, output (stdout and
    stderr), and its peak RSS in MB (from wait4, so other children do not count)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "locmat.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    chunks = []
    with proc.stdout:
        fd = proc.stdout.fileno()
        while True:
            ready, _, _ = select.select([fd], [], [], max(0.0, t0 + CLI_TIMEOUT_S - time.perf_counter()))
            if not ready:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise subprocess.TimeoutExpired(cmd, CLI_TIMEOUT_S)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks).decode("utf-8", "replace").rstrip("\n")
    return dt, proc.returncode, out, usage.ru_maxrss / 1024


def run_cli_case(rec: Record, argv: list[str], expect: tuple, trace_file: Path | None = None) -> None:
    import cases

    try:
        dt, code, out, rss_mb = cli_call(argv, trace_file)
    except subprocess.TimeoutExpired:
        rec.add(argv[0], CLI_TIMEOUT_S, False, f"timeout {argv}")
        return
    rec.rss_mb = max(rec.rss_mb or 0.0, rss_mb)
    ok = cases.check_cli(expect, code, out)
    rec.add(" ".join(a for a in argv[:2] if not a.startswith("-")), dt, ok, f"{argv} -> exit {code}: {out[-200:]!r}")


def cli_workload(seed: int, seconds: float | None, defects: bool, traced: bool = False, idle=None) -> tuple[Record, dict]:
    """Subprocess calls until ``seconds`` pass, or one block when None.
    ``idle`` is called between ops."""
    import cases
    import layers
    import speed

    gen = cases.CliCases(seed, defects=defects)
    rec = Record(speed.SubprocessReference(child_env(), ROOT))
    dumps = []
    start = time.perf_counter()
    while True:
        for i, (argv, expect) in enumerate(gen.block()):
            trace_file = RESULTS / f"trace-{os.getpid()}-{i}.json" if traced else None
            rec.calibrate()
            run_cli_case(rec, argv, expect, trace_file)
            if trace_file is not None and trace_file.exists():
                dumps.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
            if idle:
                idle()
            if seconds is not None and time.perf_counter() - start >= seconds:
                return rec, {"dump": layers.merge(dumps) if traced else None}
        if seconds is None:
            return rec, {"dump": layers.merge(dumps) if traced else None}


# -- verify-corpus -------------------------------------------------------


def corpus_mirror() -> dict:
    """The acceptance corpus as the benchmark knows it, independently:
    name -> (canonical text, kind, reference member, model set or None)."""
    import model as M
    from fractions import Fraction

    P, P8 = M.St(1), M.St(1, {2: 3})
    sqrt2, sqrt5 = M.Surd(0, 1, 2, 1), M.Surd(0, 1, 5, 1)
    based = {
        "inf-2adic": M.Sat(M.INF, M.St(0, {2: M.INF})),
        "inf-2adic-3": M.Sat(M.INF, M.St(0, {2: M.INF, 3: 1})),
        "inf-allprimes": M.Sat(M.INF, P),
        "r1-closed": M.Sat(Fraction(1), P),
        "r1-closed-b8": M.Sat(Fraction(1), P8),
        "r32-closed": M.Sat(Fraction(3, 2), P),
        "r32-strict": M.Sat(Fraction(3, 2), P, True),
        "r73-closed": M.Sat(Fraction(7, 3), P),
        "r73-strict": M.Sat(Fraction(7, 3), P, True),
        "r52-closed-b8": M.Sat(Fraction(5, 2), P8),
        "r52-strict-b8": M.Sat(Fraction(5, 2), P8, True),
        "sqrt2": M.Sat(sqrt2, P),
        "sqrt5": M.Sat(sqrt5, P),
        "sqrt2-b8": M.Sat(sqrt2, P8),
    }
    out = {
        "segment-4": ("[1..4]", "segment", 4, None),
        "segment-50": ("[1..50]", "segment", 50, None),
        "naturals": ("N", "infinite", DIVISOR_BOUND, None),
    }
    for name, S in based.items():
        out[name] = (S.text(), "infinite" if S.infinite else "finite", S.base, S)
    return out


def expected_check_lines(mirror: dict) -> int:
    """Lines of ``check all``: two saturation checks per set, four
    inequalities per set that is not of infinite type, one roundtrip per
    set, and the total line."""
    n = len(mirror)
    bounded = sum(1 for _, kind, _, _ in mirror.values() if kind != "infinite")
    return 2 * n + 4 * bounded + n + 1


def verify_workload(seed: int, seconds: float | None, tracer=None, idle=None) -> tuple[Record, dict]:
    """Whole passes (brute tables, then check all) until ``seconds`` pass,
    or one pass when None."""
    import random

    import speed

    from locmat import cli, oracle, steinitz
    from locmat.saturated import format_set

    mirror = corpus_mirror()
    corpus = oracle.acceptance_corpus()
    rec = Record(speed.InProcessReference())
    mismatch = [name for name, S in corpus if mirror.get(name, ("",))[0] != format_set(S)]
    if mismatch or len(corpus) != len(mirror):
        rec.add("corpus", 0.0, False, f"corpus differs from the benchmark's mirror: {mismatch}")
    sets = dict(corpus)
    kinds = {name: mirror.get(name, ("", "finite"))[1] for name in sets}
    rng = random.Random(f"verify-corpus:{seed}")
    argv = ["check", "all", "--seed", str(seed), "--bound", str(CHECK_BOUND)]
    passes = {"brute_table_raw_s": [], "check_all_raw_s": []}
    start = time.perf_counter()
    while not passes["brute_table_raw_s"] or (seconds is not None and time.perf_counter() - start < seconds):
        if tracer:
            tracer.install()
            tracer.root("brute_table")
        entries, omegas, refs = [], {}, {}
        rec.calibrate()
        for name, S in corpus:
            t = refs[name] = oracle.reference_member(S)
            t0 = time.perf_counter()
            omegas[name] = steinitz.enumerate_omega(t, DIVISOR_BOUND)
            entries.append((name, None, None, time.perf_counter() - t0, rec.at))
        # Every table's entries in one seeded order, so that the costly ones
        # (large b) spread over the pass instead of meeting in a few seconds.
        work = [(name, b) for name in omegas for b in omegas[name]]
        rng.shuffle(work)
        for i, (name, b) in enumerate(work):
            if i % VERIFY_CALIBRATE_EVERY == 0:
                if idle:
                    idle()
                rec.calibrate()
            i_bound = 40 if kinds[name] == "infinite" else 3 * b + 80
            t0 = time.perf_counter()
            v = oracle.r_sub_brute(sets[name], refs[name], b, i_bound=i_bound)
            entries.append((name, b, v, time.perf_counter() - t0, rec.at))
        passes["brute_table_raw_s"].append(sum(e[3] for e in entries))
        rec.calibrate()
        if tracer:
            tracer.root("check_all")
        t0 = time.perf_counter()
        code, out = cli.run(argv)
        check_dt = time.perf_counter() - t0
        passes["check_all_raw_s"].append(check_dt)
        if tracer:
            tracer.uninstall()
        check_verify_pass(rec, mirror, sets, refs, entries, omegas, code, out, check_dt)
        rec.mark_rss()
    return rec, {"passes": len(passes["brute_table_raw_s"]),
                 **{name: statistics.median(times) for name, times in passes.items()}}


def check_verify_pass(rec, mirror, corpus, refs, entries, omegas, code, out, check_dt) -> None:
    """Each brute entry against the benchmark's own r_s(b) and against the
    library's closed form r_sub, as acceptance criterion 1 does."""
    import model as M

    from locmat.saturated import r_sub

    for name, b, v, dt, at in entries:
        _, kind, ref, S = mirror.get(name, ("", "unknown", None, None))
        if b is None:
            if kind == "segment" or name == "naturals":
                own = [b for b in range(1, DIVISOR_BOUND + 1) if ref % b == 0]
            else:
                own = [b for b in range(1, DIVISOR_BOUND + 1) if ref is not None and ref.divides_by(M.factor_small(b))]
            rec.add("enumerate_omega", dt, omegas[name] == own, f"{name}: Omega differs", at)
            continue
        closed = r_sub(corpus[name], refs[name], b)
        if kind == "infinite":
            ok = repr(v) == "AboveBound" and repr(closed) == "inf"
        else:
            # A segment [1..n] at t = n: i*(n/b) <= n exactly for i <= b.
            want = b if kind == "segment" else M.rsub(S, S.base, M.factor_small(b))
            ok = v == want == closed
        rec.add("r_sub_brute", dt, ok, f"{name} b={b}: brute {v!r}, r_sub {closed!r}", at)
    lines = out.splitlines()
    ok = code == 0 and len(lines) == expected_check_lines(mirror) and all(l.startswith("PASS") for l in lines)
    rec.add("check_all", check_dt, ok, f"exit {code}, {len(lines)} lines: {[l for l in lines if not l.startswith('PASS')][:3]}")


# -- decision-stream -----------------------------------------------------


def decision_workload(seed: int, seconds: float | None, tracer=None, idle=None) -> tuple[Record, dict]:
    """Blocks of decisions until ``seconds`` pass, or DECISION_TRACED_OPS
    ops when None."""
    import cases
    import speed

    stream = cases.DecisionStream(seed, cases.Lib())
    rec = Record(speed.InProcessReference())
    start = time.perf_counter()
    clock = time.perf_counter_ns
    while True:
        n = DECISION_BLOCK if seconds is not None else DECISION_TRACED_OPS
        block = stream.block(n)
        results = []
        rec.calibrate()
        if tracer:
            tracer.install()
        for kind, call, _check in block:
            if tracer:
                tracer.root(kind)
            t0 = clock()
            try:
                got, err = call(), None
            except Exception as e:  # a raised exception is a failed decision
                got, err = None, e
            results.append((got, err, clock() - t0))
        if tracer:
            tracer.uninstall()
        for (kind, _call, check), (got, err, ns) in zip(block, results):
            if err is None:
                try:
                    ok = bool(check(got))
                except Exception as e:
                    ok, err = False, e
            else:
                ok = False
            rec.add(kind, ns / 1e9, ok, f"{err!r}" if err else f"got {got!r}")
        if rec.attempted >= DECISION_RSS_OPS:
            rec.mark_rss()
        if idle:
            idle()
        if seconds is None or time.perf_counter() - start >= seconds:
            return rec, {"mix": cases.DECISION_MIX, "kinds": rec.shares()}


# -- set-up, memory, environment -----------------------------------------


def generate_inputs(workload: str, seed: int) -> None:
    """What a run generates before its first op."""
    import cases

    if workload == "verify-corpus":
        from locmat import oracle

        corpus_mirror()
        oracle.acceptance_corpus()
    elif workload == "decision-stream":
        cases.DecisionStream(seed, cases.Lib()).block(DECISION_BLOCK)
    else:
        cases.CliCases(seed, defects=workload == "cli-defects").block()


def spawn_seconds(args: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


class SetupProbes:
    """Set-up time samples: fresh interpreters that import locmat.cli and
    generate the workload's inputs, each scaled by a subprocess speed
    reference timed just before and just after it.  They are spread over
    the run, between ops, so that they see the machine the ops see."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import speed

        self.cmd = [str(HERE / "run.py"), "--phase", "setup", "--workload", workload, "--seed", str(seed)]
        self.ref = speed.SubprocessReference(child_env(), ROOT)
        self.every = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def probe(self) -> None:
        before = self.ref.measure()
        self.raw.append(spawn_seconds(self.cmd))
        after = self.ref.measure()
        self.scaled.append(self.raw[-1] * 2 * self.ref.nominal_s / (before + after))

    def __call__(self) -> None:
        due = (len(self.raw) + 0.5) * self.every
        if len(self.raw) < SETUP_REPEATS and time.perf_counter() - self.start >= due:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.raw) < SETUP_REPEATS:
            self.probe()
        return self.scaled


def import_ms() -> float:
    """Fresh ``import locmat.cli`` minus a bare interpreter, medians."""
    with_import, bare = [], []
    for _ in range(IMPORT_REPEATS):
        with_import.append(spawn_seconds(["-c", "import locmat.cli"]))
        bare.append(spawn_seconds(["-c", "pass"]))
    return (statistics.median(with_import) - statistics.median(bare)) * 1e3


def environment() -> dict:
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "missing"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "sympy": sympy, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout's git metadata, when there is any."""
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
    return "unknown"


# -- runs ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float | None, tracer=None, traced_cli: bool = False, idle=None):
    if workload == "verify-corpus":
        return verify_workload(seed, seconds, tracer, idle)
    if workload == "decision-stream":
        return decision_workload(seed, seconds, tracer, idle)
    return cli_workload(seed, seconds, defects=workload == "cli-defects", traced=traced_cli, idle=idle)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Record, dict, dict]:
    probes = SetupProbes(workload, seed, seconds)
    rec, detail = run_workload(workload, seed, seconds, idle=probes)
    # Peak RSS: the largest CLI subprocess, or this process after its fixed
    # quantum of work when the workload runs in process.
    rec.mark_rss()
    setups = probes.finish()
    lat = latency_summary(rec.scaled())
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": lat["p50_ms"],
        "op_ms_tail": lat["tail_ms"],
        "ops_per_s": lat["ops_per_s"],
        "peak_rss_mb": rec.rss_mb,
    }
    detail.update(latency=lat, raw_latency=latency_summary(rec.raw), setup_scaled_s=setups,
                  setup_raw_s=probes.raw, speed_reference_s=list(rec.ref.samples) if rec.ref else [],
                  kinds=rec.shares(), failed_frac=rec.failed / rec.attempted, failures=rec.failures)
    return rec, metrics, detail


def fixed_phase(workload: str, seed: int, traced: bool) -> dict:
    """One fixed op list in this fresh interpreter; JSON-ready."""
    tracer = None
    if traced and not workload.startswith("cli"):
        import layers

        import locmat.cli  # noqa: F401  every module loaded before rebinding

        tracer = layers.Tracer()
    rec, detail = run_workload(workload, seed, None, tracer, traced_cli=traced)
    dump = tracer.dump() if tracer else detail.get("dump")
    return {"wall_s": sum(rec.scaled()), "attempted": rec.attempted, "failed": rec.failed,
            "failures": rec.failures, "dump": dump}


def child_phase(workload: str, seed: int, traced: bool) -> dict:
    cmd = [str(HERE / "run.py"), "--phase", "fixed", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    proc = subprocess.run([sys.executable, *cmd], env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=80)
    if proc.returncode != 0:
        raise RuntimeError(f"fixed phase exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def per_layer(workload: str, seed: int) -> tuple[int, int, dict, dict]:
    import layers

    plain = child_phase(workload, seed, traced=False)
    traced = child_phase(workload, seed, traced=True)
    metrics = layers.layer_metrics(traced["dump"])
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "spans": traced["dump"]["spans"], "failures": plain["failures"] + traced["failures"]}
    return (plain["attempted"] + traced["attempted"], plain["failed"] + traced["failed"], metrics, detail)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "fixed"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "locmat" / "__init__.py").is_file():
        print(f"bench: no locmat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers

    if args.phase == "setup":
        import locmat.cli  # noqa: F401

        generate_inputs(args.workload, args.seed)
        return 0
    RESULTS.mkdir(exist_ok=True)
    if args.phase == "fixed":
        print(json.dumps(fixed_phase(args.workload, args.seed, bool(args.trace))))
        return 0

    if args.trace:
        attempted, failed, metrics, detail = per_layer(args.workload, args.seed)
        units = {name: unit for name, unit, _ in layers.metric_names()}
    else:
        rec, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failed, units = rec.attempted, rec.failed, END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "result": result, "detail": detail}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted})")
    if not args.trace:
        lat = detail["latency"]
        print(f"op_ms_tail is p{lat['tail_percentile']} of {lat['samples']} ops")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value'] if isinstance(m['value'], int) else format(m['value'], '.6g')} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""gexpkit benchmark: read -> stage -> lower -> build, end to end and per module.

One run measures one workload for --seconds and prints, as its last
line, one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Run it from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 5

``--all`` runs every workload untraced once and traced twice, each in
its own process, prints every metric by name with its unit, and checks
that the traced counts repeat exactly.

Load model: a closed loop with one client in one process; the next
operation starts only after the previous one returned.  Every operation
is a ``gexpkit lower`` or ``gexpkit build``: the readme workload runs
``python -m gexpkit`` as one child process at a time, the others call
``gexpkit.cli.main`` in this process.
Every operation runs in a fresh directory under ``.bench_work/`` as its
cwd, so ``./store`` is always a store of the benchmark's own.

The gexpkit under test is the one in ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
import yardstick  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Operations per iteration beyond one of each, chosen so that every phase
# gets enough samples within a run.  readme's 6 warm builds give over
# 100 warm samples in 40 s, enough for a p90 with 10 samples beyond it;
# compute's lower and warm take ~5 ms.
REPEATS = {"readme": {"lower": 1, "warm": 6},
           "chain": {"lower": 1, "warm": 1},
           "wide": {"lower": 1, "warm": 1},
           "compute": {"lower": 10, "warm": 10}}
# Traced runs alternate traced and untraced iterations: two of each.
MIN_ITERATIONS = 4
SETUP_REPEATS = 7
CHILD_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"), ("lower_s", "s"), ("build_cold_s", "s"),
    ("build_warm_s", "s"), ("build_incr_s", "s"),
    ("peak_rss_mb", "MB"), ("store_bytes", "B"),
]

PER_LAYER = [
    ("sexp.read.calls", "count"), ("sexp.read.self_s", "s"),
    ("sexp.read.chars_per_s", "chars/s"), ("sexp.print_canonical.self_s", "s"),
    ("sexp.hash_sexp.self_s", "s"),
    ("gexp.stage.calls", "count"), ("gexp.stage.self_s", "s"),
    ("gexp.gexp_to_sexp.self_s", "s"),
    ("lowerable.lower_object.calls", "count"),
    ("lowerable.lower_object.hit_ratio", "ratio"),
    ("lowerable.lower_object.self_s", "s"),
    ("store.gexp_to_derivation.self_s", "s"),
    ("store.write_derivation.calls", "count"),
    ("store.write_derivation.self_s", "s"),
    ("store.read_derivation.calls", "count"),
    ("store.read_derivation.per_drv", "ratio"),
    ("store.read_derivation.self_s", "s"),
    ("store.intern.calls", "count"), ("store.intern.new_ratio", "ratio"),
    ("store.intern.self_s", "s"), ("store.output_path.self_s", "s"),
    ("modules.source_module_closure.self_s", "s"),
    ("modules.intern_module_closure.self_s", "s"),
    ("builder.mini_eval.calls", "count"), ("builder.mini_eval.self_s", "s"),
    ("builder.build.self_s", "s"), ("builder.build.cached_ratio", "ratio"),
    ("cli.interp_start_s", "s"), ("cli.import_s", "s"), ("cli.main_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("unattributed_s", "s"), ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
]

ROOT_DRV_RE = re.compile(r"\./store/[0-9a-z]{32}-deploy\.drv")


class Failure(Exception):
    """An operation produced wrong output."""


# gexpkit under test


def import_gexpkit():
    """(Re-)import gexpkit from src/ and return its modules by layer."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gexpkit" or m.startswith("gexpkit.")]:
        del sys.modules[name]
    api = {layer: importlib.import_module(f"gexpkit.{layer}") for layer in LAYERS}
    if Path(api["cli"].__file__).resolve().parent != SRC / "gexpkit":
        raise SystemExit(f"perfbench: imported gexpkit from {api['cli'].__file__}, "
                         f"not from {SRC}")
    return argparse.Namespace(**api)


def write_tree(base: Path, files: dict) -> None:
    for rel, data in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def remove_tree(path: Path) -> None:
    """rmtree that first restores the write bits of read-only store items."""
    if not path.exists():
        return
    for dirpath, _dirs, files in os.walk(path):
        os.chmod(dirpath, 0o755)
        for name in files:
            full = os.path.join(dirpath, name)
            if not os.path.islink(full):
                os.chmod(full, 0o644)
    shutil.rmtree(path)


def settle() -> None:
    """Start a timed step from the same state each time: no garbage left
    to collect and no dirty file data left to write back.  Lowering into
    an empty store is mostly file creation, which the disk's pending
    writeback slows down by up to a factor of two."""
    gc.collect()
    os.sync()


def setup(name: str, seed: int, run_dir: Path):
    """Generate the inputs and import gexpkit SETUP_REPEATS times; return
    the last workload, its input directory, gexpkit and the median
    yardstick-scaled time."""
    times = []
    scaler = yardstick.Scaler()
    for rep in range(SETUP_REPEATS):
        inputs = run_dir / f"inputs-{rep}"
        settle()
        scaler.begin()
        start = time.perf_counter()
        work = workloads.GENERATORS[name](seed)
        write_tree(inputs / "base", work.base.files)
        write_tree(inputs / "incr", work.incr.files)
        api = import_gexpkit()
        times.append(scaler.scale(time.perf_counter() - start))
    for rep in range(SETUP_REPEATS - 1):
        remove_tree(run_dir / f"inputs-{rep}")
    return work, inputs, api, statistics.median(times)


# ways to run one lower / build


def parse_log(text: str) -> list:
    return [tuple(line.split(" ", 1)) for line in text.splitlines()
            if line.startswith(("build ", "cached "))]


def cli_argv(inputs: Path, work, command: str, variant: str) -> list:
    v = getattr(work, variant)
    argv = [command, str(inputs / variant / "deploy.scm")]
    if v.module_dir:
        argv += ["--module-path", str(inputs / variant / v.module_dir)]
    return argv


class CliRunner:
    """Runs ``gexpkit lower/build``, either as a child process or by
    calling ``gexpkit.cli.main`` in this process."""

    def __init__(self, inputs: Path, work, invoke):
        self.inputs, self.work, self.invoke = inputs, work, invoke

    def _run(self, command, variant):
        code, out, err = self.invoke(cli_argv(self.inputs, self.work, command, variant))
        if code != 0:
            raise Failure(f"gexpkit {command} exited {code}: {err.strip()[-300:]}")
        return out, err

    def lower(self, variant: str) -> str:
        return self._run("lower", variant)[0].strip()

    def build(self, variant: str):
        out, err = self._run("build", variant)
        found = [line.split("\t", 1)[1] for line in out.splitlines()
                 if line.startswith("out\t")]
        if len(found) != 1:
            raise Failure(f"gexpkit build printed no single out line: {out!r}")
        return found[0], parse_log(err)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def invoke_child(argv):
    proc = subprocess.run([sys.executable, "-m", "gexpkit", *argv],
                          env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def invoke_main(api):
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return invoke


# correctness


def read_tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def check_output(out_path: str, expected: dict) -> None:
    got = read_tree(Path(out_path))
    if got != expected:
        wrong = sorted(set(got) ^ set(expected)) or sorted(
            k for k in expected if got.get(k) != expected[k])
        raise Failure(f"output {out_path} differs from the generator's "
                      f"expectation in {wrong[:5]}")


def check_log(log: list, want: tuple, phase: str) -> None:
    got = (sum(1 for a, _ in log if a == "build"),
           sum(1 for a, _ in log if a == "cached"))
    if got != want:
        raise Failure(f"{phase}: built/cached {got}, expected {want}")


def code_digest() -> str:
    """Hash of the gexpkit sources and of this benchmark's own files.
    Records carry it in their name, so a run compares only with earlier
    runs of the same code on the same inputs."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.glob("gexpkit/**/*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Checker:
    """Holds the facts every later operation of the run must repeat."""

    def __init__(self, record_path: Path):
        self.record_path = record_path
        self.record = (json.loads(record_path.read_text())
                       if record_path.exists() else {})
        self.root = self.record.get("root")
        self.cold_out = None
        self.store_bytes = None

    def root_drv(self, path: str) -> None:
        if not ROOT_DRV_RE.fullmatch(path):
            raise Failure(f"unexpected root derivation path {path!r}")
        data = Path(path).read_bytes()
        digest = hashlib.sha256(path.encode() + b"\0" + data).hexdigest()
        if self.root is None:
            self.root = digest
        elif digest != self.root:
            raise Failure(f"root derivation {path} differs from an earlier "
                          f"run or iteration with the same seed")

    def save(self, **fields) -> None:
        self.record.update(root=self.root, **fields)
        self.record_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record, sort_keys=True))
        os.replace(tmp, self.record_path)


def store_size(store: Path) -> int:
    return sum(p.stat().st_size for p in store.rglob("*")
               if p.is_file() and not p.is_symlink())


def single_root(store: Path) -> str:
    roots = sorted(store.glob("*-deploy.drv"))
    if len(roots) != 1:
        raise Failure(f"expected one root derivation in the store, found {len(roots)}")
    return f"./store/{roots[0].name}"


# the measured loop


class Run:
    """One workload's measured loop: its samples, checks and failures."""

    def __init__(self, name, work, runner, checker, run_dir,
                 tracer=None, main=None, child_ruler=False):
        self.name, self.work, self.runner = name, work, runner
        self.checker, self.run_dir = checker, run_dir
        # Traced runs only: the tracer, and the in-process `gexpkit build`
        # (invoke, argv) timed on untraced iterations for cli.main_s.
        self.tracer, self.main = tracer, main
        # Operation times per phase: scaled, and as measured.  In-process
        # operations are scaled by the yardstick read around each one.
        # Child-process operations are scaled by the child ruler, read
        # around each iteration because a reading costs half an operation.
        self.samples = {"lower": [], "cold": [], "warm": [], "incr": []}
        self.raw = {phase: [] for phase in self.samples}
        self.per_iteration = child_ruler
        self.scaler = (yardstick.Scaler(yardstick.measure_child,
                                        yardstick.CHILD_REFERENCE_S)
                       if child_ruler else yardstick.Scaler())
        self.pending: list = []
        self.traced_logs: dict = {}
        self.main_s: list = []
        self.attempted = self.failed = 0
        self.errors: list = []
        self.index = 0
        self.traced_now = False
        self.spent = 0.0

    def fail(self, phase: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")

    def op(self, phase: str, fn, *args):
        """Time one operation; an exception it raises becomes its result."""
        settle()
        self.attempted += 1
        span = self.tracer.op(phase) if self.traced_now else contextlib.nullcontext()
        self.scaler.begin()
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        elapsed = time.perf_counter() - start
        self.raw[phase].append(elapsed)
        self.pending.append((phase, elapsed))
        if not self.per_iteration:
            self.scale_pending()
        self.spent += elapsed
        return result

    def scale_pending(self) -> None:
        factor = self.scaler.factor()
        for phase, elapsed in self.pending:
            self.samples[phase].append(elapsed * factor)
        self.pending.clear()

    def check(self, phase: str, result, check, *extra) -> None:
        try:
            if isinstance(result, BaseException):
                raise result
            check(result, *extra)
        except Exception as exc:
            self.fail(phase, exc)
            return
        if self.traced_now and phase != "lower":
            self.traced_logs.setdefault(self.index, []).extend(result[1])

    def check_cold(self, result, cwd: Path) -> None:
        out, log = result
        size = store_size(cwd / "store")
        if self.checker.store_bytes not in (None, size):
            raise Failure(f"store holds {size} bytes after a cold build, "
                          f"{self.checker.store_bytes} in an earlier one")
        self.checker.store_bytes = size
        check_log(log, self.work.log_counts["cold"], "cold build")
        check_output(out, self.work.base.expected)
        self.checker.root_drv(single_root(cwd / "store"))
        if self.checker.cold_out not in (None, out):
            raise Failure(f"cold build output moved to {out}")
        self.checker.cold_out = out

    def check_warm(self, result) -> None:
        out, log = result
        check_log(log, self.work.log_counts["warm"], "warm build")
        if out != self.checker.cold_out:
            raise Failure(f"warm build output {out} differs from the cold build's")
        check_output(out, self.work.base.expected)

    def check_incr(self, result) -> None:
        out, log = result
        check_log(log, self.work.log_counts["incr"], "incremental build")
        check_output(out, self.work.incr.expected)

    def iteration(self) -> float:
        """One iteration in a fresh directory; returns its summed op time."""
        reps = REPEATS[self.name]
        it_dir = self.run_dir / f"it-{self.index}"
        self.spent = 0.0
        self.scaler.reset()
        try:
            for k in range(reps["lower"]):
                (it_dir / f"lower-{k}").mkdir(parents=True)
                os.chdir(it_dir / f"lower-{k}")
                self.check("lower", self.op("lower", self.runner.lower, "base"),
                           self.checker.root_drv)
            cwd = it_dir / "build"
            cwd.mkdir(parents=True)
            os.chdir(cwd)
            self.check("cold", self.op("cold", self.runner.build, "base"),
                       self.check_cold, cwd)
            for _ in range(reps["warm"]):
                self.check("warm", self.op("warm", self.runner.build, "base"),
                           self.check_warm)
            self.check("incr", self.op("incr", self.runner.build, "incr"),
                       self.check_incr)
            if self.pending:
                self.scale_pending()
            if self.main and not self.traced_now:
                self.time_main()
        finally:
            os.chdir(ROOT)
        return self.spent

    def time_main(self) -> None:
        invoke, argv = self.main
        settle()
        self.attempted += 1
        start = time.perf_counter()
        code, _out, err = invoke(argv)
        self.main_s.append(time.perf_counter() - start)
        if code != 0:
            self.fail("main", Failure(f"gexpkit.cli.main exited {code}: {err[-300:]}"))


def run_loop(run: Run, seconds: float) -> list:
    """Iterate until --seconds are used up.  A traced run traces every
    other iteration.  Returns (traced?, summed op time) per iteration."""
    start = time.perf_counter()
    done: list = []
    while True:
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(done) if done else 0.0
        if len(done) >= MIN_ITERATIONS and elapsed + per_iteration > seconds:
            return done
        run.index = len(done)
        run.traced_now = run.tracer is not None and run.index % 2 == 0
        if run.traced_now:
            run.tracer.iteration = run.index
            run.tracer.enable()
        try:
            spent = run.iteration()
        finally:
            if run.traced_now:
                run.tracer.disable()
        done.append((run.traced_now, spent))
        remove_tree(run.run_dir / f"it-{run.index}")


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run, setup_s: float) -> dict:
    s = run.samples
    # readme's work happens in child processes; RUSAGE_CHILDREN reports
    # the largest of them.
    who = resource.RUSAGE_CHILDREN if run.name == "readme" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        "lower_s": statistics.median(s["lower"]),
        "build_cold_s": statistics.median(s["cold"]),
        "build_warm_s": statistics.median(s["warm"]),
        "build_incr_s": statistics.median(s["incr"]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "store_bytes": run.checker.store_bytes or 0,
    }
    # Only readme and compute take the 100 warm samples that a p90 with
    # 10 samples beyond it needs, so it is printed here and not bounded.
    beyond = len(s["warm"]) - math.ceil(0.9 * len(s["warm"]))
    print(f"build_warm_p90_s {nearest_rank(s['warm'], 0.9):.6f} s "
          f"({len(s['warm'])} samples, {beyond} beyond it)")
    print("samples " + ", ".join(f"{k} {len(v)}" for k, v in s.items()))
    print("unscaled medians " + ", ".join(
        f"{k} {statistics.median(v):.6f} s" for k, v in run.raw.items())
        + f"; ruler {statistics.median(run.scaler.readings):.6f} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def time_child(code: str) -> float:
    """Median over CHILD_REPEATS of ``python -c code``: its wall time, or
    the number it prints if it prints one."""
    values = []
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - start
        values.append(float(proc.stdout) if proc.stdout.strip() else elapsed)
    return statistics.median(values)


def per_layer(run: Run, done: list) -> tuple:
    """Per-layer metrics as means per traced iteration, plus the values
    that must repeat exactly across runs with the same seed."""
    tracer = run.tracer
    stats = tracer.iteration_stats()
    traced = [i for i, (t, _) in enumerate(done) if t]
    counts = [{n: e[0] for n, e in sorted(stats[i].items())} for i in traced]
    if any(c != counts[0] for c in counts):
        run.fail("trace", Failure("call counts differ between traced iterations"))

    def mean(per_iteration):
        return statistics.fmean(per_iteration(stats[i], i) for i in traced)

    def field(index, *names):
        return mean(lambda st, _i: sum(st[n][index] for n in names if n in st))

    def calls(*names):
        return field(0, *names)

    def self_s(*names):
        return field(2, *names)

    def note(key):
        return statistics.fmean(tracer.notes[i][key] for i in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    # The layer self times and unattributed_s add up to trace.wall_s as
    # long as every traced call ran inside an operation's root span.
    ops = [f"op.{phase}" for phase in run.samples]
    stray = sorted({s[3] for s in tracer.spans if s[2] == 0 and s[3] not in ops})
    if stray:
        run.fail("trace", Failure(f"calls traced outside any operation: {stray[:5]}"))
    wall = field(1, *ops)
    unattributed = self_s(*ops)
    layer_self = {layer: mean(lambda st, _i, prefix=f"{layer}.": sum(
        e[2] for n, e in st.items() if n.startswith(prefix))) for layer in LAYERS}

    read_self = self_s("sexp.read", "sexp.read_all")
    lower_calls = calls("lowerable.lower_object")
    drv_calls = calls("store.read_derivation")
    intern_calls = calls("store.intern_file", "store.intern_dir")
    drvs = statistics.fmean(len(tracer.drv_paths[i]) for i in traced)
    logs = [entry for i in traced for entry in run.traced_logs.get(i, [])]
    traced_wall = [t for tr, t in done if tr]
    untraced_wall = [t for tr, t in done if not tr]
    values = {
        "sexp.read.calls": calls("sexp.read", "sexp.read_all"),
        "sexp.read.self_s": read_self,
        "sexp.read.chars_per_s": ratio(note("read.chars"), read_self),
        "sexp.print_canonical.self_s": self_s("sexp.print_canonical"),
        "sexp.hash_sexp.self_s": self_s("sexp.hash_sexp"),
        "gexp.stage.calls": calls("gexp.stage"),
        "gexp.stage.self_s": self_s("gexp.stage"),
        "gexp.gexp_to_sexp.self_s": self_s("gexp.gexp_to_sexp"),
        "lowerable.lower_object.calls": lower_calls,
        "lowerable.lower_object.hit_ratio":
            1.0 - note("lower.distinct") / lower_calls if lower_calls else 0.0,
        "lowerable.lower_object.self_s": self_s("lowerable.lower_object"),
        "store.gexp_to_derivation.self_s": self_s("store.gexp_to_derivation"),
        "store.write_derivation.calls": calls("store.write_derivation"),
        "store.write_derivation.self_s": self_s("store.write_derivation"),
        "store.read_derivation.calls": drv_calls,
        "store.read_derivation.per_drv": ratio(drv_calls, drvs),
        "store.read_derivation.self_s": self_s("store.read_derivation"),
        "store.intern.calls": intern_calls,
        "store.intern.new_ratio": ratio(note("intern.new"), intern_calls),
        "store.intern.self_s": self_s("store.intern_file", "store.intern_dir"),
        "store.output_path.self_s": self_s("store.output_path"),
        "modules.source_module_closure.self_s":
            self_s("modules.source_module_closure"),
        "modules.intern_module_closure.self_s":
            self_s("modules.intern_module_closure"),
        "builder.mini_eval.calls": calls("builder.mini_eval"),
        "builder.mini_eval.self_s": self_s("builder.mini_eval"),
        "builder.build.self_s": self_s("builder.build"),
        "builder.build.cached_ratio":
            ratio(sum(1 for action, _ in logs if action == "cached"), len(logs)),
        "cli.interp_start_s": time_child("pass"),
        "cli.import_s": time_child(
            "import time; t = time.perf_counter(); import gexpkit.cli; "
            "print(time.perf_counter() - t)"),
        "cli.main_s": statistics.median(run.main_s),
        "unattributed_s": unattributed,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": statistics.median(untraced_wall),
        "trace.overhead_s":
            statistics.median(traced_wall) - statistics.median(untraced_wall),
    }
    values.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    repeated = {"calls": counts[0],
                "store.read_derivation.per_drv": values["store.read_derivation.per_drv"],
                "lowerable.lower_object.hit_ratio":
                    values["lowerable.lower_object.hit_ratio"]}
    print(f"traced iterations {len(traced)}, untraced {len(untraced_wall)}, "
          f"spans {len(tracer.spans)}, binding sites {tracer.binding_sites()}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}, repeated


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    # Builders take their temp dirs from tempfile; keep them in the checkout.
    (run_dir / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir / "tmp")
    for var in ("GEXP_STORE_DIR", "GEXP_MODULE_PATH"):
        os.environ.pop(var, None)
    checker = Checker(WORK / "records" / f"{name}-seed{seed}-{code_digest()}.json")
    try:
        work, inputs, api, setup_s = setup(name, seed, run_dir)
        if trace:
            tracer = Tracer()
            tracer.install()
            main = (invoke_main(api), cli_argv(inputs, work, "build", "base"))
            runner = CliRunner(inputs, work, invoke_main(api))
            run = Run(name, work, runner, checker, run_dir, tracer, main)
            done = run_loop(run, seconds)
            metrics, repeated = per_layer(run, done)
            if checker.record.get("trace", repeated) != repeated:
                run.fail("trace", Failure("traced counts differ from an earlier "
                                          "run with the same seed"))
            checker.save(trace=repeated)
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{name}-seed{seed}.jsonl")
        else:
            runner = CliRunner(inputs, work, invoke_child if name == "readme"
                               else invoke_main(api))
            run = Run(name, work, runner, checker, run_dir,
                      child_ruler=name == "readme")
            run_loop(run, seconds)
            metrics = end_to_end(run, setup_s)
            checker.save()
    finally:
        os.chdir(ROOT)
        remove_tree(run_dir)
    for line in run.errors:
        print(f"error: {line}", file=sys.stderr)
    print(f"error_rate {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations failed)")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced once and traced twice, in child processes."""
    status = 0
    for name in workloads.GENERATORS:
        results = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{name} --trace {trace}: exited {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            if trace == 0:
                notes = lines[:-1]
        plain, traced, again = results
        print(f"== {name}  correct {all(r['correct'] for r in results)}")
        for line in notes:
            print(f"  {line}")
        for metrics in (plain["metrics"], traced["metrics"]):
            for metric, entry in metrics.items():
                print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
        repeat = [m for m, e in traced["metrics"].items()
                  if (m.endswith((".calls", ".per_drv", ".hit_ratio")))
                  and e["value"] != again["metrics"][m]["value"]]
        print(f"  counts repeat across two traced runs: "
              f"{'yes' if not repeat else 'NO: ' + ', '.join(repeat)}")
        if repeat or not all(r["correct"] for r in results):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    args = parser.parse_args(argv)
    if not (SRC / "gexpkit" / "__init__.py").is_file():
        print(f"perfbench: no gexpkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

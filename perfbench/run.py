#!/usr/bin/env python3
"""Benchmark harness for the NTC choke-point simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the program's binaries
(`repro`, `ntc-workload`, `ntc-serve`) and the benchmark's own drivers into
`$CARGO_TARGET_DIR` (default `.bench_build`), performs the workload's
set-up, runs a fixed number of ops derived from `--seconds`, checks every
op's output bytes, and prints one JSON object as its last stdout line:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Workloads, metrics and their meaning: perfbench/README.md.

Everything a run writes lives in a fresh directory under `.perfbench_run/`
in the checkout, removed when the run ends; a traced run leaves its spans
in `.perfbench_run/spans-<workload>.jsonl`.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from stats import percentile, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_ROOT = ".perfbench_run"
JOBS = "2"
BENCHES = ["bzip", "gap", "gzip", "mcf", "parser", "vortex"]
OP_TIMEOUT_S = 150

# Seconds of --seconds one op stands for (a full_grid op takes 14-19 s at the
# parent commit on 2 cores, a warm suite 11-14 s). Op counts are derived from
# --seconds with these constants, never from a clock, so every commit runs
# exactly the same ops.
OP_SECONDS = {"full_grid": 18.0, "fast_suite": 14.0}

# full_grid: the paper-scale Ch.3 comparison grid behind fig3.10-3.12.
GRID_CYCLES = 1_000_000
GRID_CHIPS = 5
GRID_SCHEMES = ["razor", "hfg", "dcs-icslt", "dcs-acslt"]
RECORD_REPS = 3
# Warm re-asks of the computed grid through a daemon on the op's cache dir.
GRID_WARM_REQUESTS = 150
# sha256 of the default-seed grid CSV (chip base 220, trace seed 7).
GRID_DIGEST = "5ec7d1856c5bb91ffe99bc72546b1dc40cf0dc2e7b69fd97fb5cfa680546ccd4"

# The percentile `warm_p99_ms` reports on each workload: the highest one
# with at least ten samples beyond it (stats.tail_percentile) at the
# workload's sample count — 150 warm answers on full_grid, 27 experiments
# on fast_suite, about 1,240 warm requests on serve_mix. Fixed per workload, so
# two commits report the same percentile.
WARM_TAIL = {"full_grid": 90.0, "fast_suite": 50.0, "serve_mix": 99.0}

# serve_mix: warm set, cold specs and the sweep client's pacing. Cold specs
# come in rounds of one per benchmark, a round per COLD_ROUND_S of --seconds;
# with SWEEP_WARM_PER_COLD warm requests after each, the compute slot is busy
# about 40% of the timed phase and p99 falls among the bzip/parser waits.
HOT_SPECS = 4
DISK_SPECS = 12
# Set-ups per run (fresh daemon and cache dir each); setup_s is their median.
SETUP_REPS = 3
WARM_CYCLES = 2000
COLD_CYCLES = 4000
COLD_SCHEMES = ["razor-ch4", "trident", "dcs-icslt", "dvs", "harden-choke"]
COLD_VDD = ["v0.45", "v0.60"]
COLD_ROUND_S = 6.75
SWEEP_WARM_PER_COLD = 26
# The interactive client re-asks the in-flight cold spec of this benchmark,
# the cheapest, so coalescing takes its slow sample from the bottom of the
# warm tail rather than from the p99 region.
COALESCE_BENCH = "mcf"
EXPERIMENT_LINE = '{"op":"experiment","id":"fig3.8","scale":"fast"}'

# Experiments whose CSVs are checked against tests/golden/.
GOLDEN = ["fig3_4.csv", "fig4_3.csv"]


class Failure(Exception):
    """A set-up step failed: the run cannot produce a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------


def _expire(signum, frame):
    raise TimeoutError


def reap(p, timeout):
    """Wait for child `p` (killing it after `timeout` seconds); return its
    exit code and its own peak RSS in MB, from the rusage of its exit."""
    old = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(timeout)
    try:
        _, status, ru = os.wait4(p.pid, 0)
    except TimeoutError:
        log(f"pid {p.pid} overran {timeout} s: killed")
        p.kill()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_maxrss / 1024.0


def run_proc(args, rd, tag, timeout=OP_TIMEOUT_S):
    """Run one child to completion. Returns (wall_s, exit_code, peak_rss_mb,
    stdout_text); the child's stderr goes to a log in the run directory."""
    out_path = os.path.join(rd, f"{tag}.out")
    err_path = os.path.join(rd, f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        code, rss = reap(subprocess.Popen(args, stdout=out, stderr=err), timeout)
        wall = time.perf_counter() - start
    if code != 0:
        with open(err_path) as f:
            log(f"{tag}: exit {code}: {f.read()[-2000:]}")
    with open(out_path) as f:
        text = f.read()
    return wall, code, rss, text


def build(trace):
    """Build the program's binaries and the drivers; return the bin dir."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise Failure("run from the root of a source checkout (no Cargo.toml/crates here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    driver = os.path.join(HERE, "driver", "Cargo.toml")
    steps = [
        ["cargo", "build", "--release", "--offline", "--workspace", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", driver, "--bin", "grid-op"],
    ]
    if trace:
        steps.append(["cargo", "build", "--release", "--offline", "--manifest-path", driver,
                      "--bin", "layer-trace"])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release")


def read(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------


def layer_times(spans):
    """Per span name: (total seconds, self seconds). Self time is a span's
    duration minus the part of it its children's intervals cover."""
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append((s["start_ns"], s["end_ns"]))
    total = defaultdict(float)
    own = defaultdict(float)
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for a, b in sorted(kids.get(s["id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        total[s["name"]] += (hi - lo) / 1e9
        own[s["name"]] += (hi - lo - covered) / 1e9
    return total, own


def keep_spans(workload, spans):
    path = os.path.join(RUN_ROOT, f"spans-{workload}.jsonl")
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def ratio(num, den):
    return num / den if den else 0.0


def oracle_layers(m, o, probe=None):
    """tag_delay, dynamic, config and timing metrics from drained oracle
    counters; `probe` unit costs turn counts into times where the calls
    ran out of the harness's reach."""
    queries = o["gate_sims"] + o["local_hits"] + o["shared_hits"] + o["screen_hits"]
    m["tag_delay.queries"] = queries
    for k in ("local_hits", "shared_hits", "screen_hits"):
        m[f"tag_delay.{k}"] = o[k]
    m["tag_delay.hit_ratio"] = ratio(queries - o["gate_sims"], queries)
    m["dynamic.sims"] = o["gate_sims"]
    m["config.chips_built"] = o["sta_full"] + o["sta_incremental"]
    for k in ("sta_full", "sta_incremental", "incr_gates_touched"):
        m[f"timing.{k}"] = o[k]
    if probe:
        m["tag_delay.lookup_s"] = (queries - o["gate_sims"]) * probe["probe.ns_per_lookup"] / 1e9
        m["dynamic.us_per_sim"] = probe["probe.us_per_sim"]
        m["dynamic.busy_s"] = o["gate_sims"] * probe["probe.us_per_sim"] / 1e6
        m["config.build_s"] = m["config.chips_built"] * probe["probe.build_s_per_chip"]


def counter_group(counters, prefix):
    return defaultdict(float, {k[len(prefix):]: v for k, v in counters.items()
                               if k.startswith(prefix)})


def cache_layers(m, c):
    m["cache.disk_hits"] = c["disk_hits"]
    m["cache.disk_misses"] = c["disk_misses"]
    m["cache.hit_ratio"] = ratio(c["disk_hits"], c["disk_hits"] + c["disk_misses"])
    m["cache.bytes_written"] = c["bytes_written"]
    m["cache.corrupt_evictions"] = c["corrupt_evictions"]


def runner_layers(m, busy, wall):
    m["runner.busy_s"] = busy
    m["runner.wall_s"] = wall
    m["runner.efficiency"] = ratio(busy, wall * int(JOBS))


# ---------------------------------------------------------------------
# full_grid
# ---------------------------------------------------------------------


def bench_rows(csv, bench):
    """The header and `bench`'s rows of a grid CSV's bytes."""
    lines = csv.splitlines(keepends=True)
    return lines[:1] + [line for line in lines[1:] if line.startswith(bench.encode() + b"/")]


def check_rows(bins, rd, sub_spec, bench):
    """An answer for one benchmark's rows that owes nothing to the op: a
    fresh `grid-op` on the one-benchmark grid, its instructions generated in
    process rather than replayed. A benchmark's rows do not depend on the
    grid's other benchmarks, so every op must reproduce these."""
    out = os.path.join(rd, "check.csv")
    _, code, _, _ = run_proc(
        [os.path.join(bins, "grid-op"), "--spec", json.dumps(sub_spec, separators=(",", ":")),
         "--cache-dir", os.path.join(rd, "check-cache"), "--jobs", JOBS, "--out", out],
        rd, "check")
    if code != 0:
        raise Failure("the one-benchmark check grid failed")
    return bench_rows(read(out), bench)


def full_grid(a, bins, rd, res):
    trace_seed = 7 + a.seed
    spec = {
        "benchmarks": BENCHES, "chips": GRID_CHIPS, "schemes": GRID_SCHEMES,
        "regime": "ch3", "chip_seed_base": 220 + 100 * a.seed, "trace_seed": trace_seed,
        "cycles": GRID_CYCLES,
    }
    records = []
    for i in range(RECORD_REPS):
        tdir = os.path.join(rd, f"traces{i}")
        wall, code, _, _ = run_proc([os.path.join(bins, "ntc-workload"), "record", "--dir", tdir,
                                     "--seed", str(trace_seed), "--cycles", str(GRID_CYCLES)],
                                    rd, f"record{i}")
        if code != 0 or len(os.listdir(tdir)) != len(BENCHES):
            raise Failure("trace record failed")
        records.append(wall)
        if i + 1 < RECORD_REPS:
            shutil.rmtree(tdir)
    res.setup = records
    check_bench = BENCHES[a.seed % len(BENCHES)]
    check = check_rows(bins, rd, dict(spec, benchmarks=[check_bench]), check_bench)
    spec["trace_dir"] = tdir
    spec_json = json.dumps(spec, separators=(",", ":"))

    n_ops = max(1, int(a.seconds // OP_SECONDS["full_grid"]))
    first = ref_cache = None
    for op in range(n_ops):
        out = os.path.join(rd, f"grid{op}.csv")
        cache = os.path.join(rd, f"cache{op}")
        wall, code, rss, text = run_proc(
            [os.path.join(bins, "grid-op"), "--spec", spec_json, "--cache-dir", cache,
             "--jobs", JOBS, "--out", out], rd, f"grid{op}")
        res.attempted += 1
        ok = code == 0
        if ok:
            body = read(out)
            if first is None:
                first, ref_cache = body, cache
            digest = hashlib.sha256(body).hexdigest()
            ok = (body == first and bench_rows(body, check_bench) == check
                  and (a.seed != 0 or digest == GRID_DIGEST))
            if not ok:
                log(f"grid op {op}: CSV (sha256 {digest}) differs from the reference")
        if not ok:
            res.failed += 1
            continue
        res.op_walls.append(wall)
        res.rss.append(rss)
        res.cold_ms.append(json.loads(text.strip().splitlines()[-1])["grid_s"] * 1e3)
    res.timed = sum(res.op_walls)
    if not res.op_walls:
        return
    grid_warm(bins, rd, ref_cache, grid_line(spec), first.decode(), res)

    if a.trace:
        spans_path = os.path.join(rd, "spans.jsonl")
        out = os.path.join(rd, "traced.csv")
        wall, code, _, text = run_proc(
            [os.path.join(bins, "layer-trace"), "grid", "--spec", spec_json, "--jobs", JOBS,
             "--out", out, "--spans", spans_path, "--load-from", ref_cache,
             "--store-to", os.path.join(rd, "store")], rd, "traced")
        res.attempted += 1
        if code != 0 or read(out) != first:
            res.failed += 1
            log("traced grid op failed or differs from the untraced op")
            return
        c = json.loads(text.strip().splitlines()[-1])
        spans = load_spans(spans_path)
        keep_spans("full_grid", spans)
        total, own = layer_times(spans)
        m = res.layers
        oracle_layers(m, counter_group(c, "oracle."))
        m["tag_delay.lookup_s"] = own["tag_delay.lookup"]
        m["dynamic.busy_s"] = total["dynamic.kernel"]
        m["dynamic.us_per_sim"] = ratio(total["dynamic.kernel"], m["dynamic.sims"]) * 1e6
        m["sim.cycles"] = c["sim.cycles"]
        m["sim.busy_s"] = own["sim.run_scheme"]
        m["sim.ns_per_cycle"] = ratio(own["sim.run_scheme"], c["sim.cycles"]) * 1e9
        m["config.build_s"] = own["config.build"]
        m["workload.record_s"] = sorted(records)[len(records) // 2]
        m["workload.replay_s"] = own["workload.replay"]
        m["workload.generate_s"] = own["workload.generate"]
        m["workload.instructions"] = c["workload.replayed_instructions"]
        runner_layers(m, total["runner.cell"], total["runner.sweep"])
        cache_layers(m, counter_group(c, "cache."))
        m["cache.load_s"] = own["cache.load"]
        m["cache.store_s"] = own["cache.store"]
        m["report.csv_s"] = own["report.csv"]
        m["trace.spans"] = len(spans)
        m["trace.overhead_pct"] = (wall / percentile(res.op_walls, 50) - 1) * 100


# ---------------------------------------------------------------------
# fast_suite
# ---------------------------------------------------------------------


def suite_csvs(out):
    return {f: read(os.path.join(out, f)) for f in sorted(os.listdir(out)) if f.endswith(".csv")}


def check_suite(out, reference):
    """The suite's manifest reports no failure, its CSVs equal the
    reference set's (when given) and the goldens. Returns the manifest."""
    try:
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        csvs = suite_csvs(out)
    except (OSError, ValueError) as e:
        log(f"{out}: {e}")
        return None
    ok = manifest["failed"] == 0 and len(csvs) == len(manifest["records"])
    if reference is not None and csvs != reference:
        ok = False
    for g in GOLDEN:
        if csvs.get(g) != read(os.path.join("tests", "golden", g)):
            ok = False
    return manifest if ok else None


def fast_suite(a, bins, rd, res):
    if a.seed != 0:
        log("fast_suite is the pinned suite: --seed does not change its inputs")
    repro = os.path.join(bins, "repro")
    cdir = os.path.join(rd, "cache")
    cold_out = os.path.join(rd, "cold")
    wall, code, _, _ = run_proc([repro, "--jobs", JOBS, "--cache-dir", cdir, "--out", cold_out],
                                rd, "cold")
    cold = check_suite(cold_out, None) if code == 0 else None
    if cold is None or not any(f.endswith(".grid") for f in os.listdir(cdir)):
        raise Failure("cold suite failed")
    res.setup = [wall]
    res.cold_ms = [r["wall_s"] * 1e3 for r in cold["records"]]
    reference = suite_csvs(cold_out)

    n_ops = max(1, int(a.seconds // OP_SECONDS["fast_suite"]))
    for op in range(n_ops):
        out = os.path.join(rd, f"warm{op}")
        wall, code, rss, _ = run_proc([repro, "--jobs", JOBS, "--cache-dir", cdir, "--out", out],
                                      rd, f"warm{op}")
        res.attempted += 1
        manifest = check_suite(out, reference) if code == 0 else None
        if manifest is None:
            res.failed += 1
            log(f"warm suite {op} failed its checks")
            continue
        res.op_walls.append(wall)
        res.rss.append(rss)
        res.warm_ms.extend(r["wall_s"] * 1e3 for r in manifest["records"])
    res.timed = sum(res.op_walls)

    if a.trace and res.op_walls:
        out = os.path.join(rd, "traced")
        spans_path = os.path.join(rd, "spans.jsonl")
        wall, code, _, text = run_proc(
            [os.path.join(bins, "layer-trace"), "suite", "--cache-dir", cdir, "--jobs", JOBS,
             "--out", out, "--spans", spans_path], rd, "traced")
        res.attempted += 1
        if code != 0 or check_suite(out, reference) is None:
            res.failed += 1
            log("traced suite failed or differs from the untraced ops")
            return
        c = json.loads(text.strip().splitlines()[-1])
        spans = load_spans(spans_path)
        keep_spans("fast_suite", spans)
        _, own = layer_times(spans)
        m = res.layers
        oracle_layers(m, counter_group(c, "oracle."), c)
        m["workload.instructions"] = c.get("workload.replayed_instructions", 0)
        m["choke_study.busy_s"] = own["choke_study"]
        runner_layers(m, c["sweep.busy_s"], c["sweep.wall_s"])
        cache_layers(m, counter_group(c, "cache."))
        m["cache.load_s"] = own["cache.load"]
        m["report.csv_s"] = own["report.csv"]
        m["report.manifest_s"] = own["report.manifest"]
        m["trace.spans"] = len(spans)
        m["trace.overhead_pct"] = (wall / percentile(res.op_walls, 50) - 1) * 100


# ---------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------


def grid_line(spec):
    return json.dumps({"op": "grid", "spec": spec}, separators=(",", ":"))


def serve_specs(seed):
    """The warm set (hot grids, disk grids, one experiment) and a maker of
    cold specs. Seed 0 is the pinned request list."""
    def ch3(bench, chip_seed):
        return grid_line({"benchmarks": [bench], "chips": 1, "schemes": GRID_SCHEMES,
                          "regime": "ch3", "chip_seed_base": chip_seed,
                          "trace_seed": 11 + seed, "cycles": WARM_CYCLES})
    hot = [ch3(BENCHES[k], 500 + 64 * seed + k) for k in range(HOT_SPECS)]
    disk = [ch3(BENCHES[k % 6], 600 + 64 * seed + k) for k in range(DISK_SPECS)]

    # Cold specs shift only their chip seeds with the seed: one trace seed is
    # shared by every cold spec of a run, so shifting it would move the cost
    # of all of them at once, while the chips' costs average out over 24.
    def cold(c):
        bench = BENCHES[c % 6]
        spec = {"benchmarks": [bench], "chips": 1, "schemes": COLD_SCHEMES, "regime": "ch4",
                "vdd": COLD_VDD, "chip_seed_base": 10_000 + 1000 * seed + c,
                "trace_seed": 13, "cycles": COLD_CYCLES}
        rows = [f"{bench} @ {v}/{s}" for v in COLD_VDD for s in COLD_SCHEMES]
        return grid_line(spec), rows
    return hot, disk, cold


def request(sock, line):
    """One request on its own connection: (latency_s, response dict)."""
    start = time.perf_counter()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock)
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return time.perf_counter() - start, json.loads(buf)


class Mix:
    """Shared state of the two serve clients."""

    def __init__(self, sock, answers):
        self.sock = sock
        self.answers = answers  # request line -> first CSV seen for it
        self.inflight = None
        self.lock = threading.Lock()
        self.samples = []  # (start_s, latency_s, tier, receipt)
        self.failed = 0
        self.attempted = 0

    def ask(self, line, expect_rows=None):
        t0 = time.perf_counter()
        try:
            lat, r = request(self.sock, line)
        except (OSError, ValueError) as e:
            log(f"request failed: {e}")
            r, lat = {}, time.perf_counter() - t0
        with self.lock:
            self.attempted += 1
            ok = r.get("ok") is True
            csv = r.get("csv", "")
            if ok and expect_rows is not None:
                labels = [row.split(",")[0] for row in csv.strip().split("\n")[1:]]
                ok = labels == expect_rows
            if ok:
                ok = self.answers.setdefault(line, csv) == csv
            if not ok:
                self.failed += 1
                log(f"bad answer: {json.dumps(r)[:300]}")
                code = (r.get("error") or {}).get("code")
                self.samples.append((t0, lat, "busy" if code == "busy" else "error", None))
                return
            receipt = r["receipt"]
            self.samples.append((t0, lat, receipt["tier"], receipt))


def timed_phase(mix, warm, cold, n_cold, seed):
    """Two closed-loop clients. This thread sweeps `n_cold` cold specs, each
    followed by SWEEP_WARM_PER_COLD warm-set requests; a second thread asks
    warm-set specs until the sweep ends, re-asking each in-flight
    COALESCE_BENCH cold spec once. Returns the phase's wall time."""
    rng = random.Random(1_000_003 * seed)
    done = threading.Event()

    def interactive():
        irng = random.Random(rng.getrandbits(64))
        while not done.is_set():
            with mix.lock:
                target, mix.inflight = mix.inflight, None
            if target:
                mix.ask(*target)
            else:
                mix.ask(irng.choice(warm))

    start = time.perf_counter()
    other = threading.Thread(target=interactive)
    other.start()
    try:
        for c in range(n_cold):
            line, rows = cold(c)
            if BENCHES[c % len(BENCHES)] == COALESCE_BENCH:
                with mix.lock:
                    mix.inflight = (line, rows)
            mix.ask(line, rows)
            with mix.lock:
                mix.inflight = None
            for _ in range(SWEEP_WARM_PER_COLD):
                mix.ask(rng.choice(warm))
    finally:
        done.set()
        other.join()
    return time.perf_counter() - start


class Daemon:
    """`ntc-serve serve` on a fresh socket and cache dir, up once it answers
    a ping. `stop` shuts it down with the `shutdown` op, which must end in
    exit 0 and a removed socket."""

    def __init__(self, bins, rd, cache):
        self.sock = os.path.relpath(os.path.join(rd, "s.sock"))
        with open(os.path.join(rd, "daemon.err"), "w") as err:
            self.proc = subprocess.Popen(
                [os.path.join(bins, "ntc-serve"), "serve", "--socket", self.sock,
                 "--cache-dir", cache, "--jobs", JOBS],
                stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.perf_counter() + 30
        while True:
            try:
                if request(self.sock, '{"op":"ping"}')[1].get("ok"):
                    return
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.kill()
                raise Failure("daemon did not come up")
            time.sleep(0.005)

    def stop(self):
        """Shut down; return (clean, peak RSS in MB)."""
        try:
            shut = request(self.sock, '{"op":"shutdown"}')[1]
        except (OSError, ValueError):
            shut = {}
        code, rss = reap(self.proc, 30)
        clean = shut.get("ok") is True and code == 0 and not os.path.exists(self.sock)
        if not clean:
            log(f"daemon shutdown: ack {shut}, exit {code}, "
                f"socket left: {os.path.exists(self.sock)}")
        return clean, rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, 30)


def grid_warm(bins, rd, cache, line, csv, res):
    """full_grid's warm answers: a daemon on the op's cache dir is asked for
    the computed grid again, answering from its disk tier, then its memo."""
    daemon = Daemon(bins, rd, cache)
    try:
        mix = Mix(daemon.sock, {line: csv})
        for _ in range(GRID_WARM_REQUESTS):
            mix.ask(line)
        clean, _ = daemon.stop()
    finally:
        daemon.kill()
    res.warm_ms = [lat * 1e3 for _, lat, tier, _ in mix.samples if tier in ("memo", "disk")]
    if mix.failed or not clean or len(res.warm_ms) != GRID_WARM_REQUESTS:
        res.failed += 1


def primed_daemon(bins, rd, cache, lines, answers):
    """serve_mix's set-up: a daemon on a fresh cache dir, asked each of
    `lines` once. Returns the daemon and the clients' shared state."""
    daemon = Daemon(bins, rd, cache)
    try:
        mix = Mix(daemon.sock, answers)
        for line in lines:
            mix.ask(line)
        if mix.failed:
            raise Failure("priming the warm set failed")
    except BaseException:
        daemon.kill()
        raise
    return daemon, mix


def serve_mix(a, bins, rd, res):
    hot, disk, cold = serve_specs(a.seed)
    # The set-up runs SETUP_REPS times, each on a fresh daemon and cache dir,
    # and every primed answer must equal the first set-up's; the last daemon
    # serves the timed phase.
    answers = {}
    for i in range(SETUP_REPS):
        start = time.perf_counter()
        daemon, mix = primed_daemon(bins, rd, os.path.join(rd, f"cache{i}"),
                                    hot + disk + [EXPERIMENT_LINE], answers)
        res.setup.append(time.perf_counter() - start)
        if i + 1 < SETUP_REPS and not daemon.stop()[0]:
            raise Failure("a set-up daemon did not shut down cleanly")
    try:
        mix.samples.clear()
        mix.attempted = 0
        n_cold = len(BENCHES) * max(1, round(a.seconds / COLD_ROUND_S))
        warm = hot * 3 + disk + [EXPERIMENT_LINE]
        res.timed = timed_phase(mix, warm, cold, n_cold, a.seed)
        res.attempted += mix.attempted
        res.failed += mix.failed
        for _, lat, tier, _ in mix.samples:
            if tier in ("memo", "disk"):
                res.warm_ms.append(lat * 1e3)
            elif tier == "computed":
                res.cold_ms.append(lat * 1e3)
        res.ops = mix.attempted - mix.failed
        clean, rss = daemon.stop()
        res.failed += not clean
        res.rss = [rss]
    finally:
        daemon.kill()

    if a.trace:
        serve_layers(res, mix.samples, bins, rd, a.seed)


def serve_layers(res, samples, bins, rd, seed):
    """Per-layer metrics of the timed phase from client timing and the
    receipts, which an untraced run collects too, so tracing adds nothing
    to the timed phase; the unit-cost probe converts kernel, build and
    lookup counts into times."""
    _, code, _, text = run_proc([os.path.join(bins, "layer-trace"), "probe", "--seed", str(seed)],
                                rd, "probe")
    if code != 0:
        res.failed += 1
        return
    probe = json.loads(text.strip().splitlines()[-1])
    spans = []
    oracle, cache = defaultdict(float), defaultdict(float)
    busy = wall = 0.0
    tiers = defaultdict(int)
    overhead, queue, compute = [], [], []
    for n, (t0, lat, tier, rc) in enumerate(samples):
        tiers[tier] += 1
        if rc is None:
            continue
        q = rc["queue_wait_us"] / 1e6
        cmp_s = rc["sweep_wall_us"] / 1e6 if tier == "computed" else 0.0
        rid = 3 * n + 1
        start = int(t0 * 1e9)
        spans.append({"id": rid, "parent": 0, "op": n, "name": "serve.request",
                      "start_ns": start, "end_ns": start + int(lat * 1e9)})
        spans.append({"id": rid + 1, "parent": rid, "op": n, "name": "serve.queue_wait",
                      "start_ns": start, "end_ns": start + int(q * 1e9)})
        spans.append({"id": rid + 2, "parent": rid, "op": n, "name": "serve.compute",
                      "start_ns": start + int(q * 1e9), "end_ns": start + int((q + cmp_s) * 1e9)})
        if tier == "coalesced":
            continue  # a joiner's receipt repeats its leader's counters
        overhead.append((lat - q - cmp_s) * 1e3)
        queue.append(q * 1e3)
        if tier == "computed":
            compute.append(cmp_s * 1e3)
        for k, v in rc["oracle"].items():
            oracle[k] += v
        for k, v in rc["cache"].items():
            cache[k] += v
        busy += rc["sweep_busy_us"] / 1e6
        wall += rc["sweep_wall_us"] / 1e6
    keep_spans("serve_mix", spans)
    m = res.layers
    oracle_layers(m, oracle, probe)
    runner_layers(m, busy, wall)
    cache_layers(m, cache)
    m["serve.overhead_ms_p50"] = percentile(overhead, 50)
    m["serve.queue_wait_ms_p50"] = percentile(queue, 50)
    m["serve.queue_wait_ms_p99"] = percentile(queue, 99)
    m["serve.compute_ms_p50"] = percentile(compute, 50) if compute else 0.0
    for t in ("memo", "disk", "computed", "coalesced"):
        m[f"serve.tier_{t}"] = tiers[t]
    m["serve.busy"] = tiers["busy"]
    m["serve.errors"] = tiers["error"]
    m["trace.spans"] = len(spans)
    m["trace.overhead_pct"] = 0.0


# ---------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops = None
        self.setup = []
        self.timed = 0.0
        self.op_walls = []
        self.rss = []
        self.warm_ms = []
        self.cold_ms = []
        self.layers = defaultdict(float)


WORKLOADS = {"full_grid": full_grid, "fast_suite": fast_suite, "serve_mix": serve_mix}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=27)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bins = build(a.trace)
    except (OSError, ValueError, Failure) as e:
        log(str(e))
        return 1
    os.makedirs(RUN_ROOT, exist_ok=True)
    rd = os.path.join(RUN_ROOT, f"{a.workload}-{os.getpid()}")
    shutil.rmtree(rd, ignore_errors=True)
    os.makedirs(rd)
    res = Result()
    try:
        WORKLOADS[a.workload](a, bins, rd, res)
    except Failure as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(rd, ignore_errors=True)
    if not res.warm_ms or not res.cold_ms or not res.rss or res.timed <= 0:
        log("no successful op: nothing to report")
        return 1

    ops = res.ops if res.ops is not None else len(res.op_walls)
    tail = WARM_TAIL[a.workload]
    if (tail_percentile(len(res.warm_ms)) or 0) < tail:
        log(f"only {len(res.warm_ms)} warm samples: fewer than ten lie beyond p{tail:g}")
    e2e = {
        "ops_per_s": ops / res.timed,
        "setup_s": sorted(res.setup)[len(res.setup) // 2],
        "peak_rss_mb": sorted(res.rss)[len(res.rss) // 2],
        "warm_p50_ms": percentile(res.warm_ms, 50),
        "warm_p99_ms": percentile(res.warm_ms, tail),
        "cold_p50_ms": percentile(res.cold_ms, 50),
    }
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    values = res.layers if a.trace else e2e
    log(f"{a.workload}: {res.attempted} ops, {len(res.warm_ms)} warm samples "
        f"(warm_p99_ms is their p{tail:g}) and {len(res.cold_ms)} cold, "
        f"timed {res.timed:.2f} s")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

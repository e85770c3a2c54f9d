"""The three workloads: chip-batch, eco-serve and design-session.

Each workload builds its inputs from the seed, times the release
`maestro-cli` binary untraced for the run's seconds, checks outputs
outside the timed region, and returns a `Result`. With tracing on it
instead runs a shorter untraced pass, the same pass against a program
started with `--trace`, and the in-process per-layer probe.
"""

import concurrent.futures
import json
import os
import random
import re
import shutil
import subprocess
import threading
import time

from procs import Daemon, cli_stdout, run_cli
from stats import Tally, beyond, closed_loop, median, percentile

SETUP_REPEATS = 7
TRACE_SHARE = 3  # untraced and program-traced passes each get seconds / 3

AREA = re.compile(r"= (\d+)λ²")
SC_AREA = re.compile(r"standard-cell: (\d+)λ²")
FC_TOTALS = re.compile(r"full-custom  : (\d+)λ² exact / (\d+)λ² average")


class Ctx:
    """Paths and settings shared by a run. Paths are relative to the
    checkout root, which is the working directory."""

    def __init__(self, cli, harness, work, seed, seconds, trace):
        self.cli = cli
        self.harness = harness
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace

    def path(self, name):
        return os.path.join(self.work, name)

    def harness_json(self, *args):
        done = subprocess.run([self.harness, *map(str, args)], capture_output=True,
                              text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"perfbench-harness {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout)


class Result:
    """What one workload run measured and checked."""

    def __init__(self):
        self.metrics = {}
        self.tally = Tally()
        self.checks = []
        self.lines = []
        self.layers = {}

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit)
        self.lines.append(f"metric {name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok)))
        self.lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        return ok

    def correct(self):
        return all(ok for _, ok in self.checks) and self.tally.failed == 0


def latency_metrics(res, ms, elapsed_s, label):
    """p50/p95 over every latency plus closed-loop throughput. The gated
    tail is p95: host stalls of a fraction of a second take a few percent
    of a run's requests, and p99 moved with them by up to half its value
    between runs of the same code. p99 is printed beside it, not gated."""
    n = len(ms)
    res.metric("p50_ms", percentile(ms, 50), "ms", f"n={n}")
    res.metric("p95_ms", percentile(ms, 95), "ms", f"n={n}, {beyond(n, 95)} beyond")
    res.lines.append(f"report p99_ms = {percentile(ms, 99):.6g} ms  (n={n}, {beyond(n, 99)} beyond)")
    res.metric("requests_per_s", n / elapsed_s, "req/s", f"{n} {label} in {elapsed_s:.2f} s")


def overhead_line(res, name, untraced, traced, unit):
    change = (traced - untraced) / untraced * 100 if untraced else 0.0
    res.lines.append(f"trace-overhead {name}: untraced {untraced:.6g} {unit}, "
                     f"program-traced {traced:.6g} {unit} ({change:+.1f}%)")


def probe(ctx, res, *args):
    """Runs an in-process probe, keeps its per-layer metrics and counts
    its operations."""
    out = ctx.harness_json(*args, "--spans", ctx.path("spans.jsonl"))
    res.layers.update(out["layers"])
    aux = out["aux"]
    for i in range(int(aux["ops"])):
        res.tally.record(i >= aux["failed"])
    return aux


# ---------------------------------------------------------------- chip-batch

CHIP_DEVICES = 300_000
CHIP_EXTRA_BLOCKS = 16
CHIP_JOBS = 2
TABLE1 = os.path.join("assets", "table1.mnl")
GOLDEN_TABLE1 = os.path.join("tests", "golden", "table1.json")


def chip_output_problems(text, expected_records, golden):
    """What is wrong with an estimate table: its record count, and any
    Table 1 record whose totals differ from the golden fixture."""
    blocks = text.split("module `")[1:]
    problems = []
    if len(blocks) != expected_records:
        problems.append(f"{len(blocks)} records, expected {expected_records}")
    by_name = {b.split("`", 1)[0]: b for b in blocks}
    for row in golden:
        found = FC_TOTALS.search(by_name.get(row["name"], ""))
        got = (int(found.group(1)), int(found.group(2))) if found else None
        if got != (row["total_exact"], row["total_average"]):
            problems.append(f"{row['name']} totals {got}")
    return problems


def chip_area(text):
    """Sum of the standard-cell and exact full-custom areas of a table."""
    return sum(map(int, SC_AREA.findall(text))) + sum(int(e) for e, _ in FC_TOTALS.findall(text))


def chip_batch(ctx):
    res = Result()
    chip = ctx.path("chip.mnl")
    gen = ctx.harness_json("gen-chip", "--devices", CHIP_DEVICES, "--extra", CHIP_EXTRA_BLOCKS,
                           "--seed", ctx.seed, "--out", chip)
    res.check("generated chip devices equal the ChipSpec",
              gen["chip_devices_written"] == gen["chip_devices_spec"],
              f"{gen['chip_devices_written']} vs {gen['chip_devices_spec']}")
    with open(GOLDEN_TABLE1) as f:
        golden = json.load(f)["rows"]
    expected_records = gen["modules"] + len(golden)
    devices = gen["devices"] + sum(row["devices"] for row in golden)
    res.lines.append(f"input {chip}: {gen['modules']} modules + Table 1, {devices} devices")

    # Set-up of a one-shot run is its cold start: spawn, tech load and a
    # tiny estimate. The host's speed shifts by a third within seconds, so
    # cold starts are taken before the timed pass and after every chip run
    # in it, and reduced to the median.
    cold_out = ctx.path("cold.txt")
    setups = []

    def cold_start():
        shot = run_cli(ctx.cli, ["estimate", TABLE1], cold_out)
        setups.append(shot.wall_s)
        res.tally.record(shot.code == 0 and
                         not chip_output_problems(shot.stdout.decode(), len(golden), golden))

    for _ in range(SETUP_REPEATS):
        cold_start()

    args = ["estimate", chip, TABLE1, "--jobs", str(CHIP_JOBS)]
    out = ctx.path("chip_out.txt")

    def timed_pass(seconds, extra=(), between=None):
        """Chip runs for `seconds`; returns them and the time they took,
        leaving out the time spent in `between` after each run."""
        shots = []
        paused = 0.0
        started = time.perf_counter()
        while not shots or time.perf_counter() - started - paused < seconds:
            shots.append(run_cli(ctx.cli, args + list(extra), out))
            if between:
                left = time.perf_counter()
                between()
                paused += time.perf_counter() - left
        return shots, time.perf_counter() - started - paused

    seconds = ctx.seconds / TRACE_SHARE if ctx.trace else ctx.seconds
    shots, elapsed = timed_pass(seconds, between=cold_start)
    res.metric("setup_s", median(setups), "s", f"median of {len(setups)} cold starts")
    reference = shots[0].stdout
    problems = chip_output_problems(reference.decode(), expected_records, golden)
    valid = res.check("record count and Table 1 totals match (tests/golden/table1.json)",
                      shots[0].code == 0 and not problems, "; ".join(problems))
    for shot in shots:
        res.tally.record(valid and shot.code == 0 and shot.stdout == reference)
    res.check("every run printed the same table", all(s.stdout == reference for s in shots))
    walls = [s.wall_s for s in shots]
    dps = devices / median(walls)

    if ctx.trace:
        traced, _ = timed_pass(seconds, ["--trace", ctx.path("cli_trace.jsonl")])
        for shot in traced:
            res.tally.record(shot.code == 0 and shot.stdout == reference)
        overhead_line(res, "devices_per_s", dps, devices / median([s.wall_s for s in traced]),
                      "devices/s")
        rendered = ctx.path("probe_table.txt")
        aux = probe(ctx, res, "probe-chip", "--chip", chip, "--table1", TABLE1,
                    "--jobs", CHIP_JOBS, "--render-out", rendered)
        with open(rendered, "rb") as f:
            res.check("in-process table equals the CLI's", f.read() == reference)
        covered = sum(res.layers[k] for k in
                      ("netlist.parse.busy_ms", "estimator.pipeline.busy_ms", "ops.render.busy_ms"))
        share = covered / aux["wall_ms"]
        res.lines.append(f"trace-coverage: parse + pipeline + render cover {share:.1%} of the "
                         f"traced wall ({aux['wall_ms']:.1f} ms); the rest is file reads "
                         f"and span bookkeeping")
        res.check("traced spans cover >= 90% of the traced wall", share >= 0.9, f"{share:.1%}")
        return res

    res.metric("devices_per_s", dps, "devices/s", f"{devices} devices, median of {len(walls)} runs")
    res.metric("peak_rss_mb", median([s.peak_rss_mb for s in shots]), "MB", "VmHWM, median over runs")
    res.metric("cpu_ms_per_op", median([s.cpu_s for s in shots]) * 1e3, "ms", "user+sys per chip")
    res.metric("estimate_p50_ms", percentile([w * 1e3 for w in walls], 50), "ms",
               f"n={len(walls)}")
    latency_metrics(res, [w * 1e3 for w in walls], elapsed, "chips")
    res.metric("result_area_lambda2", chip_area(reference.decode()), "lambda2",
               "estimated area summed over every record")
    return res


# ----------------------------------------------------------------- eco-serve

ECO_DEVICES = 10_000
ECO_AREA_ROUND = 100
ECO_SAMPLE_RATE = 1 / 50
ECO_PROBE_ROUNDS = 300
# Memos grow with every new revision, so peak memory is read at a fixed
# round rather than at the end of a run whose length depends on speed.
ECO_RSS_ROUND = 500
DEVICE = re.compile(r"^device (\S+) (\S+) \((.*)\);$")


class EcoChip:
    """A chip as canonical `.mnl` module chunks, edited one device at a
    time: add (a copy of an existing gate), drop, or rewire one pin. An
    edit that would recreate a revision already sent is redrawn, so every
    edit is new content and costs exactly one resolve per layout style."""

    def __init__(self, text):
        self.modules = re.findall(r"^module .*?^endmodule\n", text, re.S | re.M)
        self.seen = set(self.modules)

    def text(self):
        return "".join(self.modules)

    def edit(self, rng, k):
        """Applies the k-th seeded edit; returns the edited module's index."""
        while True:
            index, text = self._draw(rng, k)
            if text not in self.seen:
                self.seen.add(text)
                self.modules[index] = text
                return index

    def _draw(self, rng, k):
        index = rng.randrange(len(self.modules))
        lines = self.modules[index].splitlines(keepends=True)
        devices = [i for i, line in enumerate(lines) if line.startswith("device ")]
        op = rng.choice(("add", "drop", "rewire"))
        if op == "drop" and len(devices) <= 2:
            op = "add"
        if op == "add":
            _, template, pins = DEVICE.match(lines[rng.choice(devices)].rstrip("\n")).groups()
            lines.insert(len(lines) - 1, f"device eco{k} {template} ({pins});\n")
        elif op == "drop":
            del lines[rng.choice(devices)]
        else:
            at = rng.choice(devices)
            name, template, pins = DEVICE.match(lines[at].rstrip("\n")).groups()
            bindings = [p.split("=", 1) for p in pins.split(", ")]
            nets = sorted({p.split("=", 1)[1] for i in devices
                           for p in DEVICE.match(lines[i].rstrip("\n")).group(3).split(", ")})
            pin = rng.randrange(len(bindings))
            bindings[pin][1] = rng.choice([n for n in nets if n != bindings[pin][1]] or nets)
            lines[at] = f"device {name} {template} ({', '.join('='.join(b) for b in bindings)});\n"
        return index, "".join(lines)


def rewrite(path, text):
    """Replaces a file's content in place. Truncating it to zero first, as
    `open(path, "w")` does, makes ext4 push every revision through to the
    disk (about half a megabyte a round), and that I/O shows as latency."""
    with open(path, "r+" if os.path.exists(path) else "w") as f:
        f.write(text)
        f.truncate()


class EcoRound:
    kind = "estimate"

    def __init__(self, k, sampled, misses_before):
        self.k = k
        self.sampled = sampled
        self.misses_before = misses_before


def resolve_misses(conn):
    reply = conn.call(b'{"id":"stats","kind":"cache-stats"}\n')
    return json.loads(reply["payload"])["resolve"]["misses"]


def eco_line(path):
    return (json.dumps({"id": "eco", "kind": "estimate", "files": [path], "mnl": [],
                        "tech": "nmos", "jobs": 1, "json": False, "incremental": True},
                       separators=(",", ":")) + "\n").encode()


def eco_serve(ctx):
    res = Result()
    base = ctx.path("eco_base.mnl")
    gen = ctx.harness_json("gen-chip", "--devices", ECO_DEVICES, "--extra", 0,
                           "--seed", ctx.seed, "--out", base)
    with open(base) as f:
        base_text = f.read()
    module_count = gen["modules"]
    rev = ctx.path("eco.mnl")
    line = eco_line(rev)
    res.lines.append(f"input {base}: {module_count} modules, {gen['devices']} devices")

    def modules_in(payload):
        return payload.count("module `")

    def start_daemon(trace_path=None):
        """Spawn, connect and answer the cold estimate that fills every memo."""
        rewrite(rev, base_text)
        started = time.perf_counter()
        daemon = Daemon(ctx.cli, ctx.path("serve.sock"), trace_path)
        conn = daemon.connect()
        reply = conn.call(line)
        return daemon, conn, reply, time.perf_counter() - started

    def run_loop(daemon, conn, seconds):
        chip = EcoChip(base_text)
        rng = random.Random(f"eco-edits:{ctx.seed}")
        sample_rng = random.Random(f"eco-sample:{ctx.seed}")
        saved = []
        peak = []

        def rounds():
            for k in range(1, 1 << 30):
                chip.edit(rng, k)
                rewrite(rev, chip.text())
                sampled = k == ECO_AREA_ROUND or sample_rng.random() < ECO_SAMPLE_RATE
                if sampled:
                    shutil.copyfile(rev, ctx.path(f"eco_rev_{k}.mnl"))
                yield EcoRound(k, sampled, resolve_misses(conn) if sampled else 0)

        def check(rnd, reply):
            if rnd.k == ECO_RSS_ROUND:
                peak.append(daemon.peak_rss_mb())
            ok = reply.get("ok") is True and modules_in(reply["payload"]) == module_count
            if ok and rnd.sampled:
                saved.append((rnd.k, reply["payload"]))
                ok = resolve_misses(conn) - rnd.misses_before == 2
            return ok

        misses0 = resolve_misses(conn)
        cpu0 = daemon.cpu_s()
        started = time.perf_counter()
        samples, tally = closed_loop(rounds(), lambda _: conn.call(line), check,
                                     started + seconds)
        elapsed = time.perf_counter() - started
        cpu = daemon.cpu_s() - cpu0
        misses = resolve_misses(conn) - misses0
        return samples, tally, elapsed, cpu, misses, saved, peak

    setups = []
    daemon = conn = None
    try:
        for i in range(SETUP_REPEATS):
            daemon, conn, reply, setup_s = start_daemon()
            setups.append(setup_s)
            cold_ok = reply.get("ok") is True
            if i == 0:
                cold_ok = cold_ok and reply["payload"] == cli_stdout(ctx.cli, ["estimate", base])
                res.check("cold incremental estimate equals the one-shot estimate", cold_ok)
            res.tally.record(cold_ok)
            if i < SETUP_REPEATS - 1:
                conn.close()
                daemon.stop()
        seconds = ctx.seconds / TRACE_SHARE if ctx.trace else ctx.seconds
        samples, tally, elapsed, cpu, misses, saved, peak = run_loop(daemon, conn, seconds)
        conn.close()
        daemon.stop()
        # Set-up is sampled again after the loop, so its median spans the
        # run rather than the host's state of its first second.
        for _ in range(SETUP_REPEATS):
            daemon, conn, reply, setup_s = start_daemon()
            setups.append(setup_s)
            res.tally.record(reply.get("ok") is True)
            conn.close()
            daemon.stop()
        daemon = conn = None
        res.metric("setup_s", median(setups), "s",
                   f"spawn + cold estimate, median of {len(setups)} before and after the loop")
    finally:
        if conn:
            conn.close()
        if daemon:
            daemon.stop()
    res.tally.merge(tally)
    rounds = len(samples)
    res.check("resolve misses are exactly 2 per edit", misses == 2 * rounds,
              f"{misses} misses over {rounds} edits")

    # Sampled rounds against a cold one-shot estimate of the same revision.
    mismatched = [k for k, payload in saved
                  if cli_stdout(ctx.cli, ["estimate", ctx.path(f"eco_rev_{k}.mnl")]) != payload]
    for _ in mismatched:
        res.tally.reclassify_failed()
    res.check(f"{len(saved)} sampled incremental payloads equal a cold one-shot estimate",
              not mismatched, ", ".join(map(str, mismatched)))
    p50 = percentile([s.ms for s in samples], 50)

    if ctx.trace:
        daemon, conn, reply, _ = start_daemon(ctx.path("serve_trace.jsonl"))
        try:
            traced, ttally, *_ = run_loop(daemon, conn, seconds)
        finally:
            conn.close()
            daemon.stop()
        res.tally.merge(ttally)
        overhead_line(res, "p50_ms", p50, percentile([s.ms for s in traced], 50), "ms")
        # The probe replays the loop's first rounds: the same seeded edits.
        chip, rng = EcoChip(base_text), random.Random(f"eco-edits:{ctx.seed}")
        with open(ctx.path("edits.tsv"), "w") as f:
            for k in range(1, ECO_PROBE_ROUNDS + 1):
                index = chip.edit(rng, k)
                f.write(f"{index}\t{chip.modules[index].replace(chr(10), chr(92) + 'n')}\n")
        aux = probe(ctx, res, "probe-eco", "--chip", base, "--edits", ctx.path("edits.tsv"),
                    "--work", ctx.work)
        client_p50_us = percentile([s.ms for s in samples[:ECO_PROBE_ROUNDS]], 50) * 1e3
        res.layers["serve.overhead_us"] = client_p50_us - aux["handle_p50_us"]
        return res

    latency_metrics(res, [s.ms for s in samples], elapsed, "edit rounds")
    res.metric("estimate_p50_ms", p50, "ms", f"n={rounds}")
    res.metric("devices_per_s", gen["devices"] * rounds / elapsed, "devices/s",
               "whole chip per incremental estimate")
    res.metric("cpu_ms_per_op", cpu * 1e3 / rounds, "ms", "daemon user+sys per request")
    res.check(f"round {ECO_RSS_ROUND} was reached", bool(peak))
    res.metric("peak_rss_mb", peak[0] if peak else 0.0, "MB",
               f"daemon VmHWM after {ECO_RSS_ROUND} edit rounds")
    area = [payload for k, payload in saved if k == ECO_AREA_ROUND]
    res.check(f"round {ECO_AREA_ROUND} was reached", bool(area))
    res.metric("result_area_lambda2", chip_area(area[0]) if area else 0.0, "lambda2",
               f"estimated area at round {ECO_AREA_ROUND}")
    return res


# ------------------------------------------------------------ design-session

SESSION_CLIENTS = 2
SESSION_PROBE_REQUESTS = 200
# Requests of each kind in every block of 100 a client sends, in seeded
# order: the shares hold exactly over each block, so a run's mix does not
# drift with the seed. Floorplans cycle through 4, 5 and 6 blocks. With
# 10 floorplans in 100, p95 falls mid-way among them; with 7 it fell where
# the slowest layouts and the fastest floorplans overlap, and moved
# between the two from run to run.
MIX = (("estimate", 67), ("layout", 20), ("floorplan", 10), ("report", 3))
FLOORPLAN_BLOCKS = (4, 5, 6)


class SessionRequest:
    def __init__(self, kind, names, line):
        self.kind = kind
        self.names = names
        self.line = line


def session_request(kind, names, chunks, rid):
    body = {"id": rid, "kind": kind, "files": [], "mnl": ["".join(chunks[n] for n in names)],
            "tech": "nmos"}
    if kind == "estimate":
        body.update(jobs=1, json=False)
    elif kind == "layout":
        body.update(replicas=1)
    else:
        body.update(replicas=1, backend="annealing" if kind == "floorplan" else "spanning-tree")
    return SessionRequest(kind, names, (json.dumps(body, separators=(",", ":")) + "\n").encode())


def session_script(seed, client, names, chunks):
    """One client's endless, seeded request stream."""
    rng = random.Random(f"session:{seed}:{client}")
    k = 0
    floorplans = 0
    while True:
        kinds = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "estimate":
                picked = rng.sample(names, rng.randint(4, 32))
            elif kind == "layout":
                picked = [rng.choice(names)]
            elif kind == "floorplan":
                picked = rng.sample(names, FLOORPLAN_BLOCKS[floorplans % len(FLOORPLAN_BLOCKS)])
                floorplans += 1
            else:
                picked = rng.sample(names, rng.randint(2, 6))
            yield session_request(kind, picked, chunks, f"c{client}-{k}")
            k += 1


def session_payload_ok(req, reply):
    """Shape of a reply, cheap enough to check on every request."""
    if reply.get("ok") is not True:
        return False
    payload = reply["payload"]
    if req.kind == "estimate":
        return payload.count("module `") == len(req.names)
    if req.kind == "layout":
        return payload.startswith(f"`{req.names[0]}`") and payload.count("\n") == 1
    if req.kind == "floorplan":
        return payload.startswith("chip ") and payload.count("\n") == 1 + len(req.names)
    return payload.startswith("# maestro design report")


def one_shot_args(req, path):
    if req.kind == "estimate":
        return ["estimate", path]
    if req.kind == "layout":
        return ["layout", path]
    if req.kind == "floorplan":
        return ["floorplan", path, "--backend", "annealing"]
    return ["report", path, "--backend", "spanning-tree"]


def quality_sample(seed, names, chunks):
    """The checked sample: every pool module laid out once and floorplanned
    once, plus a few seeded estimates and one report. The floorplan groups
    are fixed runs of five pool modules, since a plan's area depends on
    which blocks share it; the seed orders the blocks within each group."""
    rng = random.Random(f"session-sample:{seed}")
    sample = [session_request("layout", [n], chunks, f"q-l{i}")
              for i, n in enumerate(rng.sample(names, len(names)))]
    groups = [names[i:i + 5] for i in range(0, len(names), 5)]
    if len(groups) > 1 and len(groups[-1]) < 4:
        last = groups.pop()
        groups[-1] += last
    sample += [session_request("floorplan", rng.sample(g, len(g)), chunks, f"q-f{i}")
               for i, g in enumerate(groups)]
    for i in range(4):
        sample.append(session_request("estimate", rng.sample(names, rng.randint(4, 32)), chunks,
                                      f"q-e{i}"))
    sample.append(session_request("report", rng.sample(names, 4), chunks, "q-r"))
    return sample


def design_session(ctx):
    res = Result()
    pool_path = ctx.path("pool.mnl")
    pool = ctx.harness_json("gen-pool", "--out", pool_path)["modules"]
    with open(pool_path) as f:
        text = f.read()
    chunks = {}
    for chunk in re.findall(r"^module .*?^endmodule\n", text, re.S | re.M):
        chunks[chunk.split(None, 2)[1].rstrip(";")] = chunk
    names = [m["name"] for m in pool]
    devices = {m["name"]: m["devices"] for m in pool}
    res.lines.append(f"input {pool_path}: {len(names)} modules "
                     f"({sum(m['style'] == 'fc' for m in pool)} full-custom)")
    ping = b'{"id":"ping","kind":"cache-stats"}\n'

    def start_daemon(trace_path=None):
        started = time.perf_counter()
        daemon = Daemon(ctx.cli, ctx.path("serve.sock"), trace_path)
        conns = [daemon.connect() for _ in range(SESSION_CLIENTS)]
        for conn in conns:
            conn.call(ping)
        return daemon, conns, time.perf_counter() - started

    def stop(daemon, conns):
        for conn in conns:
            conn.close()
        daemon.stop()

    def run_loop(daemon, conns, seconds):
        cpu0 = daemon.cpu_s()
        started = time.perf_counter()
        deadline = started + seconds
        results = [None] * SESSION_CLIENTS

        def client(c):
            script = session_script(ctx.seed, c, names, chunks)
            results[c] = closed_loop(script, lambda req: conns[c].call(req.line),
                                     session_payload_ok, deadline)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(SESSION_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        cpu = daemon.cpu_s() - cpu0
        tally = Tally()
        for _, t in results:
            tally.merge(t)
        return [r[0] for r in results], tally, elapsed, cpu

    setups = []
    daemon = None
    conns = []
    try:
        for i in range(SETUP_REPEATS):
            daemon, conns, setup_s = start_daemon()
            setups.append(setup_s)
            if i < SETUP_REPEATS - 1:
                stop(daemon, conns)
        res.metric("setup_s", median(setups), "s", f"spawn + {SESSION_CLIENTS} connections, "
                   f"median of {len(setups)}")
        seconds = ctx.seconds / TRACE_SHARE if ctx.trace else ctx.seconds
        per_client, tally, elapsed, cpu = run_loop(daemon, conns, seconds)
        peak = daemon.peak_rss_mb()
        sample = quality_sample(ctx.seed, names, chunks)
        replies = [conns[0].call(req.line) for req in sample]
    finally:
        if daemon:
            stop(daemon, conns)
    res.tally.merge(tally)
    samples = [s for client in per_client for s in client]

    # The quality sample against one-shot runs of the same requests.
    def one_shot(i_req):
        i, req = i_req
        path = ctx.path(f"sample_{i}.mnl")
        with open(path, "w") as f:
            f.write(json.loads(req.line)["mnl"][0])
        return cli_stdout(ctx.cli, one_shot_args(req, path))

    with concurrent.futures.ThreadPoolExecutor(max_workers=SESSION_CLIENTS) as pool_exec:
        references = list(pool_exec.map(one_shot, enumerate(sample)))
    mismatched = []
    area = 0
    for req, reply, reference in zip(sample, replies, references):
        ok = reply.get("ok") is True and reply["payload"] == reference
        res.tally.record(ok and session_payload_ok(req, reply))
        if not ok:
            mismatched.append(json.loads(req.line)["id"])
        elif req.kind in ("layout", "floorplan"):
            area += sum(int(a) for a in AREA.findall(reply["payload"]))
    res.check(f"{len(sample)} sampled payloads equal the one-shot CLI output", not mismatched,
              ", ".join(mismatched))

    by_kind = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.ms)
    kind_line = ", ".join(f"{k} {len(v)}" for k, v in sorted(by_kind.items()))
    res.lines.append(f"mix: {kind_line}")

    if ctx.trace:
        daemon, conns, _ = start_daemon(ctx.path("serve_trace.jsonl"))
        try:
            traced, ttally, _, _ = run_loop(daemon, conns, seconds)
        finally:
            stop(daemon, conns)
        res.tally.merge(ttally)
        overhead_line(res, "p50_ms", percentile([s.ms for s in samples], 50),
                      percentile([s.ms for c in traced for s in c], 50), "ms")
        per = SESSION_PROBE_REQUESTS // SESSION_CLIENTS
        replayed = []
        with open(ctx.path("requests.jsonl"), "wb") as f:
            scripts = [session_script(ctx.seed, c, names, chunks) for c in range(SESSION_CLIENTS)]
            for _ in range(per):
                for script in scripts:
                    f.write(next(script).line)
        for client in per_client:
            replayed += [s.ms for s in client[:per]]
        aux = probe(ctx, res, "probe-session", "--requests", ctx.path("requests.jsonl"))
        worst, limit = aux["route_worst_violations"], aux["route_violation_limit"]
        res.check(f"every replayed layout drops at most {limit:.0f} vertical constraints "
                  f"(the router's own tolerance)", worst <= limit,
                  f"worst {worst:.0f}, {res.layers['route.violations']:.0f} in all")
        res.layers["serve.overhead_us"] = percentile(replayed, 50) * 1e3 - aux["handle_p50_us"]
        return res

    latency_metrics(res, [s.ms for s in samples], elapsed, "requests")
    for kind in ("estimate", "layout", "floorplan"):
        ms = by_kind.get(kind, [])
        if ms:
            note = f"n={len(ms)}"
            if kind == "estimate":
                res.metric("estimate_p50_ms", percentile(ms, 50), "ms", note)
            else:
                res.lines.append(f"report {kind}_p50_ms = {percentile(ms, 50):.6g} ms  ({note})")
    estimated = sum(devices[n] for s in samples if s.kind == "estimate" for n in s.request.names)
    res.metric("devices_per_s", estimated / elapsed, "devices/s", "devices in estimate requests")
    res.metric("cpu_ms_per_op", cpu * 1e3 / len(samples), "ms", "daemon user+sys per request")
    res.metric("peak_rss_mb", peak, "MB", "daemon VmHWM")
    res.metric("result_area_lambda2", area, "lambda2",
               "layout + floorplan areas of the checked sample")
    # A percentile sits on a kind boundary when it lies outside the middle
    # 90% of every request kind's own latencies.
    for q in (50, 95, 99):
        value = percentile([s.ms for s in samples], q)
        inside = [k for k, ms in sorted(by_kind.items())
                  if percentile(ms, 5) <= value <= percentile(ms, 95)]
        res.check(f"p{q} lies inside the middle 90% of one request kind", inside,
                  "/".join(inside))
    return res


WORKLOADS = {
    "chip-batch": chip_batch,
    "eco-serve": eco_serve,
    "design-session": design_session,
}

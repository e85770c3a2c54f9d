"""Running the program under test: one-shot CLI invocations, the serve
daemon and its socket connections, and the host stamp."""

import hashlib
import json
import os
import platform
import socket
import subprocess
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# No single request of any workload takes a second; a reply this late
# means the daemon hung, and the run must still end in bounded time.
REPLY_TIMEOUT_S = 60


class OneShot:
    """One finished CLI invocation: wall time, CPU time and peak RSS from
    the kernel's own accounting of the child (`wait4`)."""

    def __init__(self, wall_s, cpu_s, peak_rss_mb, code, stdout):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.stdout = stdout


def run_cli(cli, args, out_path):
    """Runs `cli args`, its stdout going to `out_path`, and returns a
    `OneShot`. Only the child's life is timed."""
    with open(out_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen([cli, *args], stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out:
        stdout = out.read()
    return OneShot(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, stdout)


def cli_stdout(cli, args):
    """Stdout of a one-shot CLI run (the reference a serve payload must
    equal byte for byte), or None when it fails."""
    done = subprocess.run([cli, *args], capture_output=True, timeout=120)
    return done.stdout.decode() if done.returncode == 0 else None


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


class Conn:
    """One JSON-lines connection to the daemon."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def call(self, line):
        """Sends one request line and returns the decoded response."""
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return json.loads(reply)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """A `maestro-cli serve --socket` process. The socket path is relative
    to the working directory, which keeps it under the AF_UNIX length
    limit wherever the checkout lives."""

    def __init__(self, cli, sock_path, trace_path=None):
        self.sock_path = sock_path
        if os.path.exists(sock_path):
            os.remove(sock_path)
        args = [cli, "serve", "--socket", sock_path, "--jobs", "1"]
        if trace_path:
            args += ["--trace", trace_path]
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def connect(self, timeout_s=30.0):
        """Connects once the daemon listens."""
        deadline = time.perf_counter() + timeout_s
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.sock_path)
                sock.settimeout(REPLY_TIMEOUT_S)
                return Conn(sock)
            except OSError:
                sock.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("serve daemon did not come up")
                time.sleep(0.0005)

    def cpu_s(self):
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self):
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self):
        """Asks the daemon to shut down and waits for it; kills it if it
        does not exit in time."""
        if self.proc.poll() is None:
            try:
                conn = self.connect(timeout_s=5.0)
                conn.call(b'{"id":"shutdown","kind":"shutdown"}\n')
                conn.close()
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _tree_digest(root):
    """SHA-256 over the sources that decide the build, so results from a
    checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    skip = {"target", "__pycache__"}
    for top in tops:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in skip and not d.startswith("."))
            files += [os.path.join(base, n) for n in sorted(names)]
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def host_stamp(harness, root):
    """Where a result came from: cores, CPU model, compiler, build profile
    and code. Results from different hosts are never compared."""
    cores = json.loads(subprocess.run([harness, "host"], capture_output=True,
                                      check=True).stdout)["available_parallelism"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "available_parallelism": cores,
        "cpu_model": cpu,
        "rustc": rustc,
        "profile": "release",
        "commit": commit,
        "tree_sha256": _tree_digest(root),
    }

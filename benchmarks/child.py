"""One benchmark process: set up, then run a fixed op list in a closed loop.

Started by ``run.py`` as a fresh interpreter per run, with a job file:

    python3 benchmarks/child.py <job.json>

Modes: ``setup`` imports dyckarea, runs the warm-up ops and reports when it
would have started timing; ``run`` goes on to time every op of the list,
one after the other, checking each op's exit code and output against its
reference; ``trace`` does the same with the tracer installed after the
warm-up. The result is written to the job's result file.

Op and set-up times are CPU seconds of this process, scaled by the speed
probe below; wall times are recorded beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time

import checks
from tracer import Tracer
from workloads import OUT


# On a shared 2-vCPU VM the CPU time of a fixed task drifts by 10-20% from
# second to second and from run to run. A fixed pure-Python loop, timed
# between ops (never inside one) at least every PROBE_EVERY_S of op time,
# measures that drift; each op time is scaled by the probes on either side
# of it to the loop's time on the reference machine, PROBE_NOMINAL_S.
# (Adding big-integer and numpy work to the probe made it swing by 60%
# while the ops moved by 20%, so the probe stays pure Python.)
PROBE_NOMINAL_S = 0.0078
PROBE_EVERY_S = 0.5


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's current speed."""
    start = time.process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.process_time() - start


def normalise(times: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Scale each op time by the probes taken just before and just after it."""
    out = []
    k = 0
    for i, t in enumerate(times):
        while k + 1 < len(probes) and probes[k + 1][0] <= i:
            k += 1
        after = probes[k + 1][1] if k + 1 < len(probes) else probes[k][1]
        out.append(t * PROBE_NOMINAL_S / (0.5 * (probes[k][1] + after)))
    return out


class OpTimeout(BaseException):
    """An op ran past its time budget (BaseException so no handler in the program catches it)."""


class _Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def _versions() -> dict:
    import mpmath
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run_op(cli, argv: list[str], out_path: str, budget: float, alarm: _Alarm):
    """Run one op in-process.

    Returns (cpu seconds, wall seconds, exit code, stdout, stderr, file
    text, error); ``error`` is None, "timeout", or the exception the op
    raised.
    """
    argv = [out_path if a == OUT else a for a in argv]
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    alarm.arm(budget)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # an op's defect is recorded, the run goes on
        error = f"exception {type(exc).__name__}: {exc}"
    finally:
        alarm.disarm()
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - start
    text = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    return cpu, wall, rc, stdout.getvalue(), stderr.getvalue(), text, error


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from dyckarea import cli

    out_path = os.path.join(job["workdir"], "op.out")
    alarm = _Alarm()

    for argv in job["warmup"]:
        _, _, rc, _, err, _, error = run_op(cli, argv, out_path, job["deadline"] - time.monotonic(), alarm)
        if error or rc != 0:
            raise SystemExit(f"warm-up op {argv} failed: rc={rc} {error or err.strip()}")

    setup_cpu = time.process_time()
    t_ready = time.monotonic()
    probe = sorted(speed_probe() for _ in range(3))[1]
    result = {"t_ready": t_ready, "setup_cpu_s": setup_cpu,
              "setup_s": setup_cpu * PROBE_NOMINAL_S / probe, "versions": _versions()}
    if job["mode"] == "setup":
        _write(job["result"], result)
        return 0

    tracer = None
    if job["mode"] == "trace":
        tracer = Tracer()
        tracer.install()  # rebinds cli.main, so the loop below calls the wrapper

    digest = hashlib.sha256()
    latencies, walls, statuses = [], [], []
    probes = [(0, probe)]
    since_probe = 0.0
    for op in job["ops"]:
        remaining = job["deadline"] - time.monotonic()
        if remaining <= 0:
            statuses.append("timeout (run deadline)")
            continue
        budget = min(max(5.0, 10.0 * op["cost_ms"] / 1000.0), remaining)
        root = tracer.open("op." + op["kind"]) if tracer else None
        cpu, wall, rc, stdout, stderr, text, error = run_op(cli, op["argv"], out_path, budget, alarm)
        if tracer:
            tracer.close(root)
        latencies.append(cpu)
        walls.append(wall)
        since_probe += cpu
        if since_probe >= PROBE_EVERY_S:
            probes.append((len(latencies), speed_probe()))
            since_probe = 0.0
        status = "ok"
        if error:
            status = error
        elif rc != op["expect_exit"]:
            status = f"exit {rc} (expected {op['expect_exit']}): {stderr.strip()[:200]}"
        else:
            try:
                fields = checks.parse(op["kind"], stdout, text)
                checks.check(op, fields, job["row_digests"])
                digest.update(" ".join(op["argv"]).encode())
                digest.update(checks.canonical(fields).encode())
            except (checks.CheckError, ValueError, KeyError, StopIteration) as exc:
                status = f"mismatch: {exc}"
        statuses.append(status)

    probes.append((len(latencies), speed_probe()))
    scaled = normalise(latencies, probes)
    result.update(
        latencies=scaled,
        cpu_latencies=latencies,
        wall_latencies=walls,
        probes=probes,
        statuses=statuses,
        digest=digest.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        result["per_layer"] = tracer.metrics(sum(scaled), job["untraced_time"])
        tracer.write_spans(job["spans"])
    _write(job["result"], result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))

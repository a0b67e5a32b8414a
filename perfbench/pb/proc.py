"""Child processes measured from outside: wall time, and CPU time and peak
RSS from the child's own ``rusage`` (``os.wait4``), never the benchmark's."""

import http.client
import json
import os
import subprocess
import threading
import time


class ChildError(RuntimeError):
    pass


class Child:
    """A finished child: exit code, wall seconds, CPU seconds, peak RSS."""

    def __init__(self, code, wall_s, usage, stdout=b"", stderr=b""):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = stdout
        self.stderr = stderr


def _reap(proc, timeout):
    """Block in ``wait4`` for the child (so its wall time carries no polling
    slack); a timer kills it when ``timeout`` seconds pass, and so does any
    exception, SIGTERM included, that interrupts the wait."""
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise ChildError(f"{proc.args[0]} timed out after {timeout:.0f} s")
    return proc.returncode, usage


def run(argv, cwd, env, timeout=170):
    """Run ``argv`` to completion; stdout and stderr go to files under
    ``cwd`` so a chatty child can never block on a full pipe."""
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        code, usage = _reap(proc, timeout)
        wall = time.perf_counter() - start
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    os.remove(out_path)
    os.remove(err_path)
    return Child(code, wall, usage, stdout, stderr)


def checked(argv, cwd, env, timeout=170):
    child = run(argv, cwd, env, timeout)
    if child.code != 0:
        tail = child.stderr.decode(errors="replace")[-2000:]
        raise ChildError(f"{os.path.basename(argv[0])} exited {child.code}: {tail}")
    return child


def http_json(addr, method, path, timeout=10):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


class Daemon:
    """``airfedga-serve`` on a fresh root. ``start_s`` is spawn → first OK
    ``GET /healthz``; ``stop()`` shuts it down and returns its rusage."""

    def __init__(self, binary, root, env, timeout=30):
        os.makedirs(root)
        self.root = root
        self._log = open(os.path.join(root, "daemon.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--root", root], cwd=root, env=env, stdout=self._log, stderr=self._log
        )
        try:
            self.addr = self._wait_healthy(start + timeout)
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - start

    def _wait_healthy(self, deadline):
        addr_file = os.path.join(self.root, "serve.addr")
        addr = None
        while True:
            if self.proc.poll() is not None:
                raise ChildError(f"airfedga-serve exited {self.proc.returncode} at start-up")
            if time.perf_counter() > deadline:
                raise ChildError("airfedga-serve did not become healthy")
            if addr is None and os.path.exists(addr_file):
                with open(addr_file) as f:
                    addr = f.read().strip() or None
            if addr is not None:
                try:
                    status, body = http_json(addr, "GET", "/healthz", timeout=1)
                    if status == 200 and body.get("status") == "ok":
                        return addr
                except OSError:
                    pass
            time.sleep(0.0005)

    def stop(self, timeout=60):
        try:
            http_json(self.addr, "POST", "/shutdown")
        except OSError:
            pass
        start = time.perf_counter()
        try:
            code, usage = _reap(self.proc, timeout)
        finally:
            self._log.close()
        child = Child(code, time.perf_counter() - start, usage)
        if code != 0:
            raise ChildError(f"airfedga-serve exited {code} on shutdown")
        return child

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()

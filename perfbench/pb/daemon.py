"""The daemon path: spawn `mudsprof serve`, time its recovery, and drive it
with an open-loop, seeded schedule over at most two keep-alive
connections."""

import json
import signal
import subprocess
import threading
import time

from . import http
from .http import now
from .stats import MIN_BEYOND

WORKERS = 2
# Read mix of every workload: half of the reads name MUDS, the daemon's
# default algorithm, and the other half spread evenly over the other three.
ALGORITHMS = {"muds": 3, "hfun": 1, "tane": 1, "baseline": 1}
# Writes per window, the same for every seed. Uploads are the fewest
# samples with a reportable median (MIN_BEYOND beyond it). Deltas are the
# fewest that outnumber them, half appends and half deletes, so uploads
# stay the minority of writes. Every write costs the daemon a recompute
# per algorithm, so these minimal counts also keep the misses from
# crowding the hits off two connections.
UPLOADS = 2 * MIN_BEYOND
APPENDS = DELETES = UPLOADS // 2 + 1
# A write leaves one stale result per algorithm, so it causes up to that
# many misses. Reads per write are set so that HIT_RATIO of all reads are
# hits.
HIT_RATIO = 0.9
READS_PER_WRITE = round(len(ALGORITHMS) / (1 - HIT_RATIO))


class Daemon:
    """One `mudsprof serve --workers 2 --data-dir DIR` process."""

    def __init__(self, mudsprof, data_dir, log_path):
        self.log_path = log_path
        self.t_spawn = now()
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [mudsprof, "serve", "--addr", "127.0.0.1:0", "--workers", str(WORKERS), "--data-dir", data_dir],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=self.log,
        )
        self.port = None

    def wait_ready(self, names, deadline_s=60.0):
        """Seconds from spawn until /healthz answers and GET /datasets lists
        every name in `names`."""
        limit = self.t_spawn + deadline_s
        while self.port is None:
            with open(self.log_path, "rb") as f:
                # Complete lines only: the daemon may be mid-write.
                for line in f.read().decode("utf-8", "replace").split("\n")[:-1]:
                    if "listening on http://" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port is None:
                self._check_alive(limit)
                time.sleep(0.001)
        while True:
            try:
                if http.call(self.port, "GET", "/healthz").status == 200:
                    listed = json.loads(http.call(self.port, "GET", "/datasets").body)
                    if set(names) <= {d["name"] for d in listed["datasets"]}:
                        return now() - self.t_spawn
            except OSError:
                pass
            self._check_alive(limit)
            time.sleep(0.001)

    def _check_alive(self, limit):
        if self.proc.poll() is not None:
            raise RuntimeError("daemon exited early with code %s" % self.proc.returncode)
        if now() > limit:
            raise RuntimeError("daemon not ready in time")

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def metrics(self):
        return json.loads(http.call(self.port, "GET", "/metrics").body)

    def stop(self):
        """SIGTERM, then wait for the drain; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Op:
    """One scheduled request. `dataset` orders it against the other ops on
    the same dataset (see Dispatcher)."""

    __slots__ = ("due", "kind", "dataset", "algo", "method", "path", "body", "headers", "seq", "payload", "version")

    def __init__(self, due, kind, dataset, method, path, body, headers=(), algo=None, payload=None):
        self.due, self.kind, self.dataset, self.algo = due, kind, dataset, algo
        self.method, self.path, self.body, self.headers = method, path, body, headers
        self.payload = payload  # client-side record of a delta or upload
        self.seq = 0
        self.version = 0  # the dataset's content version this op reads or creates


class Dispatcher:
    """Hands the schedule's ops to the sending threads, keeping per-dataset
    read/write order: a read waits for the writes scheduled before it, and
    a write for everything scheduled before it, on the same dataset. Reads
    of one dataset overlap freely. A free thread takes the earliest due op
    that this order allows, so an op that has to wait never holds a
    connection idle while later ops on other datasets are due. This keeps
    every response attributable to one dataset version while the arrival
    schedule stays open-loop."""

    def __init__(self, ops, t0):
        self.ops, self.t0 = ops, t0
        self.cv = threading.Condition()
        self.waiting = list(range(len(ops)))  # not yet taken, in schedule order
        self.done = set()  # (dataset, seq) of finished ops
        self.first_open = {}  # dataset -> lowest seq not finished
        self.writes = {}  # dataset -> seqs of its writes, ascending
        self.first_write = {}  # dataset -> index into writes[d] of the first unfinished write
        for op in ops:
            if op.kind != "read":
                self.writes.setdefault(op.dataset, []).append(op.seq)

    def allowed(self, op):
        d = op.dataset
        if op.kind != "read":
            return self.first_open.get(d, 0) == op.seq
        writes, k = self.writes.get(d, ()), self.first_write.get(d, 0)
        return k == len(writes) or writes[k] > op.seq

    def take(self):
        """The next op to send, at or after its due time; None when the
        schedule is exhausted."""
        with self.cv:
            while self.waiting:
                t = now() - self.t0
                next_due = None
                for pos, i in enumerate(self.waiting):
                    op = self.ops[i]
                    if op.due > t:
                        next_due = op.due
                        break
                    if self.allowed(op):
                        del self.waiting[pos]
                        return op
                self.cv.wait(None if next_due is None else next_due - t)
            return None

    def finish(self, op):
        with self.cv:
            d = op.dataset
            self.done.add((d, op.seq))
            k = self.first_open.get(d, 0)
            while (d, k) in self.done:
                k += 1
            self.first_open[d] = k
            writes, w = self.writes.get(d, ()), self.first_write.get(d, 0)
            while w < len(writes) and (d, writes[w]) in self.done:
                w += 1
            self.first_write[d] = w
            self.cv.notify_all()


def number_ops(ops):
    seqs = {}
    for op in ops:
        op.seq = seqs.get(op.dataset, 0)
        seqs[op.dataset] = op.seq + 1


def run_open_loop(port, ops, on_response, connections=WORKERS):
    """Sends `ops` at their due times (seconds from start) over
    `connections` pooled keep-alive connections (see Dispatcher).
    `on_response(op, response, t0)` runs on the sending thread. Returns the
    start time t0."""
    number_ops(ops)
    t0 = now() + 0.05
    dispatch = Dispatcher(ops, t0)
    errors = []

    def worker():
        conn = http.Conn(port)
        try:
            while True:
                op = dispatch.take()
                if op is None:
                    return
                try:
                    try:
                        resp = conn.request(op.method, op.path, op.body, op.headers)
                    except OSError as e:
                        conn.close()
                        resp = http.Response()
                        resp.status, resp.body = 0, str(e).encode()
                        resp.t_start = resp.t_sent = resp.t_first = resp.t_last = now()
                    # Before finish(): the next write on this dataset must
                    # see this op's bookkeeping.
                    on_response(op, resp, t0)
                finally:
                    dispatch.finish(op)
        except BaseException as e:  # surfaced to the caller below
            errors.append(e)
            # Wake the other thread: it may wait on an op of this one.
            with dispatch.cv:
                dispatch.waiting.clear()
                dispatch.cv.notify_all()
        finally:
            conn.close()

    # Daemon threads: an interrupted run must not wait out the schedule.
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return t0


def split_ops(ops, parts):
    """Cuts a schedule into `parts` consecutive pieces of equal window
    length, each rebased to start at due time 0, so the window can be spent
    in stretches with other work between them. Each piece runs after the
    one before it has finished, so per-dataset order holds across the cuts
    and the schedule's predicted hits and misses still apply."""
    window = ops[-1].due
    pieces = [[] for _ in range(parts)]
    for op in ops:
        pieces[min(int(parts * op.due / window), parts - 1)].append(op)
    for k, piece in enumerate(pieces):
        for op in piece:
            op.due -= k * window / parts
    return pieces


def csv_body(header, rows):
    return (header + "\n" + "".join(r + "\n" for r in rows)).encode()


def profile_op(due, dataset, algo):
    body = json.dumps({"dataset": dataset, "algorithm": algo}).encode()
    return Op(due, "read", dataset, "POST", "/profile", body, (("Content-Type", "application/json"),), algo)


def apportion(count, weights):
    """`count` items over len(weights) targets in proportion to the weights
    (largest remainders), as a list of target indices."""
    exact = [count * w / sum(weights) for w in weights]
    share = [int(x) for x in exact]
    by_rest = sorted(range(len(weights)), key=lambda i: exact[i] - share[i], reverse=True)
    for i in by_rest[:count - sum(share)]:
        share[i] += 1
    return [i for i, k in enumerate(share) for _ in range(k)]


def make_schedule(rng, datasets, spec, seconds):
    """The daemon traffic of one run: a pure function of the seeded `rng`,
    the workload `spec` and the window length.

    `datasets` maps name -> (header, base rows, pool rows), in the order of
    a Zipf skew (weight 1/rank) that both reads and writes follow: the
    datasets read most are the ones changed most. Writes are stratified:
    every seed has the same appends and deletes per dataset and the same
    upload sizes; the seed orders and places them and picks the rows. A
    read picks a dataset by the skew and an algorithm by ALGORITHMS. It is
    a miss when a write has made that result stale since it was last read,
    else a hit. A fresh upload is profiled right away with the default
    algorithm: the next read is its first read, a miss. Arrivals are
    Poisson over the window. Returns (ops, predicted), the hits and misses
    per algorithm that the daemon must report."""
    names = list(datasets)
    algos, algo_w = zip(*ALGORITHMS.items())
    zipf = [1.0 / (rank + 1) for rank in range(len(names))]
    writes = [("append", names[i]) for i in apportion(APPENDS, zipf)]
    writes += [("delete", names[i]) for i in apportion(DELETES, zipf)]
    # Uploads: fresh content, each a seeded strict row subset of the
    # hottest dataset, all of one size (two fifths of its rows), so their
    # registrations differ only in their rows.
    hottest = names[0]
    size = 2 * len(datasets[hottest][1]) // 5
    writes += [("register", (hottest, size))] * UPLOADS
    # One write per block of READS_PER_WRITE + 1 ops, at a seeded place in
    # it: writes never bunch up, so neither do the misses they cause.
    rng.shuffle(writes)
    slots = []
    for w in writes:
        block = [None] * READS_PER_WRITE
        block.insert(rng.randrange(READS_PER_WRITE + 1), w)
        slots += block
    rate = len(slots) / seconds
    rows = {d: len(datasets[d][1]) for d in names}
    pool_next = {d: 0 for d in names}
    version = {}
    stale = {d: set() for d in names}  # results a write made stale, until read
    pending = []  # (upload, algorithm) first reads owed after an upload
    uploads = []
    ops = []
    predicted = {a: {"hit": 0, "miss": 0} for a in algos}
    due = [0.0]

    def emit(op):
        due[0] += rng.expovariate(rate)
        op.due = due[0]
        op.version = version.get(op.dataset, 0)
        ops.append(op)

    def read(d, algo, miss):
        predicted[algo]["miss" if miss else "hit"] += 1
        emit(profile_op(0, d, algo))

    def write(d):
        version[d] = version.get(d, 0) + 1
        stale[d] = set(algos)

    for slot in slots:
        if slot is None:
            if pending:
                read(*pending.pop(0), miss=True)
            else:
                d, algo = rng.choices(names, zipf)[0], rng.choices(algos, algo_w)[0]
                read(d, algo, algo in stale[d])
                stale[d].discard(algo)
            continue
        kind, target = slot
        if kind == "append":
            d, take = target, spec["delta_rows"]
            new = datasets[d][2][pool_next[d]:pool_next[d] + take]
            if len(new) < take:
                raise ValueError("append pool of %s exhausted" % d)
            pool_next[d] += take
            rows[d] += take
            write(d)
            emit(Op(0, "append", d, "POST", "/datasets/%s/append" % d,
                    csv_body(datasets[d][0], new), (("Content-Type", "text/csv"),), payload=new))
        elif kind == "delete":
            d = target
            ids = sorted(rng.sample(range(rows[d]), spec["delta_rows"]))
            rows[d] -= len(ids)
            write(d)
            emit(Op(0, "delete", d, "POST", "/datasets/%s/delete" % d,
                    json.dumps({"rows": ids}).encode(), (("Content-Type", "application/json"),),
                    payload=ids))
        else:
            src, size = target
            base = datasets[src][1]
            sample = [base[i] for i in sorted(rng.sample(range(len(base)), size))]
            d = "up%d" % len(uploads)
            uploads.append(d)
            pending.append((d, "muds"))
            emit(Op(0, "register", d, "POST", "/datasets?name=%s" % d,
                    csv_body(datasets[src][0], sample), (("Content-Type", "text/csv"),),
                    payload=(datasets[src][0], sample)))
    while pending:
        read(*pending.pop(0), miss=True)
    return ops, predicted

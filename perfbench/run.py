"""Falcon benchmark: online and offline latency of secure inference and SGD.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py): infer-c, train-a-mal, infer-b-tcp-dist.
One client drives the three party threads (the system under test) in a
closed loop, one request outstanding at a time. A request is one secure
inference of a batch, ending when the logits are opened, or one secure SGD
iteration. It runs in two phases: an offline phase generates its
preprocessing material through `prep.RecordingPrep`, and an online phase
replays that material from memory. Every output is checked bit for bit
against the plaintext fixed-point twin (`falcon.oracle`); a request that
raises or differs counts as failed.

--trace 0 prints the end-to-end metrics, per request on party 1:
  online_s     median online latency
  items_per_s  images (or training samples) per second of online time
  offline_s    median time spent inside the preprocessing calls
  setup_s      median of three set-ups: sessions, links, handshake, model
               sharing and one warm-up request
  rounds, wire_bytes, acct_bytes   online rounds and bytes sent per party
  peak_rss_mb  median over requests of the process's peak resident set
and, as text only, offline_rounds and failed_ratio (warm-ups included).

--trace 1 measures the first half of the run untraced and the second half
with spans around the calls into each falcon module (perfbench/tracing.py),
prints the per-layer metrics, the table10 comparison and trace.overhead_s,
and writes all spans to perfbench/out/. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3          # set-up is repeated and its median reported
MIN_REQUESTS = 3    # per measured half, whatever --seconds says


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "falcon" / "__init__.py").is_file():
        print(f"error: no falcon sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0


class Run:
    def __init__(self, wl, seed: int, seconds: float, trace: bool):
        from runtime import RequestFailed
        from workloads import Inputs

        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs = Inputs(wl, seed)
        self.RequestFailed = RequestFailed
        self.tracer = None
        self.cluster = None
        self.next_id = 0
        self.setup_s: list[float] = []
        self.samples: list[dict] = []     # one per completed request
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True             # tracer self-checks (trace runs)
        self.notes: list[str] = []

    def _request_id(self) -> int:
        self.next_id += 1
        return self.next_id

    # -- phases of a run ----------------------------------------------------------

    def execute(self) -> dict:
        try:
            self._set_up()
            self._loop(self.cluster)
            self._check_training(self.cluster)
        except self.RequestFailed as exc:
            self.failed += 1
            self.attempted = max(self.attempted, self.failed)
            self.notes.append(f"request failed: {exc}")
        finally:
            if self.cluster is not None:
                self.cluster.close()
            if self.tracer is not None:
                self.tracer.uninstall()
        return self._report()

    def _set_up(self):
        from runtime import Cluster, clear_dealer_memo
        from workloads import logits_match

        for _ in range(SETUPS):
            if self.cluster is not None:
                self.cluster.close()
                self.cluster = None
            t0 = time.perf_counter()
            self.cluster = Cluster(self.inputs)
            req = self._request_id()
            payload = self.cluster.payload(req)
            self.attempted += 1
            out = self.cluster.call("learn", req, payload)
            self.setup_s.append(time.perf_counter() - t0)
            clear_dealer_memo()
            if not self.wl.train and not logits_match(self.inputs, payload, out[0]):
                raise self.RequestFailed("warm-up logits differ from the fixed-point twin")

    def _loop(self, cluster):
        from workloads import logits_match

        start = time.perf_counter()
        half = start + self.seconds / 2
        end = start + self.seconds
        outputs = []
        rss = RssPeak()
        try:
            self._requests(cluster, rss, half, end, outputs)
        finally:
            rss.close()
        for payload, logits in outputs:
            if not logits_match(self.inputs, payload, logits):
                self.failed += 1

    def _requests(self, cluster, rss, half, end, outputs):
        from runtime import clear_dealer_memo
        from tracing import Tracer

        while True:
            now = time.perf_counter()
            traced = [s for s in self.samples if s["traced"]]
            if self.trace and self.tracer is None and now >= half and len(self.samples) >= MIN_REQUESTS:
                self.tracer = cluster.tracer = Tracer()
                self.tracer.install()
            done = len(traced) if self.trace else len(self.samples)
            if now >= end and done >= MIN_REQUESTS and (self.tracer or not self.trace):
                break
            req = self._request_id()
            payload = cluster.payload(req)
            self.attempted += 1
            rss.begin()
            off = cluster.call("offline", req, payload)
            clear_dealer_memo()
            on = cluster.call("online", req, payload)
            self.samples.append({"request": req, "traced": self.tracer is not None,
                                 "offline": off, "online": on, "rss_mb": rss.peak_mb()})
            if not self.wl.train:
                outputs.append((payload, on[0]["output"]))

    def _check_training(self, cluster):
        from workloads import weights_match

        if not self.wl.train:
            return
        weights = cluster.call("open_params")[0]
        if not weights_match(self.inputs, cluster.schedule.iterations, weights):
            self.notes.append("trained weights differ from the fixed-point twin")
            self.failed = self.attempted  # the whole SGD run is wrong

    # -- reporting ------------------------------------------------------------------

    def _report(self) -> dict:
        wl = self.wl
        metrics: dict = {}
        print(f"workload {wl.name} (network {wl.net}, batch {wl.batch}, {wl.threat.value}, "
              f"{wl.backend} backend, {wl.prep} prep), seed {self.seed}")
        lines = []
        untraced = [s for s in self.samples if not s["traced"]]
        if self.samples and not self.trace:
            metrics = self._end_to_end(untraced)
            lines += [f"  {k:<12} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
            p1 = [s["offline"][0]["offline_rounds"] for s in untraced]
            lines.append(f"  offline_rounds {statistics.median(p1):g} (median)")
            lines.append(f"  requests {len(untraced)}, online_s each: "
                         + " ".join(f"{v:.4f}" for v in _online(untraced)))
        elif any(s["traced"] for s in self.samples):
            metrics = self._per_layer(untraced, [s for s in self.samples if s["traced"]])
        ratio = self.failed / self.attempted
        lines.append(f"  failed_ratio {ratio:.4g} ({self.failed} of {self.attempted} requests)")
        lines += [f"  note: {n}" for n in self.notes]
        for line in lines:
            print(line)
        correct = self.failed == 0 and self.checks_ok
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def _end_to_end(self, samples: list) -> dict:
        online = statistics.median(_online(samples))

        def med(phase, key):
            return statistics.median(s[phase][0][key] for s in samples)

        values = {
            "online_s": online,
            "items_per_s": self.wl.batch / online,
            "offline_s": med("offline", "offline_s"),
            "setup_s": statistics.median(self.setup_s),
            "rounds": med("online", "rounds"),
            "wire_bytes": med("online", "wire_bytes"),
            "acct_bytes": med("online", "acct_bits") / 8,
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        }
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in self.spec["end_to_end"]}

    def _per_layer(self, untraced: list, traced: list) -> dict:
        from tracing import RequestSpans, layer_metrics, root_sums, table10_report

        by_key: dict = {}
        for span in self.tracer.spans:
            by_key.setdefault((span.request, span.party), []).append(span)
        per_request, reports, sums = [], [], []
        for s in traced:
            for party in (1, 2, 3):
                rs = RequestSpans(by_key.get((s["request"], party), []))
                off, on = s["offline"][party - 1], s["online"][party - 1]
                meter = {k: off[k] + on[k] for k in ("rounds", "messages", "wire_bytes")}
                spans_total = root_sums(rs)
                sums.append({"request": s["request"], "party": party,
                             "meter": meter, "spans": spans_total})
                if spans_total != meter:
                    self.checks_ok = False
                    self.notes.append(f"request {s['request']} party {party}: root spans "
                                      f"{spans_total} != meter {meter}")
                if party == 1:
                    m = layer_metrics(rs, on["messages"])
                    m["offline_rounds"] = off["offline_rounds"]
                    per_request.append(m)
                    reports.append(table10_report(rs))
        metrics = {k: _median_or_none([m[k] for m in per_request]) for k in per_request[0]}
        metrics["trace.overhead_s"] = (statistics.median(_online(traced))
                                       - statistics.median(_online(untraced)))
        self._print_layers(metrics, reports[-1])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{self.wl.name}-seed{self.seed}.json"
        self.tracer.dump(str(path), {"workload": self.wl.name, "seed": self.seed,
                                     "per_layer": metrics, "table10": reports,
                                     "root_sums": sums})
        print(f"  spans written to {path.relative_to(ROOT)}")
        return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in self.spec["per_layer"]}

    def _print_layers(self, metrics: dict, table10: dict):
        for k, v in metrics.items():
            print(f"  {k:<40} {'-' if v is None else format(v, '.6g')} {_unit(k)}")
        for name, r in table10.items():
            print(f"  table10 {name:<8} rounds {r['rounds']} vs {r['pred_rounds']} "
                  f"({r['rounds_ratio']:.3f}x), acct bytes {r['acct_bytes']:.0f} vs "
                  f"{r['pred_bytes']} ({r['bytes_ratio']:.3f}x) over {r['calls']} calls")


class RssPeak:
    """Peak resident set of this process over one request, sampled every
    few milliseconds. begin() first hands freed heap pages back to the OS
    (glibc malloc_trim), so each request's peak starts from live memory
    rather than from whatever the allocator kept after earlier requests."""

    INTERVAL = 0.02  # seconds between samples

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self._page

    def _run(self):
        while not self._stop.wait(self.INTERVAL):
            rss = self._rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def begin(self):
        if self._trim is not None:
            self._trim(0)
        with self._lock:
            self._peak = self._rss()

    def peak_mb(self) -> float:
        rss = self._rss()
        with self._lock:
            return max(self._peak, rss) / 2**20

    def close(self):
        self._stop.set()
        self._thread.join()


def _online(samples: list) -> list:
    return [s["online"][0]["online_s"] for s in samples]


def _median_or_none(values: list):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

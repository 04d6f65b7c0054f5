"""Alternating parent/change pairs of `perfbench/run.py`, summarised as JSON.

    python3 tools/bench_pairs.py --parent REF [--change REF] --out BENCH_<sha>.json

Each ref's committed files are extracted (`git archive`) into a fresh
directory, as the benchmark runs them, so neither side sees the working
tree, build leftovers or the other's `perfbench/`. For every workload of
BENCHMARK.json, pair k of PAIRS runs both sides once under FIRST_SEED + k
for the benchmark's `run_seconds`, the side that starts alternating from
pair to pair, one run at a time. The JSON holds, per workload and side, the
median and quartiles of every end-to-end metric, the runs' and requests'
failure counts with each failed run's stderr tail, and per pair every
end-to-end metric of both sides. Per metric, `verdicts` counts the pairs
the change wins in the metric's better direction (ties count for neither
side) and reads the gain rule: a gain only when the change wins at least
nine tenths of the pairs run and its median beats the parent's by more
than the parent's quartile spread. One
`--trace 1` run of TRACE_WORKLOAD per side adds the per-layer metrics of
TRACE_KEYS and the table10 lines. The host's core count and numpy version
are recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_KEYS = ("rss.prf_draw.s", "protocols.private_compare.self_s", "protocols.mult.self_s",
              "rings.zl_arith.s", "protocols.matmul.s", "rss.deserialize_elems.s")
TRACE_WORKLOAD = "infer-c"
PAIRS = 10
FIRST_SEED = 300
STDERR_TAIL = 2048  # characters of a failed run's stderr kept in the report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the baseline")
    ap.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(ref: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run: its closing JSON object, plus its table10 lines;
    a run that exits nonzero or prints no JSON is {"error": ...}. A run
    that reports failed requests or no metrics keeps its notes and the
    last STDERR_TAIL characters of its stderr as "cause"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line.strip() for line in proc.stdout.strip().splitlines()]
    stderr = proc.stderr.strip()[-STDERR_TAIL:]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {stderr}"}
    result["table10"] = [line for line in lines if line.startswith("table10 ")]
    if result["failed"] or not result["metrics"]:
        result["cause"] = "\n".join([line for line in lines if line.startswith("note: ")] + [stderr])
    return result


def quartiles(values: list) -> list:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [round(q[0], 6), round(q[2], 6)]


def summarise(runs: list) -> dict:
    done = [r for r in runs if "error" not in r and r["metrics"]]
    names = list(done[0]["metrics"]) if done else []
    values = {k: [r["metrics"][k]["value"] for r in done] for k in names}
    return {
        "runs": len(runs),
        "failed_runs": len(runs) - len(done),
        "incorrect_runs": sum(not r["correct"] for r in done),
        "failed_requests": sum(r["failed"] for r in done),
        "attempted_requests": sum(r["attempted"] for r in done),
        "median": {k: round(statistics.median(v), 6) for k, v in values.items()},
        "quartiles": {k: quartiles(v) for k, v in values.items()},
        "errors": [r.get("error") or f"failed {r['failed']} of {r['attempted']} requests: {r['cause']}"
                   for r in runs if "error" in r or "cause" in r],
    }


def values(run: dict) -> dict:
    """Every metric of a finished run, {} for a failed one."""
    return {k: round(v["value"], 6) for k, v in run.get("metrics", {}).items()}


def verdict(pairs: list, parent: dict, change: dict, name: str, better: str) -> dict:
    """Pair wins of the change in metric `name` and whether they and the
    medians make a gain: wins in at least nine tenths of all pairs run (a
    failed run wins nothing), and a median gap, taken in the better
    direction, above the parent's quartile spread."""
    sign = 1 if better == "lower" else -1
    both = [(p["parent"][name], p["change"][name]) for p in pairs
            if name in p["parent"] and name in p["change"]]
    wins = sum(sign * (a - b) > 0 for a, b in both)
    losses = sum(sign * (a - b) < 0 for a, b in both)
    out = {"better": better, "wins": wins, "losses": losses, "pairs": len(pairs), "gain": False}
    if name in parent["median"] and name in change["median"]:
        gap = sign * (parent["median"][name] - change["median"][name])
        q1, q3 = parent["quartiles"][name]
        out.update(median_gap=round(gap, 6), parent_quartile_spread=round(q3 - q1, 6),
                   gain=wins * 10 >= 9 * len(pairs) and gap > q3 - q1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    refs = {"parent": args.parent, "change": args.change}
    shas = {side: git("rev-parse", "--short", ref) for side, ref in refs.items()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: extract(ref, scratch / side) for side, ref in refs.items()}
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True, check=True).stdout.strip()
        report = {
            "commit": shas["change"], "parent": shas["parent"],
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                       " --trace 0",
            "host": {"cores": os.cpu_count(), "numpy": numpy_version},
            "workloads": {},
        }
        for w in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            pairs = []
            for k in range(PAIRS):
                seed = FIRST_SEED + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], w, seed, seconds, False))
                    print(f"{w} pair {k + 1}/{PAIRS} seed {seed} {side}: "
                          f"online_s {values(runs[side][-1]).get('online_s')}",
                          file=sys.stderr, flush=True)
                pairs.append({"seed": seed, "first": order[0],
                              **{side: values(runs[side][-1]) for side in order}})
            sides = {side: summarise(r) for side, r in runs.items()}
            report["workloads"][w] = {
                **sides,
                "verdicts": {m["name"]: verdict(pairs, sides["parent"], sides["change"],
                                                m["name"], m["better"])
                             for m in bench["end_to_end"]},
                "pairs": pairs,
            }
        traced = {}
        for side in ("parent", "change"):
            r = run_once(trees[side], TRACE_WORKLOAD, FIRST_SEED, seconds, True)
            traced[side] = r if "error" in r else {
                "correct": r["correct"],
                **{k: r["metrics"].get(k, {}).get("value") for k in TRACE_KEYS},
                "table10": r["table10"],
            }
        traced["table10_unchanged"] = (traced["parent"].get("table10")
                                       == traced["change"].get("table10"))
        report[f"traced_{TRACE_WORKLOAD}_seed{FIRST_SEED}_party1"] = traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

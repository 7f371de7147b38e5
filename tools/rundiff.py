#!/usr/bin/env python3
"""Explain why run B is slower (or faster) than run A.

Consumes two critical-path attribution reports — either the standalone
bench output ({"label": ..., "critical_path": {...}}), a full
_report.json (top-level "critical_path" key), or a bare critical-path
object — and diffs them hierarchically along the cause tree:

  wall time
    +- cause classes (startup, compute, comm.collective.*, comm.p2p.*,
    |    wait.straggler, bubble.pipeline) — a partition of the wall,
    |    so cause deltas sum to the wall delta up to attribution noise
    +- per-device path attribution (which GPU the path ran through)
    +- throttle annotation (thermal / power_cap / fault elongation,
         cross-cutting: also broken down per device)

The headline is a one-line explanation naming the dominant regression
cause and the dominant device, e.g.:

  run B is 12.3% slower than run A: wait.straggler +41.2 ms/iter
  (78% of the regression); dominant device GPU27 (+39.0 ms/iter,
  power_cap throttle +38.5 ms)

Usage:
  rundiff.py A.json B.json [--json OUT] [--threshold 0.01]
             [--expect-null] [--top N]

--expect-null inverts the gate: exit 1 unless the two runs are
equivalent within the threshold (on a double-run pair, a non-null
diff means nondeterminism). The comparison uses mean
(measured-iteration) attribution; folded runs diff like any other as
long as both sides fold identically (a folded/unfolded mix is
refused — the representative walls are not comparable).

Exit status: 0 verdict matches expectation, 1 it does not,
2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys

CAUSE_CLASSES = (
    "startup",
    "compute",
    "comm.collective.scaleup",
    "comm.collective.internode",
    "comm.p2p.scaleup",
    "comm.p2p.internode",
    "wait.straggler",
    "bubble.pipeline",
)
THROTTLE_SLOTS = ("thermal", "power_cap", "fault")


def die(msg: str) -> None:
    print(f"rundiff: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> tuple[str, dict]:
    """Return (label, critical_path object) from any accepted shape."""
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        die(f"{path}: top level is not an object")
    label = path
    if isinstance(doc.get("label"), str):
        label = doc["label"]
    elif isinstance(doc.get("summary"), dict) and isinstance(
            doc["summary"].get("label"), str):
        label = doc["summary"]["label"]
    cp = doc.get("critical_path", doc)
    if not isinstance(cp, dict) or "mean" not in cp:
        die(f"{path}: no critical-path report (want a 'critical_path' "
            "object with a 'mean' attribution)")
    return label, cp


def mean_of(cp: dict) -> dict:
    mean = cp.get("mean")
    if not isinstance(mean, dict) or "wall_s" not in mean:
        die("critical-path report has no mean attribution")
    return mean


def device_map(mean: dict, key: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for entry in mean.get("devices", []):
        out[int(entry["gpu"])] = float(entry.get(key, 0.0))
    return out


def fmt_s(seconds: float) -> str:
    a = abs(seconds)
    if a >= 1.0:
        return f"{seconds:+.3f} s"
    if a >= 1e-3:
        return f"{seconds * 1e3:+.2f} ms"
    return f"{seconds * 1e6:+.1f} us"


def diff(a_label: str, a: dict, b_label: str, b: dict,
         threshold: float, top: int) -> dict:
    if bool(a.get("folded")) != bool(b.get("folded")) or int(
            a.get("multiplicity", 1)) != int(b.get("multiplicity", 1)):
        die("refusing to diff a folded run against an unfolded one "
            f"(A: folded={a.get('folded')} x{a.get('multiplicity')}, "
            f"B: folded={b.get('folded')} x{b.get('multiplicity')}): "
            "representative iteration walls are not comparable")

    am, bm = mean_of(a), mean_of(b)
    wall_a, wall_b = float(am["wall_s"]), float(bm["wall_s"])
    delta = wall_b - wall_a
    ref = max(wall_a, wall_b, 1e-12)
    rel = delta / ref

    causes = {}
    for name in CAUSE_CLASSES:
        ca = float(am.get("causes", {}).get(name, 0.0))
        cb = float(bm.get("causes", {}).get(name, 0.0))
        causes[name] = {
            "a_s": ca,
            "b_s": cb,
            "delta_s": cb - ca,
            "share_of_regression":
                (cb - ca) / delta if abs(delta) > 1e-12 else 0.0,
        }

    throttle = {}
    for slot in THROTTLE_SLOTS:
        ta = float(am.get("throttle", {}).get(slot, 0.0))
        tb = float(bm.get("throttle", {}).get(slot, 0.0))
        throttle[slot] = {"a_s": ta, "b_s": tb, "delta_s": tb - ta}

    dev_a = device_map(am, "path_s")
    dev_b = device_map(bm, "path_s")
    devices = []
    for dev in sorted(set(dev_a) | set(dev_b)):
        entry = {
            "gpu": dev,
            "a_s": dev_a.get(dev, 0.0),
            "b_s": dev_b.get(dev, 0.0),
            "delta_s": dev_b.get(dev, 0.0) - dev_a.get(dev, 0.0),
        }
        for slot in THROTTLE_SLOTS:
            key = f"throttle_{slot}_s"
            entry[f"throttle_{slot}_delta_s"] = (
                device_map(bm, key).get(dev, 0.0)
                - device_map(am, key).get(dev, 0.0))
        devices.append(entry)
    devices.sort(key=lambda e: (-abs(e["delta_s"]), e["gpu"]))
    devices = devices[:top]

    # Null verdict: the walls agree AND no cause class moved by more
    # than threshold * wall. Cause classes partition the wall, so this
    # also bounds internal attribution churn between equal-wall runs.
    null_diff = abs(rel) <= threshold and all(
        abs(c["delta_s"]) <= threshold * ref
        for c in causes.values())

    dominant_cause = max(
        CAUSE_CLASSES,
        key=lambda n: (causes[n]["delta_s"]
                       if delta >= 0.0 else -causes[n]["delta_s"]))
    dominant_device = None
    if devices and abs(devices[0]["delta_s"]) > 0.0:
        dominant_device = devices[0]["gpu"]

    if null_diff:
        explanation = (
            f"runs are equivalent within {threshold * 100.0:.1f}% "
            f"(wall {wall_a:.6f}s vs {wall_b:.6f}s)")
    else:
        direction = "slower" if delta > 0.0 else "faster"
        dc = causes[dominant_cause]
        explanation = (
            f"run B is {abs(rel) * 100.0:.1f}% {direction} than run A: "
            f"{dominant_cause} {fmt_s(dc['delta_s'])}/iter "
            f"({abs(dc['share_of_regression']) * 100.0:.0f}% of the "
            f"{'regression' if delta > 0 else 'improvement'})")
        if dominant_device is not None:
            dd = devices[0]
            explanation += (f"; dominant device GPU{dd['gpu']} "
                            f"({fmt_s(dd['delta_s'])}/iter")
            worst_slot = max(
                THROTTLE_SLOTS,
                key=lambda s: abs(dd[f"throttle_{s}_delta_s"]))
            worst = dd[f"throttle_{worst_slot}_delta_s"]
            if abs(worst) > threshold * ref:
                explanation += (f", {worst_slot} throttle "
                                f"{fmt_s(worst)}")
            explanation += ")"

    return {
        "a": a_label,
        "b": b_label,
        "wall_a_s": wall_a,
        "wall_b_s": wall_b,
        "wall_delta_s": delta,
        "wall_delta_rel": rel,
        "threshold": threshold,
        "null_diff": null_diff,
        "dominant_cause": None if null_diff else dominant_cause,
        "dominant_device": None if null_diff else dominant_device,
        "causes": causes,
        "throttle": throttle,
        "devices": devices,
        "explanation": explanation,
    }


def print_report(result: dict) -> None:
    print(f"rundiff: A = {result['a']}")
    print(f"rundiff: B = {result['b']}")
    print(f"  wall: {result['wall_a_s']:.6f}s -> "
          f"{result['wall_b_s']:.6f}s "
          f"({fmt_s(result['wall_delta_s'])}, "
          f"{result['wall_delta_rel'] * 100.0:+.2f}%)")
    print("  causes (delta, share of wall delta):")
    for name in CAUSE_CLASSES:
        c = result["causes"][name]
        if c["a_s"] == 0.0 and c["b_s"] == 0.0:
            continue
        print(f"    {name:<26} {c['a_s']:.6f}s -> {c['b_s']:.6f}s  "
              f"{fmt_s(c['delta_s'])}  "
              f"({c['share_of_regression'] * 100.0:+.0f}%)")
    moved = [s for s in THROTTLE_SLOTS
             if abs(result["throttle"][s]["delta_s"]) > 0.0]
    if moved:
        print("  throttle elongation (cross-cutting):")
        for slot in moved:
            t = result["throttle"][slot]
            print(f"    {slot:<26} {t['a_s']:.6f}s -> "
                  f"{t['b_s']:.6f}s  {fmt_s(t['delta_s'])}")
    if result["devices"]:
        print("  top path movers by device:")
        for d in result["devices"]:
            print(f"    GPU{d['gpu']:<4} {d['a_s']:.6f}s -> "
                  f"{d['b_s']:.6f}s  {fmt_s(d['delta_s'])}")
    print(f"\n{result['explanation']}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("run_a", help="baseline report JSON")
    ap.add_argument("run_b", help="candidate report JSON")
    ap.add_argument("--json", default="",
                    help="also write the machine-readable diff here")
    ap.add_argument("--threshold", type=float, default=0.01,
                    help="relative wall/cause change treated as "
                         "significant (default 0.01)")
    ap.add_argument("--expect-null", action="store_true",
                    help="exit 1 unless the runs are equivalent "
                         "within the threshold")
    ap.add_argument("--top", type=int, default=8,
                    help="device movers to report (default 8)")
    args = ap.parse_args()

    a_label, a = load(args.run_a)
    b_label, b = load(args.run_b)
    result = diff(a_label, a, b_label, b, args.threshold, args.top)
    print_report(result)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump(result, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as e:
            die(f"cannot write {args.json}: {e}")
    if args.expect_null and not result["null_diff"]:
        print("rundiff: FAIL: expected a null diff", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

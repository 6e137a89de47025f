"""Structural check of request waterfalls in a Chrome trace.

Every ``request.N`` row holds one request span whose children tile it
exactly, in phase order ``retry_overhead`` → ``batch_wait`` →
``queue_wait`` → ``execute``, and whose flow arrow lands on its device
batch span at the instant ``execute`` starts.  Used by the tests and by
the CI smoke steps (``python -m tests.serving.waterfall_check FILE``).
"""

import json
import sys
from typing import Dict, List

PHASES = ("retry_overhead", "batch_wait", "queue_wait", "execute")


def check_waterfalls(trace: dict, tol_us: float = 1e-6) -> Dict[str, int]:
    """Assert the waterfall invariants; returns row and phase counts."""
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    landing = {e["id"]: e for e in events if e.get("ph") == "f"}
    departing: Dict[tuple, List[dict]] = {}
    for e in events:
        if e.get("ph") == "s":
            departing.setdefault((e["pid"], e["tid"]), []).append(e)
    children: Dict[tuple, List[dict]] = {}
    for e in spans:
        parent = e["args"].get("parent_id")
        if parent is not None:
            children.setdefault((e["pid"], parent), []).append(e)

    counts = {"requests": 0, **{name: 0 for name in PHASES}}
    for req in spans:
        if not (req["tid"].startswith("request.")
                and req["name"].startswith("req")):
            continue
        counts["requests"] += 1
        kids = sorted(children[(req["pid"], req["args"]["span_id"])],
                      key=lambda e: e["ts"])
        names = [e["name"] for e in kids]
        assert names == [p for p in PHASES if p in names], (req, names)
        assert names[-1] == "execute", (req, names)
        t = req["ts"]
        for kid in kids:
            assert abs(kid["ts"] - t) <= tol_us, (req, kid)
            t = kid["ts"] + kid["dur"]
            counts[kid["name"]] += 1
        assert abs(t - (req["ts"] + req["dur"])) <= tol_us, req
        (flow,) = departing[(req["pid"], req["tid"])]
        device = landing[flow["id"]]
        assert abs(kids[-1]["ts"] - device["ts"]) <= tol_us, (req, device)
        assert (device["pid"], device["tid"]) != (req["pid"], req["tid"])
    return counts


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as fh:
            result = check_waterfalls(json.load(fh))
        assert result["requests"], f"{path}: no request waterfalls"
        print(f"{path}: waterfalls tile", result)

"""Checks a resumed serve journal against an uninterrupted reference run.

Usage: python3 check_terminal_set.py REFERENCE RESUMED

Both journals must hold the same terminal record for every seq, neither
may hold a seq twice, and the resumed journal must end with a drain
record that accounts for every admitted task.
"""
import json
import sys


def load(path):
    recs, drain = {}, None
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            k = r.get("kind")
            if k == "serve-meta":
                continue
            if k == "drain":
                drain = r
                continue
            # First record per seq wins (replay dedup); a second
            # one would be a double-run. A drain that terminal records
            # follow is not the run's terminator.
            drain = None
            assert r["seq"] not in recs, f"seq {r['seq']} doubled"
            recs[r["seq"]] = (k, r.get("machine"), r["attempts"])
    return recs, drain


ref, _ = load(sys.argv[1])
res, drain = load(sys.argv[2])
assert ref == res, f"terminal sets differ: {len(ref)} vs {len(res)}"
assert drain is not None, "resumed run did not seal a drain record"
lost = drain["admitted"] - (drain["completed"] + drain["shed"] + drain["failed"])
assert lost == 0, f"{lost} admitted tasks unaccounted for"
print(f"OK exactly-once: {len(ref)} terminal records identical")

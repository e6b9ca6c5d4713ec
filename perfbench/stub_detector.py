"""Stub live detector for ``roadwork-mapper replay --detector-cmd``.

Usage: stub_detector.py DETECTIONS_JSONL PAIRING_WINDOW

Answers each ``frame_request`` line with the recorded detections line
that file pairing would choose for the request time (the latest frame
within PAIRING_WINDOW seconds, the session config's ``pairing_window``),
or with an empty frame when there is none.
Both give the engine the same gated detections, so a live replay writes
the same bytes as a file replay.
"""
import bisect
import json
import sys


def main() -> int:
    path, window = sys.argv[1], float(sys.argv[2])
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    times = [json.loads(line)["t"] for line in lines]
    for request in sys.stdin:
        t = json.loads(request)["t"]
        best = None
        i = bisect.bisect_left(times, t - window)
        while i < len(times) and times[i] <= t + window:
            if abs(times[i] - t) <= window:
                best = i
            i += 1
        answer = lines[best] if best is not None else json.dumps(
            {"type": "detections", "t": t, "items": []})
        sys.stdout.write(answer + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

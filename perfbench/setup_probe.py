"""Time ``import fanrep`` plus parsing serialized inputs, in a fresh process.

Usage: python3 setup_probe.py SRC_DIR MANIFEST_JSON

The manifest is a list of ``[reader, path, fan_path]`` entries; reader is
"fan", "rep" or "descent", and a "rep" entry with a fan path is parsed on
that fan's quiver.  File bytes are read before the clock starts, so the
figure is import plus JSON decoding plus the public readers.  Prints the
elapsed seconds and then the calibration kernel's median time, taken
after the clock stops (the kernel needs fractions, which fanrep imports).
"""

import json
import os
import statistics
import sys
from time import perf_counter


def main():
    src, manifest = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    with open(manifest, encoding="utf-8") as handle:
        entries = json.load(handle)
    texts = {}
    for _, path, fan_path in entries:
        for p in (path, fan_path):
            if p is not None and p not in texts:
                with open(p, encoding="utf-8") as handle:
                    texts[p] = handle.read()

    start = perf_counter()
    import fanrep

    parsed = []
    for reader, path, fan_path in entries:
        data = json.loads(texts[path])
        if reader == "fan":
            parsed.append(fanrep.fan_from_json(data))
        elif reader == "descent":
            parsed.append(fanrep.descent_from_json(data))
        elif fan_path is None:
            parsed.append(fanrep.rep_from_json(data))
        else:
            fan, overrides = fanrep.fan_from_json(json.loads(texts[fan_path]))
            quiver = fanrep.fan_quiver(fan, fanrep.chart_bases(fan, overrides))
            parsed.append(fanrep.rep_from_json(data, quiver=quiver))
    elapsed = perf_counter() - start
    if not fanrep.__file__.startswith(src):
        raise SystemExit(f"imported fanrep from {fanrep.__file__}, not from {src}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate

    kernel = statistics.median(calibrate.kernel_seconds() for _ in range(5))
    print(repr(elapsed), repr(kernel))


if __name__ == "__main__":
    main()

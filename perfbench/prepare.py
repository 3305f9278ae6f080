"""One benchmark set-up: write the seeded inputs, compute their references,
and import dagzip.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR

Writes the inputs and DIR/refs.json, and prints one JSON line with the
set-up time and a digest of the input bytes. run.py runs this several times
in fresh processes and reports the median, so that scipy and the reference
computations never count toward the measured process's memory.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402


def references(workload: str, files: dict, facts: dict) -> dict:
    refs = {}
    for name, text in files.items():
        if name.endswith(".dagc"):
            d = reference.parse_dagc(text)
            refs[name] = {"n": d.n_sinks, "size": d.size}
            if workload != "exact-small":
                refs[name]["weight"], refs[name]["forest_edges"] = reference.star_mst(d)
    for name, fact in facts.items():
        refs.setdefault(name, {}).update(fact)
        if name.endswith(".setcover"):
            refs[name]["kmin"] = reference.min_cover(fact["n"], fact["sets"])
    return refs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory that holds the dagzip package")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files, facts = inputs.write_inputs(args.workload, args.seed, out)
    refs = references(args.workload, files, facts)
    (out / "refs.json").write_text(json.dumps(refs, sort_keys=True))
    sys.path.insert(0, args.src)
    import dagzip  # noqa: F401  (the program's own import cost is part of set-up)

    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    print(json.dumps({"setup_s": time.perf_counter() - START, "digest": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""External scorer for the bridge workload: a logistic regression exported by
``xpop.models.export_model``, re-implemented out of process.

Usage: python3 scorer.py MODEL_TXT < matrix.csv > probabilities
"""

import math
import sys


def main() -> None:
    params = {}
    intercept = 0.0
    with open(sys.argv[1], encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            parts = line.split("\t")
            if parts[0] == "intercept":
                intercept = float(parts[1])
            else:
                params[parts[0]] = (float(parts[1]), float(parts[2]), float(parts[3]))

    lines = sys.stdin.read().splitlines()
    names = [h.split(":")[0] for h in lines[0].split(",")]
    out = []
    for line in lines[1:]:
        z = intercept
        for name, cell in zip(names, line.split(",")):
            mean, std, coef = params[name]
            z += (float(cell) - mean) / std * coef
        p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        out.append(repr(p))
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()

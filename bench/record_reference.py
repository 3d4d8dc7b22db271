"""Record the plan costs that the benchmark's output checks compare against.

    python3 bench/record_reference.py

Writes bench/reference.json: the mc-criterion6 plan cost (its statistics do
not depend on the seed) and, for each of the REFERENCE_SEEDS
powergrid-instances networks, the costs of its 10 experiment instances.
epinions-heavy has no entry: its plan stage fails where this was recorded.
Run it only at a commit whose plans are known to be right; the checks treat
these numbers as the truth.
"""

import json
import os
import sys

import run
import workloads


def plan_costs(cli, wl, base):
    """The plan costs of one checked operation of `wl`."""
    d = run.fresh_dir(os.path.join(base, "inputs"))
    facts = wl.generate(d)
    op = run.run_op(cli, wl, facts, d, os.path.join(base, "out"))
    if op.failed:
        raise run.BenchError("%s seed %d: %s" % (wl.name, wl.seed, op.failure
                                                  or op.outcome.problems[0]))
    return op.outcome.costs


def main():
    cli = run.import_program()
    base = os.path.join(run.WORK, "reference")
    ref = {"mc-criterion6": {"any": plan_costs(cli, workloads.McCriterion6(0), base)}}
    pg = ref["powergrid-instances"] = {}
    for seed in range(workloads.REFERENCE_SEEDS):
        pg[str(seed)] = plan_costs(cli, workloads.PowergridInstances(seed), base)
        print("powergrid-instances seed %d: %d costs" % (seed, len(pg[str(seed)])),
              file=sys.stderr)
    write_reference(ref)


def write_reference(ref):
    """One line per workload seed, so a re-recording diffs readably."""
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n")
        for i, (name, seeds) in enumerate(ref.items()):
            fh.write(" %s: {\n" % json.dumps(name))
            fh.write(",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v))
                                 for k, v in seeds.items()))
            fh.write("\n }%s\n" % ("," if i < len(ref) - 1 else ""))
        fh.write("}\n")


if __name__ == "__main__":
    try:
        main()
    except run.BenchError as exc:
        print("record_reference: %s" % exc, file=sys.stderr)
        sys.exit(2)

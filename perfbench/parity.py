"""CLI parity check: the harness's pipeline gives the report the CLI writes.

Generates a smoke-size dataset, runs the ``build-graph``, ``embed``,
``retrofit`` and ``evaluate`` subcommands through ``genrevec.cli.main``, runs
``pipeline.run_pipeline`` on the same inputs in a separate work directory,
and compares the CLI's ``report.json`` with the harness's
``EvalReport.to_dict()``. Prints one JSON line: the operations attempted and
the failures.

    python3 perfbench/parity.py --seed 3 --out .perfbench/parity
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import gen
import pipeline
from genrevec.cli import PipelineConfig, main as cli_main

STAGES = ("build-graph", "embed", "retrofit", "evaluate")


def check(seed: int, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    gen.generate(out, gen.WORKLOADS["smoke"], seed)
    config_path = out / "config.json"
    failures = []
    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([stage, "--config", str(config_path)])
        if code != 0:
            failures.append(f"genrevec {stage} exited with {code}")
    if failures:
        return {"attempted": len(STAGES), "failures": failures}
    with open(out / "out" / "report.json", encoding="utf-8") as handle:
        cli_report = json.load(handle)

    config = PipelineConfig.from_file(config_path)
    tracer = pipeline.Tracer(enabled=False)
    workdir = out / "harness"
    workdir.mkdir()
    built = pipeline.run_pipeline(config, pipeline.load_inputs(config, tracer), workdir, tracer)
    harness_report = json.loads(json.dumps(built.report.to_dict()))
    if harness_report != cli_report:
        failures.append("the harness's EvalReport differs from the CLI's report.json")
    return {"attempted": len(STAGES) + 1, "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    outcome = check(args.seed, Path(args.out))
    print(json.dumps(outcome))
    return 1 if outcome["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload of `rtdensity` and print its metrics.

    python3 perfbench/run.py --workload audit-s40 --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory and its output schemas from `schemas/`. The CLI runs
in-process through `rtdensity.cli.main` with its own defaults; the
`RT_ENGINE_THREADS` override is removed from the environment so the thread
pool is measured as users get it. A pass is one run of the workload's
invocations; passes repeat until `--seconds` of passes have been measured.

With `--trace 0` the passes are untraced and the end-to-end metrics are
reported. With `--trace 1` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are reported, with the tracing
overhead as the difference of the median pass times. Every output is checked
(see workloads.py); later passes must repeat the first pass's stdout byte
for byte. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

SETUP_SAMPLES = 11
EXACT_UNITS = ("count", "ratio", "bits")  # per-layer metrics that must repeat exactly
TMP_PARENT = ROOT / ".perfbench-tmp"


class SetupError(RuntimeError):
    pass


def setup(workload, workdir: Path) -> tuple[object, float]:
    """Import rtdensity from the checkout and write the workload's input files."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "rtdensity" / "__init__.py").is_file():
        raise SetupError(f"no rtdensity sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import rtdensity.cli

    if Path(rtdensity.cli.__file__).resolve().parent != src / "rtdensity":
        raise SetupError(f"imported rtdensity from {rtdensity.cli.__file__}, not from {src}")
    for name, text in workload.inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return rtdensity.cli.main, time.perf_counter() - t0


def setup_sample(workload_name: str) -> float:
    """Set-up time in a fresh interpreter (the first set-up in this process
    also compiled bytecode, so it is not a sample)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload_name]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def invoke(cli_main, argv: list[str]) -> tuple[int | None, str]:
    """Exit code (None for an uncaught exception) and stdout of one CLI call."""
    buf = io.StringIO()
    code: int | None = 0
    try:
        with redirect_stdout(buf):
            cli_main.main(args=argv, prog_name="rtdensity", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a crash in the program is a failed operation, not a benchmark crash
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue()


def run_pass(cli_main, plan, tracer: Tracer | None = None):
    outputs = []
    t0 = time.perf_counter()
    for inv in plan:
        if tracer is None:
            outputs.append(invoke(cli_main, inv.argv))
        else:
            outputs.append(tracer.call("cli", invoke, (cli_main, inv.argv)))
    return time.perf_counter() - t0, outputs


def check_outputs(plan, outputs) -> list[str]:
    """Validate each successful output against its schema and its check."""
    import jsonschema

    problems = []
    for inv, (code, stdout) in zip(plan, outputs):
        if code != 0:
            continue
        try:
            payload = json.loads(stdout)
            schema = json.loads((ROOT / "schemas" / f"{inv.argv[0]}.schema.json").read_text())
            jsonschema.Draft202012Validator(schema).validate(payload)
            inv.check(payload)
        except (OSError, ValueError, KeyError, IndexError, TypeError, jsonschema.ValidationError, CheckError) as exc:
            problems.append(f"{' '.join(inv.argv)}: {type(exc).__name__}: {exc}")
    return problems


def measure(cli_main, plan, seconds: float, traced: bool, after_pass: Callable[[], None]):
    """Repeat whole passes until `seconds` of pass time are measured, calling
    `after_pass` after each untraced pass."""
    state = {"attempted": 0, "failed": 0, "problems": [], "first": None}
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    kinds = [False, True] if traced else [False]
    while sum(map(sum, walls.values())) < seconds or not all(walls[k] for k in kinds):
        for kind in kinds:
            tracer = Tracer() if kind else None
            cpu0 = time.process_time()
            with tracer or nullcontext():
                wall, outputs = run_pass(cli_main, plan, tracer)
            walls[kind].append(wall)
            if tracer is not None:
                layers.append(layer_metrics(tracer, time.process_time() - cpu0))
            state["attempted"] += len(outputs)
            state["failed"] += sum(code != 0 for code, _ in outputs)
            if state["first"] is None:
                state["first"] = outputs
            elif [o for _, o in outputs] != [o for _, o in state["first"]]:
                state["problems"].append("stdout differs between passes")
        after_pass()
    return walls, layers, state


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seeds realize --seed; other inputs are fixed")
    ap.add_argument("--seconds", type=float, default=32.0, help="pass time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("RT_ENGINE_THREADS", None)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        try:
            cli_main, first_setup = setup(workload, workdir)
            if args.setup_only:
                print(repr(first_setup))
                return 0
            plan = workload.plan(workdir, args.seed)
            # Host speed can drift over tens of seconds, so the set-up
            # samples are spread over the run, one after each untraced pass,
            # instead of being taken back to back. Traced runs report no set-up.
            setups: list[float] = []
            wanted = 0 if args.trace else SETUP_SAMPLES

            def sample_setup() -> None:
                if len(setups) < wanted:
                    setups.append(setup_sample(args.workload))

            walls, layers, state = measure(cli_main, plan, args.seconds, bool(args.trace), sample_setup)
            # read before checking, so the checks' memory is not counted
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(setups) < wanted:
                sample_setup()
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        problems = state["problems"] + check_outputs(plan, state["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    wall_s = statistics.median(walls[False])
    for kind in (False, True)[: 1 + args.trace]:
        print(
            f"{args.workload}: {'traced' if kind else 'untraced'} passes (s):",
            " ".join(f"{w:.3f}" for w in walls[kind]),
            file=sys.stderr,
        )
    if args.trace:
        values = {"trace.overhead_s": statistics.median(walls[True]) - wall_s}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in values:
                continue
            # a layer that made no call in the pass spent no time in it
            seen = [layer.get(name, 0.0 if name.endswith(".self_s") else None) for layer in layers]
            if None in seen:
                raise KeyError(f"the tracer does not compute {name}")
            if m["unit"] in EXACT_UNITS and len(set(seen)) != 1:
                problems.append(f"{name} differs between traced passes: {seen}")
            values[name] = statistics.median(seen)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mib,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

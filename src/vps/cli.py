"""Operator surface: plan generation, benchmark runs, simulation, fitting.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error. When
some item x method decodes of ``vps run`` fail, the run goes on and exits 1
with partial results preserved: ``results.jsonl`` and the tables hold every
evaluation (a failed one has ``extracted: null`` and an ``error``), and
``summary.json`` lists the failures under ``failed``. Every command is
deterministic given --seed and an offline backend, and all output files are
written atomically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import eval_harness, scaling_law
from .backends.toyworld import ToyWorld
from .backends.wire import WireBackend, WireConfig
from .decode_engine import DecodeTrace
from .frame_selection import BoltConfig, InfeasiblePlanError, plan_to_text, validate_plan

__all__ = ["main"]


class UsageError(Exception):
    pass


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: str, what: str, convert=lambda value: value):
    """``convert`` of the JSON in ``path``; an unreadable or malformed file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_tables(
    out_dir: Path, accuracy: dict[str, dict[str, float]], desc_rows: list[dict]
) -> None:
    """accuracy.csv (method x category) and, given description rows, metrics.csv."""
    columns = sorted({c for cats in accuracy.values() for c in cats if c != "overall"}) + ["overall"]
    rows = [
        [method] + [f"{cats.get(c, float('nan')):.6f}" for c in columns]
        for method, cats in sorted(accuracy.items())
    ]
    _write_atomic(out_dir / "accuracy.csv", _csv_text(["method"] + columns, rows))
    if desc_rows:
        metrics = ["llm_judge", "sts", "sts_x100", "rouge_l"]
        rows = [
            [r["method"], r["nframe"]] + ["" if r.get(m) is None else f"{r[m]:.6f}" for m in metrics]
            for r in sorted(desc_rows, key=lambda r: (str(r["method"]), r["nframe"]))
        ]
        _write_atomic(out_dir / "metrics.csv", _csv_text(["method", "nframe"] + metrics, rows))


def cmd_plan(args: argparse.Namespace) -> int:
    scores = None
    if args.strategy == "bolt":
        if not args.scores:
            raise UsageError("--strategy bolt needs --scores FILE (JSON list of per-frame scores)")
        scores = _read_json(args.scores, "BOLT scores", lambda v: tuple(float(s) for s in v))
        if args.total_frames and args.total_frames != len(scores):
            raise UsageError(f"--T {args.total_frames} but {len(scores)} scores given")
    try:
        bolt = BoltConfig(scores, sharpen_exponent=args.sharpen) if scores is not None else None
        plan = eval_harness._build_plan(args.strategy, args.total_frames, args.frames, args.streams, args.seed, bolt)
    except InfeasiblePlanError:
        raise
    except ValueError as exc:  # invalid sizes or scores
        raise UsageError(str(exc)) from exc

    text = plan_to_text(plan)
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    violation = validate_plan(plan, require_disjoint=True)
    print(f"disjointness audit: {'ok' if violation is None else violation}", file=sys.stderr)
    return 0


def _build_toy(args: argparse.Namespace):
    try:
        world = ToyWorld.symmetric(args.toy_labels, args.toy_match_prob)
        items, backend = eval_harness.toy_benchmark(world, args.toy_episodes, args.toy_total_frames, args.seed)
    except ValueError as exc:
        raise UsageError(f"bad toy world: {exc}") from exc
    return items, backend, frozenset({world.stop_token})


def cmd_run(args: argparse.Namespace) -> int:
    if args.frames < 1 or args.max_tokens < 1 or args.jobs < 1:
        raise UsageError("--k, --max-tokens and --jobs must be positive")
    if not args.temperature >= 0:
        raise UsageError("--temperature must be non-negative")
    config = _load_config(args.config)
    endpoint = args.endpoint or config.get("endpoint")

    try:
        methods = [eval_harness.MethodSpec.parse(tag) for tag in args.methods.split(",") if tag]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not methods:
        raise UsageError("no methods requested")
    tags = [m.tag for m in methods]
    if len(set(tags)) < len(tags):
        raise UsageError(f"method {next(t for i, t in enumerate(tags) if t in tags[:i])} is listed twice")

    bolt_scores = None
    if args.bolt_scores:
        bolt_scores = _read_json(
            args.bolt_scores, "BOLT scores", lambda v: {str(k): [float(x) for x in xs] for k, xs in v.items()}
        )
    if args.strategy == "bolt" and bolt_scores is None:
        raise UsageError("--strategy bolt needs --bolt-scores FILE")

    stop_tokens: frozenset[int] = frozenset()
    if args.backend == "toy":
        if args.dataset:
            raise UsageError("--backend toy synthesizes its own dataset; drop --dataset")
        if args.toy_episodes < 1:
            raise UsageError("--toy-episodes must be positive")
        items, backend, stop_tokens = _build_toy(args)
    else:
        if not args.dataset:
            raise UsageError("--dataset is required for the wire backend")
        if not endpoint:
            raise UsageError("wire backend needs --endpoint or config endpoint")
        try:
            items = eval_harness.load_dataset(args.dataset)
        except (OSError, eval_harness.DatasetError) as exc:
            raise UsageError(f"cannot load dataset: {exc}") from exc
        vocab = None
        vocab_path = args.vocab or config.get("vocab")
        if vocab_path:
            vocab = _read_json(vocab_path, "vocab", lambda v: [str(t) for t in v])
        backend = WireBackend(WireConfig(endpoint), vocab=vocab)
        if args.stop_tokens:
            stop_tokens = frozenset(_parse_int_list(args.stop_tokens))

    if not items:
        raise UsageError("dataset is empty")
    widest = max(1 if m.kind == "sc" else m.streams for m in methods)  # sc:J samples one frame set J times
    for item in items:
        if widest * args.frames > item.total_frames:
            raise UsageError(
                f"item {item.id}: {widest} streams x {args.frames} frames exceed its {item.total_frames} total frames"
            )
        n = len(bolt_scores.get(item.video_ref, ())) if args.strategy == "bolt" else item.total_frames
        if n != item.total_frames:
            raise UsageError(f"item {item.id}: {n} bolt scores for {item.total_frames} frames of {item.video_ref}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = DecodeTrace() if args.trace else None
    try:
        results, audit = eval_harness.run_benchmark(
            items,
            backend,
            methods,
            frames_per_stream=args.frames,
            seed=args.seed,
            strategy=args.strategy,
            space=args.space,
            temperature=args.temperature,
            max_tokens=args.max_tokens,
            stop_tokens=stop_tokens,
            bolt_scores=bolt_scores,
            jobs=args.jobs,
            trace=trace,
        )
    except Exception as exc:  # noqa: BLE001 - preserve whatever was written, report hard-down
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    embed_client = judge_client = None
    if config.get("embed_endpoint"):
        from .metrics import HttpEmbedClient

        embed_client = HttpEmbedClient(config["embed_endpoint"])
    if config.get("judge_endpoint"):
        from .metrics import HttpJudgeClient

        judge_client = HttpJudgeClient(config["judge_endpoint"])
    eval_harness.score_description_results(results, items, embed_client, judge_client)

    _write_atomic(out_dir / "results.jsonl", "".join(r.to_json() + "\n" for r in results))

    table = eval_harness.accuracy(results, items)
    desc_rows = eval_harness.description_rows(results, items, args.frames)
    _write_tables(out_dir, table, desc_rows)

    summary = {
        "items": len(items),
        "methods": [m.tag for m in methods],
        "frames_per_stream": args.frames,
        "strategy": args.strategy,
        "space": args.space,
        "seed": args.seed,
        "backend": args.backend,
        "accuracy": table,
        "backend_calls": audit,
        "description_metrics": desc_rows,
    }
    failed = [
        {"item_id": r.item_id, "method": r.method, "error": r.error} for r in results if r.error is not None
    ]
    if failed:
        summary["failed"] = failed
    _write_atomic(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    status = 0
    if failed:
        print(
            f"run failed: {len(failed)} of {len(results)} item x method evaluations failed "
            f"(listed in {out_dir / 'summary.json'})",
            file=sys.stderr,
        )
        status = 1

    if trace is not None:
        _write_atomic(out_dir / "trace.jsonl", trace.to_jsonl())
    return status


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    streams_list = _parse_int_list(args.streams)
    if not streams_list:
        raise UsageError("--streams list is empty")
    if min(streams_list) < 1:
        raise UsageError("stream counts must be positive")
    try:
        params = scaling_law.ScalingParams(
            irreducible_entropy=args.irreducible,
            capacity_coeff=args.capacity,
            capacity_exponent=args.exponent,
            model_size=args.model_size,
            correlation=args.correlation,
            biases=(args.bias,) * max(streams_list),
        )
        spec = scaling_law.SimSpec(args.vocab, args.samples, args.seed, params)
    except ValueError as exc:  # a parameter or size out of range
        raise UsageError(str(exc)) from exc
    dtype = np.float32 if args.float32 else np.float64
    grid = scaling_law.simulate_ce_grid(spec, streams_list, [args.correlation], dtype=dtype)
    rows = []
    for J in streams_list:
        res = grid[(args.correlation, J)]
        predicted = scaling_law.vps_loss(params.with_streams(J), J)
        # report the measured excess on top of the configured irreducible
        # entropy, so the two columns share the same offset
        empirical = params.irreducible_entropy + res.mixture_excess
        rows.append([J, f"{predicted:.9f}", f"{empirical:.9f}", f"{res.mixture_excess_stderr:.3e}"])
    text = _csv_text(["J", "predicted", "empirical", "stderr"], rows)
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)  # header row
            data = [(float(x), float(loss)) for x, loss in (row[:2] for row in reader if row)]
    except (OSError, ValueError, StopIteration) as exc:
        raise UsageError(f"cannot read fit input {args.input}: {exc}") from exc
    fixed = {}
    for pair in args.fix or []:
        name, _, value = pair.partition("=")
        try:
            fixed[name] = float(value)
        except ValueError:
            raise UsageError(f"--fix expects name=value with a number, got {pair!r}") from None
    try:
        result = scaling_law.fit_params([x for x, _ in data], [y for _, y in data], mode=args.mode, fixed=fixed)
    except scaling_law.FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # non-finite input or an unknown --fix name
        raise UsageError(str(exc)) from exc
    p = result.params
    payload = {
        "mode": result.mode,
        "free": list(result.free),
        "cost": result.cost,
        "params": {
            "irreducible_entropy": p.irreducible_entropy,
            "capacity_coeff": p.capacity_coeff,
            "capacity_exponent": p.capacity_exponent,
            "model_size": p.model_size,
            "correlation": p.correlation,
            "capacity_term": p.capacity_term,
            "mean_bias": p.mean_bias,
        },
        "residuals": [float(r) for r in result.residuals],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    accuracy: dict[str, dict] = {}
    desc_rows = []
    # a table row -> the run directory that reports it: a method tag for
    # accuracy.csv, a (method tag, nframe) pair for metrics.csv
    reported_by: dict[object, str] = {}

    def claim(row: object, what: str, run_dir: str) -> None:
        if row in reported_by:
            raise UsageError(f"{what} is reported by both {reported_by[row]} and {run_dir}")
        reported_by[row] = run_dir

    for run_dir in args.run_dirs:
        run_path = Path(run_dir)
        summary_file = run_path / "summary.json"
        if not (run_path / "results.jsonl").exists() or not summary_file.exists():
            raise UsageError(f"{run_dir} is not a run directory (missing results.jsonl/summary.json)")
        summary = json.loads(summary_file.read_text(encoding="utf-8"))
        for row in summary.get("description_metrics") or []:
            claim((row["method"], row["nframe"]), f"description metrics of {row['method']!r} at nframe "
                  f"{row['nframe']}", run_dir)
            desc_rows.append(row)
        for method, cats in summary.get("accuracy", {}).items():
            claim(method, f"method {method!r}", run_dir)
            accuracy[method] = cats

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_tables(out_dir, accuracy, desc_rows)
    print(f"report written to {out_dir}", file=sys.stderr)
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, the seeds that numpy's
    ``SeedSequence`` and :mod:`vps.seeds` take."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="generate a frame selection plan")
    p.add_argument("--T", "--total-frames", dest="total_frames", type=int, required=True)
    p.add_argument("--k", "--frames", dest="frames", type=int, required=True)
    p.add_argument("--J", "--streams", dest="streams", type=int, required=True)
    p.add_argument("--strategy", choices=eval_harness.STRATEGIES, default="uniform")
    p.add_argument("--scores", help="JSON file with per-frame relevance scores (bolt)")
    p.add_argument("--sharpen", type=float, default=3.0, help="bolt sharpening exponent")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write the plan here instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="evaluate methods over a dataset")
    p.add_argument("--dataset", help="line-delimited JSON items (wire backend)")
    p.add_argument("--backend", choices=("toy", "wire"), default="toy")
    p.add_argument("--endpoint", help="wire backend URL")
    p.add_argument("--vocab", help="JSON list mapping token ids to text (wire backend)")
    p.add_argument("--stop-tokens", help="comma list of stop token ids (wire backend)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--methods", default="baseline,vps:4", help="comma list, e.g. baseline,vps:4,sc:4,vps:4+tcd")
    p.add_argument("--k", "--frames", dest="frames", type=int, default=4)
    p.add_argument("--strategy", choices=eval_harness.STRATEGIES, default="uniform")
    p.add_argument("--space", choices=("probability", "logit"), default="probability")
    p.add_argument("--temperature", type=float, default=1.0, help="self-consistency sampling temperature")
    p.add_argument("--max-tokens", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="the most backend queries in flight at once (the toy backend scores each round in one call)",
    )
    p.add_argument("--out-dir", default="vps-run")
    p.add_argument("--trace", action="store_true", help="emit a decode trace for the first item")
    p.add_argument("--bolt-scores", help="JSON file mapping video_ref to per-frame scores")
    p.add_argument("--toy-episodes", type=int, default=200)
    p.add_argument("--toy-labels", type=int, default=4)
    p.add_argument("--toy-total-frames", type=int, default=64)
    p.add_argument("--toy-match-prob", type=float, default=0.55)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="Monte Carlo check of the loss model")
    p.add_argument("--streams", default="1,2,4,8", help="comma list of stream counts")
    p.add_argument("--correlation", type=float, default=0.0)
    p.add_argument("--irreducible", type=float, default=0.0, help="irreducible entropy offset E")
    p.add_argument("--capacity", type=float, default=1e-3, help="capacity coefficient A")
    p.add_argument("--exponent", type=float, default=1.0, help="capacity exponent alpha")
    p.add_argument("--model-size", type=float, default=1.0, help="parameter count N")
    p.add_argument("--bias", type=float, default=0.0, help="per-stream bias")
    p.add_argument("--vocab", type=int, default=64)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--float32", action="store_true", help="float32 bulk arithmetic (float64 accumulation)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the loss model to measured losses")
    p.add_argument("--input", required=True, help="CSV with header and rows x,loss")
    p.add_argument("--mode", choices=("streams", "model_size"), default="streams")
    p.add_argument("--fix", action="append", help="pin a field, e.g. --fix correlation=0.5")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="merge run directories into report tables")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default="vps-report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

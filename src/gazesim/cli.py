"""Batch command-line front end.

Subcommands wire the library into reproducible pipelines: synth (oracle
corpora), metrics (quality tables), calibrate (noise-variance sweep),
degrade (baseline or modified transform), assess (1-NN two-sample test),
and report (distribution summaries). synth, calibrate, degrade and assess
take one master seed; all their internal seeds derive from it and the
recording ids, so reruns are byte-identical. metrics and report draw no
random numbers and take no seed. Outputs are plain CSV/JSON written
atomically.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .assess import (SUMMARY_HEADER, assessment_report_dict, distribution_summary,
                     repeated_assessment, summary_row)
from .calibrate import (describe_curve, fit_sweep, load_calibration, save_calibration,
                        sweep_plans, sweep_recording)
from .degrade import (_target_jitter_ms, combine, component_pass, degrade_benchmark,
                      plan_modified, save_plan)
from .io import (ManifestEntry, read_json_object, read_manifest, read_quality_table,
                 read_recording_from_entry, write_csv, write_json, write_manifest,
                 write_quality_table, write_recording)
from .metrics import analyse_recording, recording_quality
from .oracle import (PRESETS, corpus_indices, corpus_spec_from_json,
                     generate_corpus_recording, write_ground_truth)
from .pool import ordered_map
from .quantiles import quantile
from .seeding import derive_seed
from .types import DegradationPlan, QualityTable

logger = logging.getLogger("gazesim")


def _hash_quality_table(table: QualityTable) -> str:
    h = hashlib.sha256()
    for rid, values, count in table.rows_by_id():
        h.update(f"{rid}:{tuple(values)}:{count}\n".encode("utf-8"))
    return h.hexdigest()[:16]


def _read_and_apply(task) -> tuple:
    """(None, fn(recording)) for one (fn, manifest entry, skip_bad) task.
    With skip_bad, a read that raised OSError or ValueError, or an fn that
    raised ValueError, gives (error, None), so the caller logs it in
    manifest order; otherwise the error is raised, so the map stops at the
    first one. An OSError of fn is an output's, and is always raised."""
    fn, entry, skip_bad = task
    rec = None
    try:
        rec = read_recording_from_entry(entry)
        return None, fn(rec)
    except (OSError, ValueError) as exc:
        if not skip_bad or (rec is not None and isinstance(exc, OSError)):
            raise
        return exc, None


def _map_corpus(manifest_path, skip_bad: bool, fn) -> list:
    """fn(recording) for every recording in a manifest, each read and
    computed in an ordered_map task (so what fn returns must pickle). The
    first failed read or fn, in manifest order, is raised; with skip_bad,
    every recording whose read or fn failed is logged and dropped instead."""
    entries = read_manifest(manifest_path)
    results = []
    outcomes = ordered_map(_read_and_apply, [(fn, entry, skip_bad) for entry in entries])
    for entry, (exc, result) in zip(entries, outcomes):
        if exc is None:
            results.append(result)
            continue
        # the log line names the recording once
        reason = str(exc).removeprefix(f"{entry.recording_id}: ")
        logger.warning("skipping %s: %s", entry.recording_id, reason)
    if not results:
        raise ValueError(f"{manifest_path}: no usable recordings")
    return results


def _synth_one(task) -> tuple:
    """Generate one recording of a corpus and write it; returns its ground
    truth and its manifest entry."""
    spec, index, seed, id_prefix, out_dir = task
    rec, truth = generate_corpus_recording(spec, index, seed, id_prefix)
    write_recording(rec, out_dir / f"{rec.recording_id}.csv")
    return truth, ManifestEntry(rec.recording_id, rec.recording_id + ".csv",
                                "canonical", rec.nominal_rate_hz)


def cmd_synth(args) -> int:
    if args.preset is not None:
        spec = PRESETS[args.preset]
        spec_label = args.preset
    else:
        payload = read_json_object(args.spec_file, "corpus spec")
        try:
            spec = corpus_spec_from_json(payload)
        except ValueError as exc:
            raise ValueError(f"{args.spec_file}: {exc}") from None
        spec_label = Path(args.spec_file).stem
    indices = corpus_indices(args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    made = ordered_map(_synth_one, [(spec, i, args.seed, spec_label, out_dir)
                                    for i in indices])
    write_ground_truth([truth for truth, _ in made], out_dir / "ground_truth.csv")
    write_manifest([entry for _, entry in made], out_dir / "manifest.csv")
    write_json({
        "command": "synth", "preset": spec_label, "n": args.n,
        "spec_file": str(args.spec_file) if args.spec_file else None,
        "seed": args.seed, "version": __version__,
    }, out_dir / "run_manifest.json")
    print(f"wrote {len(made)} recordings to {out_dir}")
    return 0


def _quality_row(rec) -> tuple:
    return rec.recording_id, recording_quality(rec)


def cmd_metrics(args) -> int:
    table = QualityTable.from_rows(_map_corpus(args.manifest, args.skip_bad, _quality_row))
    write_quality_table(table, args.out)
    print(f"wrote quality table with {len(table)} rows to {args.out}")
    return 0


_MAX_GRID_POINTS = 1000  # each is a filter pass over every recording


def _parse_grid(text: str) -> list:
    """Parse 'a:b:step' into an inclusive grid (b within 1e-9 of a step) of
    points rounded to 12 decimals; a grid whose rounded points repeat is
    rejected."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a:b:step', got {text!r}")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"grid must be finite 'a:b:step', got {text!r}")
    if step <= 0 or b < a:
        raise ValueError(f"grid must have b >= a and step > 0, got {text!r}")
    largest = max(abs(a), abs(b))
    if largest + step == largest:
        raise ValueError(f"grid step is too small to advance from {largest}, got {text!r}")
    span = (b - a) / step + 1e-9
    if span >= _MAX_GRID_POINTS:
        raise ValueError(f"grid must have at most {_MAX_GRID_POINTS} points, got {text!r}")
    grid = [round(a + i * step, 12) for i in range(math.floor(span) + 1)]
    if len(set(grid)) < len(grid):
        raise ValueError(f"grid points repeat once rounded to 12 decimals, got {text!r}")
    return grid


def cmd_calibrate(args) -> int:
    plans = sweep_plans(_parse_grid(args.grid), args.rate_hz)
    curve = fit_sweep(plans, _map_corpus(args.manifest, args.skip_bad,
                                         partial(sweep_recording, plans=plans, seed=args.seed)))
    calibration_id = save_calibration(curve, args.out, provenance={
        "manifest": str(args.manifest),
        "target_rate_hz": args.rate_hz,
        "seed": args.seed,
        "grid": args.grid,
        "version": __version__,
    })
    print(describe_curve(curve))
    print(f"wrote calibration {calibration_id} to {args.out}")
    return 0


def _measure_source(rec, rate_hz: float, seed: int, jitter_sigma_ms: float) -> tuple:
    """What the modified model needs of one source: its quality, the
    combined precision its zero-noise pass at rate_hz keeps, and its
    degradation components on the grid jittered by jitter_sigma_ms, drawn
    with its plan's seed. One component pass gives both grids, so the
    source is filtered once, and what returns to the command's process is
    target-rate rows, not the source recording."""
    analysis = analyse_recording(rec)
    qv = recording_quality(rec, analysis)
    rng_seed = derive_seed(seed, rec.recording_id)
    nominal, jittered = component_pass(rec, rate_hz, rng_seed, analysis, jitter_sigma_ms)
    zero_noise = combine(nominal, DegradationPlan(rate_hz, 0.0, rng_seed=rng_seed))
    return qv, recording_quality(zero_noise).prec_c, jittered


def _write_degraded(degraded, plan: DegradationPlan, out_dir: Path, provenance: dict) -> str:
    """Write one output recording and its plan; returns its id."""
    write_recording(degraded, out_dir / f"{degraded.recording_id}.csv")
    save_plan(plan, out_dir / f"{degraded.recording_id}.plan.json", provenance)
    return degraded.recording_id


def _degrade_baseline(rec, plan: DegradationPlan, seed: int, out_dir: Path,
                      provenance: dict) -> str:
    """Degrade one recording by the baseline model, with noise seeded from
    (seed, recording id), and write it."""
    plan = dataclasses.replace(plan, rng_seed=derive_seed(seed, rec.recording_id))
    return _write_degraded(degrade_benchmark(rec, plan), plan, out_dir, provenance)


def _combine_and_write(task, out_dir: Path, provenance: dict) -> str:
    """Build one (components, plan) task's modified output and write it."""
    components, plan = task
    return _write_degraded(combine(components, plan), plan, out_dir, provenance)


def _check_out_dir(manifest_path, out_dir: Path) -> None:
    """Raise ValueError naming the path if a degraded recording or the output
    manifest would replace a source recording or the input manifest."""
    entries = read_manifest(manifest_path)
    inputs = {Path(e.path).resolve() for e in entries} | {Path(manifest_path).resolve()}
    for name in [f"{e.recording_id}.csv" for e in entries] + ["manifest.csv"]:
        if (out_dir / name).resolve() in inputs:
            raise ValueError(f"{out_dir / name}: --out would overwrite this file of the "
                             f"source corpus")


def cmd_degrade(args) -> int:
    modified = args.model == "modified"
    if modified and not (args.calibration and args.target_table):
        raise SystemExit("modified model needs both --calibration and --target-table")
    # the modified model has both files, so this rejects it too
    if args.sigma0_sq is not None and (args.calibration or args.target_table):
        raise ValueError("--sigma0-sq applies to the baseline model only, and takes "
                         "neither --calibration nor --target-table, from which noise "
                         "is otherwise planned")
    # the rate and a given --sigma0-sq are checked, then every input but the
    # corpus is read, so a bad one fails before any recording is read
    baseline = DegradationPlan(args.rate_hz, 0.0 if args.sigma0_sq is None else args.sigma0_sq)
    target = read_quality_table(args.target_table) if args.target_table else None
    calib = calib_payload = None
    if args.calibration:
        calib, calib_payload = load_calibration(args.calibration, args.rate_hz)
    sigma0_sq = args.sigma0_sq
    if not modified and sigma0_sq is None:
        if calib is None or target is None:
            raise SystemExit("baseline model needs --sigma0-sq, or --calibration "
                             "with --target-table")
        desired = quantile(target.column("prec_h"), 0.5)
        sigma0_sq = calib.invert(desired)
        logger.info("baseline sigma0_sq=%.6g from calibration inverse of "
                    "target median prec_h=%.6g", sigma0_sq, desired)
        baseline = dataclasses.replace(baseline, sigma0_sq=sigma0_sq)
    # the modified model's jitter, checked against its limit before any
    # recording is read
    jitter_sigma_ms = _target_jitter_ms(target, args.rate_hz) if modified else None
    out_dir = Path(args.out)
    _check_out_dir(args.manifest, out_dir)
    provenance = {
        "model": args.model,
        "calibration_id": calib_payload.get("calibration_id") if calib_payload else None,
        "target_corpus_hash": _hash_quality_table(target) if target is not None else None,
    }
    if modified:
        # every plan needs the whole source table: measure each source as it
        # is read (its quality, zero-noise precision and degradation
        # components), then combine each plan's output
        measured = _map_corpus(args.manifest, args.skip_bad,
                               partial(_measure_source, rate_hz=args.rate_hz, seed=args.seed,
                                       jitter_sigma_ms=jitter_sigma_ms))
        source = QualityTable.from_rows((c.recording_id, qv) for qv, _, c in measured)
        provenance["source_corpus_hash"] = _hash_quality_table(source)
        tasks = [(c, plan_modified(qv, post_prec_c, source, target, calib, args.rate_hz,
                                   c.rng_seed))
                 for qv, post_prec_c, c in measured]
        out_dir.mkdir(parents=True, exist_ok=True)
        written = ordered_map(partial(_combine_and_write, out_dir=out_dir,
                                      provenance=provenance), tasks)
    else:
        # the baseline plan needs no corpus: read, transform and write in one task
        out_dir.mkdir(parents=True, exist_ok=True)
        written = _map_corpus(args.manifest, args.skip_bad,
                              partial(_degrade_baseline, plan=baseline, seed=args.seed,
                                      out_dir=out_dir, provenance=provenance))
    write_manifest([ManifestEntry(rid, rid + ".csv", "canonical", args.rate_hz)
                    for rid in written], out_dir / "manifest.csv")
    write_json({
        "command": "degrade", "model": args.model, "seed": args.seed,
        "rate_hz": args.rate_hz, "sigma0_sq": sigma0_sq,
        "manifest": str(args.manifest),
        "target_table": str(args.target_table) if args.target_table else None,
        "calibration": str(args.calibration) if args.calibration else None,
        "version": __version__,
    }, out_dir / "run_manifest.json")
    print(f"wrote {len(written)} degraded recordings to {out_dir}")
    return 0


def cmd_assess(args) -> int:
    real = read_quality_table(args.real_table).features
    synth = read_quality_table(args.synth_table).features
    result = repeated_assessment(real, synth, repeats=args.repeats, seed=args.seed)
    write_json(assessment_report_dict(result), args.out)
    print(f"combined 1-NN accuracy: {100 * result.combined_accuracy:.1f}% "
          f"+/- {100 * result.range_of('combined'):.1f}% "
          f"(real {100 * result.real_accuracy:.1f}%, "
          f"synthetic {100 * result.synthetic_accuracy:.1f}%; ideal 50%)")
    return 0


def cmd_report(args) -> int:
    # several tables share one header; each row leads with its table's stem,
    # so two different files may not share one
    first_with_stem = {}
    for table in args.tables:
        first = first_with_stem.setdefault(Path(table).stem, table)
        if Path(first).resolve() != Path(table).resolve():
            raise ValueError(f"tables {first} and {table} share the label {Path(table).stem!r}")
    several = len(args.tables) > 1
    rows = []
    for table in args.tables:
        label = [Path(table).stem] if several else []
        rows += [label + summary_row(summary)
                 for summary in distribution_summary(read_quality_table(table).features)]
    write_csv(("table", *SUMMARY_HEADER) if several else SUMMARY_HEADER, rows, args.out)
    print(f"wrote distribution summary for {len(args.tables)} table(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazesim",
        description="Gaze signal-quality metrics, synthetic degradation, and "
                    "realism assessment.",
    )
    parser.add_argument("--version", action="version", version=f"gazesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate an oracle corpus")
    spec = p.add_mutually_exclusive_group(required=True)
    spec.add_argument("--preset", choices=sorted(PRESETS), default=None)
    spec.add_argument("--spec-file", default=None,
                      help="JSON corpus spec (alternative to --preset)")
    p.add_argument("--n", type=int, required=True, help="number of recordings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("metrics", help="compute a quality table for a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-bad", action="store_true",
                   help="log and skip recordings that cannot be read or measured "
                        "instead of failing")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("calibrate", help="sweep noise variance against measured precision")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rate-hz", type=float, required=True)
    p.add_argument("--grid", required=True, help="sigma0_sq grid as a:b:step")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-bad", action="store_true",
                   help="log and skip recordings that cannot be read, transformed or "
                        "measured instead of failing")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("degrade", help="transform a corpus toward a target device")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", choices=("baseline", "modified"), required=True)
    p.add_argument("--rate-hz", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sigma0-sq", type=float, default=None,
                   help="baseline model only: noise variance (otherwise inverted "
                        "from --calibration with --target-table)")
    p.add_argument("--target-table", default=None, help="target corpus quality table")
    p.add_argument("--calibration", default=None, help="calibration JSON from 'calibrate'")
    # jitter is always corrected; the flag stays only so perfbench's command line parses
    p.add_argument("--jitter-correction", choices=("on",), default="on", help=argparse.SUPPRESS)
    p.add_argument("--skip-bad", action="store_true",
                   help="log and skip recordings that cannot be read, measured or "
                        "transformed instead of failing")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("assess", help="1-NN two-sample realism test")
    p.add_argument("--real-table", required=True)
    p.add_argument("--synth-table", required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("report", help="per-feature distribution summary CSV")
    p.add_argument("tables", nargs="+", help="quality table CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

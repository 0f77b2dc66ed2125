"""Batch command-line front end.

Subcommands wire the library into reproducible pipelines: synth (oracle
corpora), metrics (quality tables), calibrate (noise-variance sweep),
degrade (baseline or modified transform), assess (1-NN two-sample test),
and report (distribution summaries). Every command takes one master seed;
all internal seeds derive from it and the recording ids, so reruns are
byte-identical. Outputs are plain CSV/JSON written atomically.
"""
from __future__ import annotations

import argparse
import json
import hashlib
import logging
import sys
from pathlib import Path

from . import __version__
from .assess import (distribution_summary, repeated_assessment,
                     summary_rows_to_csv, write_assessment_report)
from .calibrate import (describe_curve, load_calibration, save_calibration,
                        sweep_sigma)
from .degrade import (DegradeConfig, degrade_benchmark, degrade_modified,
                      plan_modified, save_plan, zero_noise_pass)
from .io import (ManifestEntry, atomic_write_text, read_manifest,
                 read_quality_table, read_recording_from_entry,
                 write_manifest, write_quality_table, write_recording)
from .metrics import recording_quality
from .oracle import (PRESETS, corpus_spec_from_json, generate_corpus,
                     write_ground_truth)
from .quantiles import quantile
from .seeding import derive_seed
from .types import DegradationPlan

logger = logging.getLogger("gazesim")


def _hash_quality_rows(rows) -> str:
    h = hashlib.sha256()
    for rid, qv in sorted(rows, key=lambda item: item[0]):
        h.update(f"{rid}:{qv.as_tuple()}:{qv.n_fixations_used}\n".encode("utf-8"))
    return h.hexdigest()[:16]


def _map_corpus(manifest_path, skip_bad: bool, fn=lambda rec: rec) -> list:
    """fn(recording) for every recording in a manifest, reading one at a
    time; with skip_bad, log and drop the recordings whose read or fn fails
    instead of failing."""
    results = []
    for entry in read_manifest(manifest_path):
        try:
            results.append(fn(read_recording_from_entry(entry)))
        except (OSError, ValueError) as exc:
            if not skip_bad:
                raise
            # the log line names the recording once
            reason = str(exc).removeprefix(f"{entry.recording_id}: ")
            logger.warning("skipping %s: %s", entry.recording_id, reason)
    if not results:
        raise ValueError(f"{manifest_path}: no usable recordings")
    return results


def _write_run_manifest(out_dir: Path, payload: dict) -> None:
    atomic_write_text(out_dir / "run_manifest.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_synth(args) -> int:
    if args.preset is not None:
        spec = PRESETS[args.preset]
        spec_label = args.preset
    elif args.spec_file is not None:
        with open(args.spec_file, "r", encoding="utf-8") as fh:
            spec = corpus_spec_from_json(json.load(fh))
        spec_label = Path(args.spec_file).stem
    else:
        raise SystemExit("synth needs --preset or --spec-file")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(spec, args.n, args.seed, id_prefix=spec_label)
    entries = []
    for rec, _ in corpus:
        path = out_dir / f"{rec.recording_id}.csv"
        write_recording(rec, path)
        entries.append(ManifestEntry(rec.recording_id, rec.recording_id + ".csv",
                                     "canonical", rec.nominal_rate_hz))
    write_ground_truth([gt for _, gt in corpus], out_dir / "ground_truth.csv")
    write_manifest(entries, out_dir / "manifest.csv")
    _write_run_manifest(out_dir, {
        "command": "synth", "preset": spec_label, "n": args.n,
        "spec_file": str(args.spec_file) if args.spec_file else None,
        "seed": args.seed, "version": __version__,
    })
    print(f"wrote {len(corpus)} recordings to {out_dir}")
    return 0


def cmd_metrics(args) -> int:
    rows = _map_corpus(args.manifest, args.skip_bad,
                       lambda rec: (rec.recording_id, recording_quality(rec)))
    write_quality_table(rows, args.out)
    print(f"wrote quality table with {len(rows)} rows to {args.out}")
    return 0


def _parse_grid(text: str) -> list:
    """Parse 'a:b:step' into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a:b:step', got {text!r}")
    a, b, step = (float(p) for p in parts)
    if step <= 0 or b < a:
        raise ValueError(f"grid must have b >= a and step > 0, got {text!r}")
    grid = []
    value = a
    while value <= b + 1e-12:
        grid.append(round(value, 12))
        value += step
    return grid


def _measurable(rec):
    """The recording itself, once the metric pass accepts it."""
    recording_quality(rec)
    return rec


def cmd_calibrate(args) -> int:
    # --skip-bad also drops the recordings the metric pass rejects
    corpus = _map_corpus(args.manifest, args.skip_bad,
                         _measurable if args.skip_bad else (lambda rec: rec))
    config = DegradeConfig(noise_order=args.noise_order)
    curve = sweep_sigma(corpus, _parse_grid(args.grid), args.rate_hz, args.seed,
                        config=config)
    calibration_id = save_calibration(curve, args.out, provenance={
        "manifest": str(args.manifest),
        "target_rate_hz": args.rate_hz,
        "seed": args.seed,
        "noise_order": args.noise_order,
        "grid": args.grid,
        "version": __version__,
    })
    print(describe_curve(curve))
    print(f"wrote calibration {calibration_id} to {args.out}")
    return 0


def cmd_degrade(args) -> int:
    config = DegradeConfig(noise_order=args.noise_order,
                           jitter_correction=(args.jitter_correction == "on"))
    modified = args.model == "modified"
    if modified and not (args.calibration and args.target_table):
        raise SystemExit("modified model needs both --calibration and --target-table")
    # the modified planner needs each source's quality: measured as it is
    # read, so --skip-bad also drops the recordings the metric pass rejects
    measured = _map_corpus(args.manifest, args.skip_bad, lambda rec: (
        rec, recording_quality(rec) if modified else None))
    corpus = [rec for rec, _ in measured]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    target_rows = read_quality_table(args.target_table) if args.target_table else None
    calib = calib_payload = None
    if args.calibration:
        calib, calib_payload = load_calibration(args.calibration)

    provenance = {
        "model": args.model,
        "calibration_id": calib_payload.get("calibration_id") if calib_payload else None,
        "target_corpus_hash": _hash_quality_rows(target_rows) if target_rows else None,
    }

    if not modified:
        if args.sigma0_sq is not None:
            sigma0_sq = args.sigma0_sq
        elif calib is not None and target_rows is not None:
            desired = quantile([qv.prec_h for _, qv in target_rows], 0.5)
            sigma0_sq = calib.invert(desired)
            logger.info("baseline sigma0_sq=%.6g from calibration inverse of "
                        "target median prec_h=%.6g", sigma0_sq, desired)
        else:
            raise SystemExit("baseline model needs --sigma0-sq, or --calibration "
                             "with --target-table")
        plans = {rec.recording_id: DegradationPlan(
            target_rate_hz=args.rate_hz, sigma0_sq=sigma0_sq,
            rng_seed=derive_seed(args.seed, rec.recording_id),
        ) for rec in corpus}
        transform = degrade_benchmark
    else:
        source_qvs = {rec.recording_id: qv for rec, qv in measured}
        provenance["source_corpus_hash"] = _hash_quality_rows(source_qvs.items())
        source_corpus = list(source_qvs.values())
        target_corpus = [qv for _, qv in target_rows]
        plans = {}
        for rec in corpus:
            post_qv = recording_quality(zero_noise_pass(rec, args.rate_hz, config))
            plans[rec.recording_id] = plan_modified(
                source_qvs[rec.recording_id], post_qv.prec_c,
                source_corpus, target_corpus, calib,
                args.rate_hz, derive_seed(args.seed, rec.recording_id),
            )
        transform = degrade_modified

    entries = []
    for rec in corpus:
        plan = plans[rec.recording_id]
        degraded = transform(rec, plan, config)
        write_recording(degraded, out_dir / f"{rec.recording_id}.csv")
        save_plan(plan, out_dir / f"{rec.recording_id}.plan.json", provenance)
        entries.append(ManifestEntry(rec.recording_id, rec.recording_id + ".csv",
                                     "canonical", args.rate_hz))
    write_manifest(entries, out_dir / "manifest.csv")
    _write_run_manifest(out_dir, {
        "command": "degrade", "model": args.model, "seed": args.seed,
        "rate_hz": args.rate_hz, "sigma0_sq": args.sigma0_sq,
        "manifest": str(args.manifest),
        "target_table": str(args.target_table) if args.target_table else None,
        "calibration": str(args.calibration) if args.calibration else None,
        "noise_order": args.noise_order, "jitter_correction": args.jitter_correction,
        "version": __version__,
    })
    print(f"wrote {len(corpus)} degraded recordings to {out_dir}")
    return 0


def cmd_assess(args) -> int:
    real = [qv for _, qv in read_quality_table(args.real_table)]
    synth = [qv for _, qv in read_quality_table(args.synth_table)]
    result = repeated_assessment(real, synth, repeats=args.repeats, seed=args.seed)
    write_assessment_report(result, args.repeats, args.out)
    print(f"combined 1-NN accuracy: {100 * result.combined_accuracy:.1f}% "
          f"+/- {100 * result.range_of('combined'):.1f}% "
          f"(real {100 * result.real_accuracy:.1f}%, "
          f"synthetic {100 * result.synthetic_accuracy:.1f}%; ideal 50%)")
    return 0


def cmd_report(args) -> int:
    chunks = []
    for i, table in enumerate(args.tables):
        rows = read_quality_table(table)
        summaries = distribution_summary([qv for _, qv in rows])
        if len(args.tables) == 1:
            chunks.append(summary_rows_to_csv(summaries))
        else:
            text = summary_rows_to_csv(summaries, extra_column=("table", Path(table).stem))
            chunks.append(text if i == 0 else text.split("\n", 1)[1])
    atomic_write_text(args.out, chunks)
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
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--spec-file", default=None,
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
    p.add_argument("--noise-order", choices=("pre", "post"), default="pre")
    p.add_argument("--skip-bad", action="store_true",
                   help="log and skip recordings that cannot be read or measured "
                        "instead of failing")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("degrade", help="transform a corpus toward a target device")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", choices=("baseline", "modified"), required=True)
    p.add_argument("--rate-hz", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sigma0-sq", type=float, default=None,
                   help="baseline noise variance (otherwise inverted from calibration)")
    p.add_argument("--target-table", default=None, help="target corpus quality table")
    p.add_argument("--calibration", default=None, help="calibration JSON from 'calibrate'")
    p.add_argument("--noise-order", choices=("pre", "post"), default="pre")
    p.add_argument("--jitter-correction", choices=("on", "off"), default="off")
    p.add_argument("--skip-bad", action="store_true",
                   help="log and skip recordings that cannot be read (or, for the "
                        "modified model, measured) instead of failing")
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

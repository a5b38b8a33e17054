"""Command-line front ends.

``fwsim`` runs scenarios, sweeps, the signature-overhead calculator, and
plot-data table extraction. ``fwpub`` chunks, tags, signs, and publishes a
firmware image into an on-disk repository. Both exit 0 on success and 2 on
invalid input: a bad option value, a missing input file, or a file or value
that a domain check rejects. Any other exception is a fault of the program and
ends with a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    MalformedCsv,
    NoPayloadRoom,
    OverheadModel,
    load_metrics_csv,
    overhead_report,
    progress_table,
    rate_table,
    retx_blocks,
    run_scenario,
    sweep,
    sweep_csv_lines,
    table_csv_lines,
)
from .naming import MalformedName
from .scenario import ScenarioInvalid, load_scenario
from .vendor import (
    DuplicateEpoch,
    EmptyImage,
    FirmwareImage,
    InconsistentPublication,
    InvalidChunkSize,
    InvalidSigningKey,
    InvalidTruncation,
    build_manifest,
    make_chunks,
    signing_key_from_seed,
    write_publication,
)

VALIDATION_ERRORS = (
    ScenarioInvalid, NoPayloadRoom, MalformedCsv, MalformedName,
    EmptyImage, InvalidChunkSize, InvalidSigningKey, InvalidTruncation,
    InconsistentPublication, DuplicateEpoch, FileNotFoundError,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _list_of(parse, what: str):
    """argparse type for a comma-separated list; empty items are skipped."""
    def parse_list(text: str) -> list:
        try:
            return [parse(item) for item in text.split(",") if item]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None
    return parse_list


def _numeric(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _fwsim_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwsim", description="Firmware roll-out simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="directory for metrics.csv and summary.json")

    p_sweep = sub.add_parser("sweep", help="run a scenario across an axis and seeds")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, type=_list_of(_numeric, "numbers"),
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", required=True, type=_list_of(int, "integers"),
                         help="comma-separated seeds")
    p_sweep.add_argument("--out", default=None, help="output CSV file (default stdout)")

    p_over = sub.add_parser("overhead", help="chunk-wise signature overhead calculator")
    p_over.add_argument("--mtu", type=int, default=128)
    p_over.add_argument("--name-bytes", type=int, default=16)
    p_over.add_argument("--structural-bytes", type=int, default=16)
    p_over.add_argument("--link-bytes", type=int, default=23)
    p_over.add_argument("--sig-bytes", type=int, default=64)
    p_over.add_argument("--compressed", action="store_true",
                        help="model header compression: names elided, structural "
                             "overhead reduced to 6 bytes")
    p_over.add_argument("--firmware-size", type=_positive_int, required=True,
                        help="firmware size in bytes (binary units: 36 KiB = 36864)")

    p_tab = sub.add_parser("tables", help="plot-data tables from a metrics CSV")
    p_tab.add_argument("csv")
    p_tab.add_argument("--kind", required=True, choices=("progress", "rate", "retx"))
    p_tab.add_argument("--block-size", type=_positive_int, default=100)
    p_tab.add_argument("--out", default=None)
    return parser


def _emit_lines(lines, out: str | None) -> None:
    if out is None:
        for line in lines:
            print(line)
    else:
        with open(out, "w") as fh:
            for line in lines:
                fh.write(line + "\n")


def fwsim_main(argv=None) -> int:
    args = _fwsim_parser().parse_args(argv)
    try:
        if args.command == "run":
            out_dir = args.out if args.out is not None else "fwsim-out"
            result, summary = run_scenario(args.scenario, seed=args.seed, out_dir=out_dir)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "sweep":
            scenario = load_scenario(args.scenario)
            table = sweep(scenario, args.axis, args.values, args.seeds)
            _emit_lines(sweep_csv_lines(table), args.out)
        elif args.command == "overhead":
            model = OverheadModel(
                mtu=args.mtu,
                name_bytes=args.name_bytes,
                structural_bytes=args.structural_bytes,
                link_header_bytes=args.link_bytes,
                signature_bytes=args.sig_bytes,
                compression_enabled=args.compressed,
            )
            print(json.dumps(overhead_report(model, args.firmware_size), indent=2, sort_keys=True))
        elif args.command == "tables":
            rows = load_metrics_csv(args.csv)
            if args.kind == "progress":
                table = progress_table(rows)
            elif args.kind == "rate":
                table = rate_table(rows)
            else:
                table = retx_blocks(rows, args.block_size)
            _emit_lines(table_csv_lines(args.kind, table), args.out)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _fwpub_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwpub", description="Publish a firmware image")
    parser.add_argument("--image", required=True, help="firmware binary")
    parser.add_argument("--deployment", required=True)
    parser.add_argument("--vendor", required=True)
    parser.add_argument("--class", dest="device_class", required=True)
    parser.add_argument("--epoch", type=int, required=True, help="aligned version epoch")
    parser.add_argument("--chunk-size", type=int, default=32)
    parser.add_argument("--psk-file", required=True, help="pre-shared class key")
    parser.add_argument("--key-file", required=True, help="32-byte Ed25519 signing seed")
    parser.add_argument("--repo", required=True, help="repository directory")
    parser.add_argument("--trunc-len", type=int, default=8, choices=(8, 16, 32))
    return parser


def fwpub_main(argv=None) -> int:
    args = _fwpub_parser().parse_args(argv)
    try:
        image_bytes = Path(args.image).read_bytes()
        psk = Path(args.psk_file).read_bytes()
        seed = Path(args.key_file).read_bytes()
        key = signing_key_from_seed(seed)
        image = FirmwareImage(image_bytes, args.device_class, args.epoch)
        manifest = build_manifest(image, args.chunk_size, key, args.deployment, args.vendor)
        chunks = make_chunks(image, manifest.base, args.chunk_size, psk, args.trunc_len)
        out = write_publication(Path(args.repo), manifest, chunks)
        print(json.dumps({
            "published": str(out),
            "base_name": str(manifest.base),
            "image_size": manifest.image_size,
            "chunk_size": manifest.chunk_size,
            "chunk_count": manifest.chunk_count,
            "image_digest": manifest.image_digest.hex(),
        }, indent=2, sort_keys=True))
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(fwsim_main())

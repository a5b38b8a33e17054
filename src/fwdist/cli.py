"""Command-line front ends.

``fwsim`` runs scenarios, sweeps, the signature-overhead calculator, and
plot-data table extraction. ``fwpub`` signs a firmware image's manifest and
publishes both into an on-disk repository. Both exit 0 on success and 2 on
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
    RUN_OUTPUTS,
    MalformedCsv,
    NoPayloadRoom,
    OverheadModel,
    iter_csv_rows,
    open_metrics_csv,
    overhead_report,
    progress_table,
    rate_table,
    retx_blocks,
    run_scenario,
    sweep,
    sweep_csv_lines,
    table_csv_lines,
)
from .naming import BaseName, MalformedName
from .scenario import UNREADABLE, ScenarioInvalid, read_scenario
from .vendor import (
    DuplicateEpoch,
    EmptyImage,
    FirmwareImage,
    InvalidChunkSize,
    InvalidSigningKey,
    build_manifest,
    check_path_component,
    signing_key_from_seed,
    write_publication,
)


class UnencodableOutput(ValueError):
    """A line of output that stdout's encoding cannot hold; ``--out`` writes UTF-8."""


VALIDATION_ERRORS = (
    ScenarioInvalid, NoPayloadRoom, MalformedCsv, MalformedName, UnencodableOutput,
    EmptyImage, InvalidChunkSize, InvalidSigningKey, DuplicateEpoch, FileNotFoundError,
)


def _int_from(low: int, what: str):
    """argparse type for an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_from(1, "positive")
_non_negative_int = _int_from(0, "non-negative")


def _list_of(parse, what: str):
    """argparse type for a comma-separated list; empty items are skipped."""
    def parse_list(text: str) -> list:
        try:
            return [parse(item) for item in text.split(",") if item]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None
    return parse_list


def _file_bytes(path: str) -> bytes:
    """argparse type: the contents of the file at ``path``."""
    try:
        return Path(path).read_bytes()
    except (FileNotFoundError, *UNREADABLE) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from None


def _out_dir(path: str) -> str:
    """argparse type: a directory to write into, which may not exist yet."""
    ancestor = Path(path)
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise argparse.ArgumentTypeError(f"cannot make directory {path}: {ancestor} is not a directory")
    return path


def _run_out_dir(path: str) -> str:
    """argparse type: an ``_out_dir`` in which ``fwsim run``'s output files can be written."""
    for name in RUN_OUTPUTS:
        if (Path(path) / name).is_dir():
            raise argparse.ArgumentTypeError(f"cannot write {Path(path) / name}: is a directory")
    return _out_dir(path)


def _out_file(path: str) -> str:
    """argparse type: a file to write, in a directory that exists."""
    parent = Path(path).parent
    if Path(path).is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {path}: is a directory")
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {path}: {parent} is not an existing directory")
    return path


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
    p_run.add_argument("--out", type=_run_out_dir, default="fwsim-out",
                       help="directory for metrics.csv and summary.json")

    p_sweep = sub.add_parser("sweep", help="run a scenario across an axis and seeds")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, type=_list_of(_numeric, "numbers"),
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=_list_of(int, "integers"),
                         help="comma-separated seeds; required unless --axis is seed, "
                              "whose values are the seeds")
    p_sweep.add_argument("--out", type=_out_file, help="output CSV file (default stdout)")

    # an option left out is absent from the namespace and takes OverheadModel's default
    p_over = sub.add_parser("overhead", help="chunk-wise signature overhead calculator",
                            argument_default=argparse.SUPPRESS)
    p_over.add_argument("--mtu", type=_positive_int)
    p_over.add_argument("--name-bytes", type=_non_negative_int)
    p_over.add_argument("--structural-bytes", type=_non_negative_int)
    p_over.add_argument("--link-bytes", dest="link_header_bytes", type=_non_negative_int)
    p_over.add_argument("--sig-bytes", dest="signature_bytes", type=_non_negative_int)
    p_over.add_argument("--compressed", dest="compression_enabled", action="store_true",
                        help="model header compression: names elided, structural "
                             "overhead reduced to 6 bytes")
    p_over.add_argument("--firmware-size", type=_positive_int, required=True,
                        help="firmware size in bytes (binary units: 36 KiB = 36864)")

    p_tab = sub.add_parser("tables", help="plot-data tables from a metrics CSV")
    p_tab.add_argument("csv")
    p_tab.add_argument("--kind", required=True, choices=("progress", "rate", "retx"))
    p_tab.add_argument("--block-size", type=_positive_int, default=100)
    p_tab.add_argument("--out", type=_out_file, help="output CSV file (default stdout)")
    return parser


def _emit_lines(lines, out: str | None) -> None:
    """Write ``lines`` to the file ``out``, as UTF-8, or to stdout, in its own
    encoding, once every line is built.

    The lines are kept as the bytes the text stream would write, so a table
    with a row per received chunk takes its output size and no more; a fault
    while building them, such as UnencodableOutput, writes nothing.
    """
    # an in-memory stdout, such as the io.StringIO of contextlib.redirect_stdout, has no byte buffer
    buffer = getattr(sys.stdout, "buffer", None) if out is None else None
    if buffer is not None:
        encoding, errors = sys.stdout.encoding, sys.stdout.errors
    else:
        encoding, errors = "utf-8", "strict"
    text = bytearray()
    for line in lines:
        try:
            text += line.encode(encoding, errors)
        except UnicodeEncodeError as exc:
            raise UnencodableOutput(f"stdout's encoding, {encoding}, cannot write {exc.object[exc.start]!a};"
                                    " write the table as UTF-8 with --out") from None
        text += b"\n"
    if out is not None:
        with open(out, "wb") as fh:
            fh.write(text)
    elif buffer is not None:
        sys.stdout.flush()
        buffer.write(text)
    else:
        sys.stdout.write(text.decode(encoding))


def fwsim_main(argv=None) -> int:
    args = _fwsim_parser().parse_args(argv)
    try:
        if args.command == "run":
            result, summary = run_scenario(args.scenario, seed=args.seed, out_dir=args.out)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "sweep":
            table = sweep(read_scenario(args.scenario), args.axis, args.values, args.seeds)
            _emit_lines(sweep_csv_lines(table), args.out)
        elif args.command == "overhead":
            given = {k: v for k, v in vars(args).items() if k not in ("command", "firmware_size")}
            report = overhead_report(OverheadModel(**given), args.firmware_size)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "tables":
            # one pass over the file; the output is opened once the table is whole
            with open_metrics_csv(args.csv) as fh:
                rows = iter_csv_rows(fh)
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
    parser.add_argument("--image", required=True, type=_file_bytes, help="firmware binary")
    parser.add_argument("--deployment", required=True)
    parser.add_argument("--vendor", required=True)
    parser.add_argument("--class", dest="device_class", required=True)
    parser.add_argument("--epoch", type=int, required=True, help="aligned version epoch")
    parser.add_argument("--chunk-size", type=int, default=32)
    parser.add_argument("--key-file", required=True, type=_file_bytes,
                        help="32-byte Ed25519 signing seed")
    parser.add_argument("--repo", required=True, type=_out_dir, help="repository directory")
    return parser


def fwpub_main(argv=None) -> int:
    args = _fwpub_parser().parse_args(argv)
    try:
        # each is one directory of the publication path; checked before any signing
        for option, value in (("--deployment", args.deployment), ("--vendor", args.vendor),
                              ("--class", args.device_class)):
            check_path_component(value, option)
        key = signing_key_from_seed(args.key_file)
        image = FirmwareImage(BaseName(args.deployment, args.vendor, args.device_class, args.epoch), args.image)
        manifest = build_manifest(image, args.chunk_size, key)
        out = write_publication(Path(args.repo), manifest, image.data)
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

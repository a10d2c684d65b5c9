"""Command-line interface.

Subcommands: encode, decode, bench, eval, dict-dump. A --config file's
key=value lines are shared flags placed before the command line's, which win.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import evaluate
from .decoder import reconstruct
from .dictionary import DictionaryConfig, build_dictionary, dump_dictionary_csv
from .encoder import EncoderConfig
from .errors import InvalidConfig, IoError, SpikeCodecError
from .fixedpoint import FixedFormat, SaturationStats, parse_format
from .pipeline import (
    RunConfig,
    codes_from_events,
    encode_signal,
    parse_events,
    read_input,
    read_text,
    run_bench,
    write_events,
    write_waveform,
)
from .spikecoder import build_channel_table, emit_stream

# hardware reference timings, printed as context with bench output only
HW_CONTEXT = (
    "context: reference hardware reports 4.7 ms/spike-batch (time-domain, "
    "area-optimized) and 0.5 ms (FFT, performance-optimized); not asserted here."
)

# the flags a --config file may set; their defaults are the library's, and
# --fs, --freq-hi and --fixed stay None so that "not given" can be seen
SHARED_FLAGS = {
    "kernels": dict(type=int, default=DictionaryConfig.num_kernels,
                    help="dictionary size (default %(default)s)"),
    "fs": dict(type=float, help="sample rate in Hz (default: the wav's, else "
                                f"{DictionaryConfig.sample_rate:g})"),
    "width": dict(type=int, default=EncoderConfig.width,
                  help="segment width W (default %(default)s)"),
    "k": dict(type=int, default=EncoderConfig.max_codes,
              help="max codes per segment (default %(default)s)"),
    "threshold": dict(type=float, default=EncoderConfig.halt_threshold,
                      help="halting threshold (default %(default)s)"),
    "backend": dict(choices=["direct", "spectral"], default=EncoderConfig.backend,
                    help="correlation backend (default %(default)s); with --fixed "
                    "both run one datapath and write the same events"),
    "fixed": dict(metavar="B:F", help="run the fixed-point datapath, e.g. 34:24; "
                  "needs 0 < F < B <= 53 and B + F <= 62"),
    "select": dict(choices=["abs", "signed"], default=EncoderConfig.select,
                   help="pick the largest |c| or the largest c (default %(default)s)"),
    "itp": dict(choices=["log", "linear"], default=RunConfig.itp_metric,
                help="intensity-to-place nearest-center metric (default %(default)s)"),
    "freq-lo": dict(type=float, default=DictionaryConfig.freq_lo,
                    help="lowest center frequency (default %(default)s)"),
    "freq-hi": dict(type=float, help="top center frequency (default "
                                     f"min({DictionaryConfig.freq_hi:g}, fs/2))"),
}


@functools.cache  # the subcommands' parent; alone, it checks config-file lines
def _shared_flags_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config", help="key=value lines of shared flags; flags win")
    for key, spec in SHARED_FLAGS.items():
        parser.add_argument(f"--{key}", **spec)
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    return parser


def _config_flags(path: str) -> list[str]:
    """The key=value lines of a config file as --key=value flags, each
    checked as that flag is; an error names the file and the line."""
    try:
        text = read_text(path, "config line")
    except OSError as exc:
        raise IoError(f"cannot read config file {path!r}: {exc}")
    flags = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not sep or key not in SHARED_FLAGS:
            raise InvalidConfig(f"{path} line {lineno}: want key=value with "
                                f"a shared flag's key, got {raw.rstrip()!r}")
        flags.append(f"--{key}={value.strip()}")
        try:
            _shared_flags_parser().parse_args(flags[-1:])
        except argparse.ArgumentError as exc:
            raise InvalidConfig(f"{path} line {lineno}: {exc}")
    return flags


def _build_configs(args: argparse.Namespace, rate: float | None = None) -> RunConfig:
    """The run's settings from the parsed flags. The sample rate is --fs,
    else the input's `rate`, else the library default; the band stops at
    min(8000, fs/2) unless --freq-hi is given. The encoder config is
    checked here, the dictionary config by `build_dictionary`."""
    encoder = EncoderConfig(
        max_codes=args.k,
        halt_threshold=args.threshold,
        backend=args.backend,
        arithmetic="fixed" if args.fixed else "float",
        fixed_format=parse_format(args.fixed) if args.fixed else FixedFormat(),
        select=args.select,
        width=args.width,
    )
    encoder.validate()
    fs = args.fs
    if fs is None:
        fs = DictionaryConfig.sample_rate if rate is None else rate
    freq_hi = args.freq_hi
    if freq_hi is None:  # the default band adapts to the rate
        freq_hi = min(DictionaryConfig.freq_hi, fs / 2.0)
    dictionary = DictionaryConfig(
        num_kernels=args.kernels,
        sample_rate=fs,
        freq_lo=args.freq_lo,
        freq_hi=freq_hi,
        kernel_len=args.width,
    )
    return RunConfig(
        encoder=encoder,
        dictionary=dictionary,
        seed=args.seed,
        itp_metric=args.itp,
    )


def _cmd_encode(args) -> int:
    _build_configs(args)  # an encoder config error exits before any I/O
    samples, rate = read_input(
        RunConfig(input_path=args.input, input_format=args.format))
    cfg = _build_configs(args, rate)
    cfg.output_path = args.output or args.input + ".events.csv"
    cfg.output_format = args.output_format
    cfg.with_raw_intensity = args.with_raw_intensity
    dictionary = build_dictionary(cfg.dictionary)
    stats = SaturationStats()
    codesets = encode_signal(samples, dictionary, cfg.encoder, stats=stats)
    table = build_channel_table(dictionary.num_kernels)
    events = emit_stream(codesets, table, cfg.encoder.width, cfg.itp_metric)
    write_events(events, cfg)
    n_codes = sum(len(cs) for cs in codesets)
    sps = cfg.encoder.max_codes
    rate_hz = sps * cfg.dictionary.sample_rate / cfg.encoder.width
    print(f"wrote {len(events)} events ({n_codes} codes, "
          f"{len(codesets)} segments) to {cfg.output_path}")
    print(f"budget {sps} spikes/segment == {rate_hz:.1f} spikes/second "
          f"(derived as k*fs/W)")
    if cfg.encoder.arithmetic == "fixed":
        print(f"saturations {stats.saturations}, wraps {stats.wraps}")
    return 0


def _cmd_decode(args) -> int:
    cfg = _build_configs(args)
    if args.length is not None and args.length < 1:
        raise InvalidConfig(f"--length must be >= 1, got {args.length}")
    dictionary = build_dictionary(cfg.dictionary)
    events = parse_events(args.events, build_channel_table(dictionary.num_kernels))
    width = cfg.encoder.width
    codesets = codes_from_events(events, width, args.quantized)
    n_segments = int(codesets[-1].segment_index[0]) + 1 if codesets else 0
    total_len = n_segments * width if args.length is None else args.length
    x_hat = reconstruct(codesets, dictionary, width, total_len)
    write_waveform(x_hat, args.output, cfg.dictionary.sample_rate)
    print(f"reconstructed {total_len} samples from "
          f"{sum(len(cs) for cs in codesets)} codes -> {args.output}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _build_configs(args)
    if args.segments < 1:
        raise InvalidConfig(f"--segments must be >= 1, got {args.segments}")
    reports = run_bench(cfg, n_segments=args.segments)
    print(f"{'backend':<9} {'arith':<6} {'ms/segment':>11} "
          f"{'codes/s':>10} {'segs/s':>8}  match")
    for r in reports:
        print(f"{r.backend:<9} {r.arithmetic:<6} "
              f"{1e3 * r.wall_time_per_segment:>11.2f} "
              f"{r.codes_per_second:>10.1f} {r.segments_per_second:>8.2f}  "
              f"{'yes' if r.sequences_match_direct else 'NO'}")
    print(HW_CONTEXT)
    return 0


def _cmd_eval(args) -> int:
    cfg = _build_configs(args)
    table = build_channel_table(cfg.dictionary.num_kernels)
    width = cfg.encoder.width
    bin_width = width if args.bin is None else args.bin
    if bin_width < 1:  # before any file is read
        raise InvalidConfig(f"--bin must be >= 1, got {bin_width}")

    try:
        decay, every = args.lr_decay.split("@")
        train_cfg = evaluate.MlpTrainConfig(
            epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
            lr_decay=float(decay), decay_every=int(every), seed=args.seed,
        )
    except ValueError:
        raise InvalidConfig(f"bad --lr-decay {args.lr_decay!r}, want F@E")
    train_cfg.validate()  # before any file is read

    try:
        text = read_text(args.labels, "labels line")
    except OSError as exc:
        raise IoError(f"cannot read labels {args.labels!r}: {exc}")
    labels_by_stem = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise IoError(f"labels line {line!r} has no comma")
        stem, label = [p.strip() for p in line.split(",", 1)]
        if labels_by_stem.setdefault(stem, label) != label:
            raise IoError(f"labels line {line!r} relabels {stem!r}, which "
                          f"an earlier line labels {labels_by_stem[stem]!r}")

    class_names = sorted(set(labels_by_stem.values()))
    features, labels = [], []
    for stem in sorted(labels_by_stem):
        path = None
        for candidate in (stem, stem + ".csv", stem + ".jsonl"):
            full = os.path.join(args.features_from, candidate)
            if os.path.exists(full):
                path = full
                break
        if path is None:
            raise IoError(f"no event file for {stem!r} in {args.features_from!r}")
        events = parse_events(path, table)
        duration = int(events.t.max(initial=0)) // width * width + width
        features.append(evaluate.temporal_average(events, duration, bin_width, table))
        labels.append(class_names.index(labels_by_stem[stem]))
    features = np.array(features)
    labels = np.array(labels)
    model = evaluate.mlp_train(features, labels, train_cfg)
    preds = np.argmax(evaluate.mlp_forward(model, features), axis=1)
    counts = evaluate.ConfusionCounts.from_predictions(labels, preds, len(class_names))
    p, r, f1, macro = evaluate.prf1(counts)
    accuracy = float(np.mean(preds == labels))
    print(f"classes: {class_names}")
    print("training-set scores: the model is scored on the files it trained on")
    for i, name in enumerate(class_names):
        print(f"  {name}: P={p[i]:.4f} R={r[i]:.4f} F1={f1[i]:.4f}")
    print(f"macro: P={macro[0]:.4f} R={macro[1]:.4f} F1={macro[2]:.4f} "
          f"accuracy={accuracy:.4f}")
    print(f"forward-pass MACs (weight multiplies): {model.mac_count()}")
    if args.model_out:
        try:
            with open(args.model_out, "w", newline="\n") as fh:
                evaluate.save_model(model, fh)
        except OSError as exc:
            raise IoError(f"cannot write {args.model_out!r}: {exc}")
        print(f"model saved to {args.model_out}")
    return 0


def _cmd_dict_dump(args) -> int:
    cfg = _build_configs(args)
    dictionary = build_dictionary(cfg.dictionary)
    try:
        with open(args.output, "w", newline="\n") as fh:
            dump_dictionary_csv(dictionary, fh)
    except OSError as exc:
        raise IoError(f"cannot write {args.output!r}: {exc}")
    print(f"wrote {dictionary.num_kernels} kernels to {args.output}")
    return 0


@functools.cache  # parse_args keeps no state on the parser: build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecodec",
        description="Greedy gammatone matching-pursuit spike codec",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=summary, parents=[_shared_flags_parser()])
        sub.set_defaults(func=func)
        return sub

    enc = command("encode", _cmd_encode, "signal file -> spike event file")
    enc.add_argument("input")
    enc.add_argument("-o", "--output")
    enc.add_argument("--format", choices=["wav16", "csv", "raw-f32"])
    enc.add_argument("--output-format", choices=["csv", "jsonl"], default="csv")
    enc.add_argument("--with-raw-intensity", action="store_true",
                     help="append the signed code intensity column")

    dec = command("decode", _cmd_decode, "spike event file -> waveform")
    dec.add_argument("events")
    dec.add_argument("-o", "--output", required=True,
                     help="output waveform (.wav, .csv or .f32)")
    dec.add_argument("--length", type=int, help="output length in samples")
    dec.add_argument("--quantized", action="store_true",
                     help="reconstruct from the file's channel centers")

    ben = command("bench", _cmd_bench, "time both backends on synthetic data")
    ben.add_argument("--segments", type=int, default=10)

    ev = command("eval", _cmd_eval, "train/evaluate the MLP on event files")
    ev.add_argument("--features-from", required=True,
                    help="directory of event files")
    ev.add_argument("--labels", required=True, help="csv of stem,label lines")
    train = evaluate.MlpTrainConfig
    ev.add_argument("--epochs", type=int, default=train.epochs)
    ev.add_argument("--batch", type=int, default=train.batch_size)
    ev.add_argument("--lr", type=float, default=train.learning_rate)
    ev.add_argument("--lr-decay", default=f"{train.lr_decay}@{train.decay_every}",
                    metavar="F@E", help="multiply lr by F every E epochs")
    ev.add_argument("--bin", type=int, help="temporal-average bin width")
    ev.add_argument("--model-out", help="save trained weights here")

    dd = command("dict-dump", _cmd_dict_dump, "write the kernel bank as csv")
    dd.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:  # the file's flags go first, so explicit flags win
            args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
        return args.func(args)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SpikeCodecError as exc:  # NumericError and the base class
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"numeric error: out of memory in {args.command}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

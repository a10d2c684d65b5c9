"""Command-line interface.

Subcommands: encode, decode, bench, eval, dict-dump. Shared numeric flags
can also come from a key=value config file (--config); explicit flags win.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import evaluate
from .decoder import reconstruct
from .dictionary import DictionaryConfig, build_dictionary, dump_dictionary_csv
from .encoder import EncoderConfig
from .errors import (
    ConfigError,
    CorruptFile,
    InputError,
    InvalidConfig,
    IoError,
    SpikeCodecError,
)
from .fixedpoint import FixedFormat, parse_format
from .pipeline import (
    RunConfig,
    codes_from_events,
    encode_signal,
    parse_events,
    read_input,
    run_bench,
    write_events,
    write_waveform,
)
from .spikecoder import DEFAULT_CENTERS, build_channel_table, emit_stream

# hardware reference timings, printed as context with bench output only
HW_CONTEXT = (
    "context: reference hardware reports 4.7 ms/spike-batch (time-domain, "
    "area-optimized) and 0.5 ms (FFT, performance-optimized); not asserted here."
)

SHARED_KEYS = (
    "kernels", "fs", "width", "k", "threshold", "backend",
    "fixed", "select", "itp", "freq-lo", "freq-hi",
)


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--kernels", type=int, help="dictionary size (default 40)")
    sub.add_argument("--fs", type=float, help="sample rate in Hz (default 16000)")
    sub.add_argument("--width", type=int, help="segment width W (default 2048)")
    sub.add_argument("--k", type=int, help="max codes per segment (default 16)")
    sub.add_argument("--threshold", type=float, help="halting threshold (default 0)")
    sub.add_argument("--backend", choices=["direct", "spectral"])
    sub.add_argument("--fixed", metavar="B:F",
                     help="run the fixed-point datapath, e.g. 34:24")
    sub.add_argument("--select", choices=["abs", "signed"])
    sub.add_argument("--itp", choices=["log", "linear"],
                     help="intensity-to-place nearest-center metric")
    sub.add_argument("--freq-lo", type=float, help="lowest center frequency")
    sub.add_argument("--freq-hi", type=float, help="highest center frequency")
    sub.add_argument("--seed", type=int, default=0)


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidConfig(f"bad config line {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("_", "-")
                if key not in SHARED_KEYS:
                    raise InvalidConfig(f"unknown config key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise IoError(f"cannot read config file {path!r}: {exc}")
    return values


def _merged(args: argparse.Namespace, key: str, cast, default):
    """Precedence: explicit flag > config file > default."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        return flag_val
    file_vals = getattr(args, "_config_file_values", {})
    if key in file_vals:
        try:
            return cast(file_vals[key])
        except ValueError:
            raise InvalidConfig(f"bad value for {key!r} in config file")
    return default


def _build_configs(args: argparse.Namespace) -> RunConfig:
    args._config_file_values = (
        _load_config_file(args.config) if getattr(args, "config", None) else {}
    )
    width = _merged(args, "width", int, 2048)
    fixed_text = _merged(args, "fixed", str, None)
    encoder = EncoderConfig(
        max_codes=_merged(args, "k", int, 16),
        halt_threshold=_merged(args, "threshold", float, 0.0),
        backend=_merged(args, "backend", str, "direct"),
        arithmetic="fixed" if fixed_text else "float",
        fixed_format=parse_format(fixed_text) if fixed_text else FixedFormat(),
        select=_merged(args, "select", str, "abs"),
        width=width,
    )
    encoder.validate()
    fs = _merged(args, "fs", float, 16000.0)
    freq_hi = _merged(args, "freq-hi", float, None)
    if freq_hi is None:
        freq_hi = min(8000.0, fs / 2.0)  # default band adapts to the rate
    dictionary = DictionaryConfig(
        num_kernels=_merged(args, "kernels", int, 40),
        sample_rate=fs,
        freq_lo=_merged(args, "freq-lo", float, 20.0),
        freq_hi=freq_hi,
        kernel_len=width,
    )
    dictionary.validate()
    return RunConfig(
        encoder=encoder,
        dictionary=dictionary,
        seed=getattr(args, "seed", 0),
        itp_metric=_merged(args, "itp", str, "log"),
    )


def _cmd_encode(args) -> int:
    cfg = _build_configs(args)
    cfg.input_path = args.input
    cfg.input_format = args.format
    cfg.output_path = args.output or args.input + ".events.csv"
    cfg.output_format = args.output_format
    cfg.with_raw_intensity = args.with_raw_intensity

    samples, rate = read_input(cfg)
    fs_given = args.fs is not None or "fs" in args._config_file_values
    if rate is not None and not fs_given:
        hi_given = args.freq_hi is not None or "freq-hi" in args._config_file_values
        freq_hi = cfg.dictionary.freq_hi if hi_given else min(
            cfg.dictionary.freq_hi, rate / 2.0
        )
        cfg.dictionary = replace(cfg.dictionary, sample_rate=rate, freq_hi=freq_hi)
        cfg.dictionary.validate()
    dictionary = build_dictionary(cfg.dictionary)
    codesets = encode_signal(samples, dictionary, cfg.encoder)
    table = build_channel_table(dictionary.num_kernels, DEFAULT_CENTERS)
    events = emit_stream(codesets, table, cfg.encoder.width, cfg.itp_metric)
    write_events(events, cfg)
    n_codes = sum(len(cs) for cs in codesets)
    sps = cfg.encoder.max_codes
    rate_hz = sps * cfg.dictionary.sample_rate / cfg.encoder.width
    print(f"wrote {len(events)} events ({n_codes} codes, "
          f"{len(codesets)} segments) to {cfg.output_path}")
    print(f"budget {sps} spikes/segment == {rate_hz:.1f} spikes/second "
          f"(derived as k*fs/W)")
    return 0


def _cmd_decode(args) -> int:
    cfg = _build_configs(args)
    if args.length is not None and args.length < 1:
        raise InvalidConfig(f"--length must be >= 1, got {args.length}")
    events = parse_events(args.events)
    dictionary = build_dictionary(cfg.dictionary)
    table = build_channel_table(dictionary.num_kernels, DEFAULT_CENTERS)
    width = cfg.encoder.width
    codesets = codes_from_events(events, width)
    n_segments = int(codesets[-1].segment_index[0]) + 1 if codesets else 0
    total_len = n_segments * width if args.length is None else args.length
    x_hat = reconstruct(
        codesets, dictionary, width, total_len,
        quantized=args.quantized, table=table, metric=cfg.itp_metric,
    )
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
    table = build_channel_table(_merged(args, "kernels", int, 40), DEFAULT_CENTERS)
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

    labels_by_stem = {}
    try:
        with open(args.labels) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "," not in line:
                    raise CorruptFile(f"labels line {line!r} has no comma")
                stem, label = [p.strip() for p in line.split(",", 1)]
                labels_by_stem[stem] = label
    except OSError as exc:
        raise IoError(f"cannot read labels {args.labels!r}: {exc}")

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
        events = parse_events(path)
        duration = int(events.t.max(initial=0)) // width * width + width
        features.append(evaluate.temporal_average(events, duration, bin_width, table))
        labels.append(class_names.index(labels_by_stem[stem]))
    features = np.array(features)
    labels = np.array(labels)
    model = evaluate.mlp_train(features, labels, train_cfg)
    preds = np.argmax(evaluate.mlp_forward(model, features), axis=1)
    counts = evaluate.ConfusionCounts.from_predictions(labels, preds, len(class_names))
    p, r, f1, macro = evaluate.prf1(counts)
    accuracy = evaluate.mlp_accuracy(model, features, labels)
    print(f"classes: {class_names}")
    for i, name in enumerate(class_names):
        print(f"  {name}: P={p[i]:.4f} R={r[i]:.4f} F1={f1[i]:.4f}")
    print(f"macro: P={macro[0]:.4f} R={macro[1]:.4f} F1={macro[2]:.4f} "
          f"accuracy={accuracy:.4f}")
    print(f"forward-pass MACs (weight multiplies): {model.mac_count()}")
    if args.model_out:
        with open(args.model_out, "w", newline="\n") as fh:
            evaluate.save_model(model, fh)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecodec",
        description="Greedy gammatone matching-pursuit spike codec",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="signal file -> spike event file")
    enc.add_argument("input")
    enc.add_argument("-o", "--output")
    enc.add_argument("--format", choices=["wav16", "csv", "raw-f32"])
    enc.add_argument("--output-format", choices=["csv", "jsonl"], default="csv")
    enc.add_argument("--with-raw-intensity", action="store_true",
                     help="append the signed code intensity column")
    _add_shared_flags(enc)
    enc.set_defaults(func=_cmd_encode)

    dec = subs.add_parser("decode", help="spike event file -> waveform")
    dec.add_argument("events")
    dec.add_argument("-o", "--output", required=True,
                     help="output waveform (.wav, .csv or .f32)")
    dec.add_argument("--length", type=int, help="output length in samples")
    dec.add_argument("--quantized", action="store_true",
                     help="reconstruct from channel centers instead of raw s")
    _add_shared_flags(dec)
    dec.set_defaults(func=_cmd_decode)

    ben = subs.add_parser("bench", help="time both backends on synthetic data")
    ben.add_argument("--segments", type=int, default=10)
    _add_shared_flags(ben)
    ben.set_defaults(func=_cmd_bench)

    ev = subs.add_parser("eval", help="train/evaluate the MLP on event files")
    ev.add_argument("--features-from", required=True,
                    help="directory of event files")
    ev.add_argument("--labels", required=True, help="csv of stem,label lines")
    ev.add_argument("--epochs", type=int, default=400)
    ev.add_argument("--batch", type=int, default=64)
    ev.add_argument("--lr", type=float, default=1e-3)
    ev.add_argument("--lr-decay", default="0.9@50", metavar="F@E",
                    help="multiply lr by F every E epochs")
    ev.add_argument("--bin", type=int, help="temporal-average bin width")
    ev.add_argument("--model-out", help="save trained weights here")
    _add_shared_flags(ev)
    ev.set_defaults(func=_cmd_eval)

    dd = subs.add_parser("dict-dump", help="write the kernel bank as csv")
    dd.add_argument("-o", "--output", required=True)
    _add_shared_flags(dd)
    dd.set_defaults(func=_cmd_dict_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SpikeCodecError as exc:  # NumericError and the rest
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

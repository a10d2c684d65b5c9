"""End-to-end pipeline: signal ingestion, segmentation, event-file I/O,
and the synthetic benchmark.

Input formats: wav16 (mono or stereo 16-bit PCM, scaled to [-1, 1]),
csv (plain numbers, comma/whitespace/newline separated, passed through
unscaled), raw-f32 (little-endian float32, unscaled).

Event files are CSV with the exact header
``t_samples,channel,kernel,level,intensity_center`` (LF line endings,
intensities with 6 significant digits) or JSONL with the same fields. The
optional raw-intensity column appends the signed code intensity: JSONL
carries it exactly, so its decode inverts exactly, and CSV to 6 significant
digits. Without it, decoding falls back to the channel center magnitudes.
"""

from __future__ import annotations

import json
import re
import time
import wave
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import by_segment
from .dictionary import Dictionary, DictionaryConfig, build_dictionary
from .encoder import CODE_DTYPE, EncoderConfig, Segment, encode_segment
from .errors import InvalidConfig, IoError, NumericError
from .fixedpoint import SaturationStats
from .spikecoder import EVENT_DTYPE, ChannelTable

EVENT_HEADER = "t_samples,channel,kernel,level,intensity_center"


@dataclass
class RunConfig:
    input_path: str = ""
    input_format: str | None = None  # wav16 | csv | raw-f32; None = by extension
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    dictionary: DictionaryConfig = field(default_factory=DictionaryConfig)
    output_path: str = ""
    output_format: str = "csv"  # csv | jsonl
    seed: int = 0
    with_raw_intensity: bool = False
    itp_metric: str = "log"  # log | linear


def detect_format(path: str) -> str:
    lower = path.lower()
    if lower.endswith(".wav"):
        return "wav16"
    if lower.endswith(".csv"):
        return "csv"
    if lower.endswith(".f32") or lower.endswith(".raw"):
        return "raw-f32"
    raise IoError(f"cannot infer input format from {path!r}")


def read_input(cfg: RunConfig) -> tuple[np.ndarray, float | None]:
    """Load the configured input; returns (samples, sample_rate_or_None).

    Raises NumericError when a sample is NaN or infinite, and IoError
    when a raw-f32 file's size is not a whole number of samples.
    """
    fmt = cfg.input_format or detect_format(cfg.input_path)
    rate = None
    try:
        if fmt == "wav16":
            samples, rate = _read_wav16(cfg.input_path)
        elif fmt == "csv":
            text = read_text(cfg.input_path, "csv value")
            values = [tok for tok in text.replace(",", " ").split() if tok]
            try:
                samples = np.array([float(v) for v in values])
            except ValueError as exc:
                raise IoError(f"non-numeric csv value: {exc}")
        elif fmt == "raw-f32":
            data = np.fromfile(cfg.input_path, dtype=np.uint8)
            if len(data) % 4:
                raise IoError(f"{cfg.input_path!r} ends inside a float32 sample")
            samples = data.view("<f4").astype(np.float64)
        else:
            raise IoError(f"unknown input format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot read {cfg.input_path!r}: {exc}")
    if not np.all(np.isfinite(samples)):
        raise NumericError(f"{cfg.input_path!r} holds NaN or infinite samples")
    return samples, rate


def read_text(path: str, record: str) -> str:
    """The whole text of `path`. Raises IoError, naming the file and the line,
    on bytes that are not UTF-8 (`record`: what a line holds); an OSError
    passes to the caller."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise IoError(f"bad {record} in {path!r} line {line}: {exc}") from None


def _read_wav16(path: str) -> tuple[np.ndarray, float]:
    try:
        with wave.open(path, "rb") as wf:
            if wf.getsampwidth() != 2:
                raise IoError(
                    f"wav16 requires 16-bit PCM, got {8 * wf.getsampwidth()}-bit"
                )
            rate = wf.getframerate()
            channels = wf.getnchannels()
            expected = 2 * channels * wf.getnframes()
            frames = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise IoError(f"bad wav file {path!r}: {exc}")
    if len(frames) < expected:
        raise IoError(f"wav file {path!r} is shorter than its header declares")
    data = np.frombuffer(frames, dtype="<i2").astype(np.float64)
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    return data / 32768.0, float(rate)


def write_waveform(samples: np.ndarray, path: str, sample_rate: float = 16000.0):
    """Write samples in the format implied by the path extension."""
    fmt = detect_format(path)
    try:
        if fmt == "raw-f32":
            np.asarray(samples, dtype="<f4").tofile(path)
        elif fmt == "csv":
            with open(path, "w", newline="\n") as fh:
                fh.write("\n".join(repr(float(v)) for v in samples) + "\n")
        else:
            pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767)
            # not wave.open(path): its writer's __del__ prints a traceback
            with open(path, "wb") as fh, wave.open(fh, "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(int(sample_rate))
                wf.writeframes(pcm.astype("<i2").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}")


def segment_stream(samples: np.ndarray, width: int) -> list[Segment]:
    """Split into ceil(len/width) consecutive segments, zero-padding the tail."""
    if width < 1:
        raise InvalidConfig("segment width must be >= 1")
    samples = np.asarray(samples, dtype=np.float64)
    segments = []
    for index in range(-(-len(samples) // width)):
        chunk = samples[index * width : (index + 1) * width]
        if len(chunk) < width:
            chunk = np.concatenate([chunk, np.zeros(width - len(chunk))])
        segments.append(Segment(samples=chunk, segment_index=index, width=width))
    return segments


def _fmt_intensity(value: float) -> str:
    return format(value, "#.6g")  # 6 significant digits, trailing zeros kept


def write_events_csv(events: np.ndarray, fh, with_raw: bool = False) -> None:
    """`events`: an EVENT_DTYPE array. Rows go through .tolist(), so every
    field is formatted as a Python int or float."""
    header = EVENT_HEADER + (",raw_intensity" if with_raw else "")
    fh.write(header + "\n")
    for t, channel, m, level, center, raw in np.asarray(events).tolist():
        line = f"{t},{channel},{m},{level},{_fmt_intensity(center)}"
        if with_raw:
            line += f",{_fmt_intensity(raw)}"
        fh.write(line + "\n")


def write_events_jsonl(events: np.ndarray, fh, with_raw: bool = False) -> None:
    keys = ("t_samples", "channel", "kernel", "level", "intensity_center",
            "raw_intensity")[: 6 if with_raw else 5]
    for row in np.asarray(events).tolist():
        fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def write_events(events: np.ndarray, cfg: RunConfig) -> None:
    try:
        with open(cfg.output_path, "w", newline="\n") as fh:
            if cfg.output_format == "jsonl":
                write_events_jsonl(events, fh, cfg.with_raw_intensity)
            elif cfg.output_format == "csv":
                write_events_csv(events, fh, cfg.with_raw_intensity)
            else:
                raise IoError(f"unknown output format {cfg.output_format!r}")
    except OSError as exc:
        raise IoError(f"cannot write {cfg.output_path!r}: {exc}")


def parse_events(path: str, table: ChannelTable) -> np.recarray:
    """Read an event file (csv or jsonl) into an EVENT_DTYPE record array
    with one `np.loadtxt` call. Raises IoError, naming the file line, on
    a csv header or field count, or JSONL record keys, that the writers do
    not write (raw_intensity in every record or none), a malformed record, a
    negative time, a non-finite intensity, a zero raw intensity, a
    nonpositive center, a channel other than kernel * levels + level of the
    reader's `table`, a level outside it, or a center other than its
    level's as the writers write it."""
    try:
        text = read_text(path, "event record")
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}")
    # blank lines after the first become empty ones, which loadtxt skips
    lines = re.sub(r"\n[^\S\n]+$", "\n", text, flags=re.M).split("\n")
    header, jsonl = lines[0], lines[0].lstrip().startswith("{")

    def bad(index, exc):  # records are the nonblank lines after the csv header
        line = [n for n, row in enumerate(lines, 1) if row][index + (not jsonl)]
        return IoError(f"bad event record in {path!r} line {line}: {exc}")

    rows, raw = lines[1:], header.endswith(",raw_intensity")
    if jsonl:  # each value's JSON text takes the csv checks: 70.9, true, "1" fail
        rows, keys = [], None
        for record in filter(None, lines):
            try:  # TypeError: a record that is not an object
                rec = json.loads(record)
                raw = raw if keys else "raw_intensity" in rec  # as the first record
                keys = keys or EVENT_HEADER.split(",") + ["raw_intensity"] * raw
                if sorted(rec) != sorted(keys):
                    raise ValueError(f"record keys {sorted(rec)}, expected {keys}")
                rows.append(",".join(json.dumps(rec[k]) for k in keys))
            except (ValueError, TypeError) as exc:
                raise bad(len(rows), exc) from None
    elif text and header not in (EVENT_HEADER, EVENT_HEADER + ",raw_intensity"):
        raise IoError(f"unexpected event header in {path!r}")
    dtype = (np.record, EVENT_DTYPE[list(EVENT_DTYPE.names[: 5 + raw])])
    try:  # with no rows loadtxt would warn
        events = np.loadtxt(rows, dtype, delimiter=",", comments=None,
                            ndmin=1) if any(rows) else np.empty(0, dtype)
    except ValueError as exc:  # numpy's row is the last; from 0 if a column follows
        row = re.match(r"(?s).* at row (\d+)(,?)", str(exc))
        raise bad(int(row[1]) - (not row[2]), exc) from None
    events = events.view((np.record, EVENT_DTYPE))  # records: no conversion
    if not raw:  # sign information only survives in the raw column
        events["raw_intensity"] = events["magnitude_level_center"]
    # JSONL writes centers exactly, csv to 6 digits
    centers = [c if jsonl else float(_fmt_intensity(c)) for c in table.centers]
    level, n = events["level"], len(centers)
    # a level outside [0, n) reads the NaN past the last center
    expected = np.array([*centers, np.nan])[np.minimum(level.view(np.uint64), n)]
    center, intensity = events["magnitude_level_center"], events["raw_intensity"]
    wrong = ((events["t"] < 0) | ~(np.isfinite(center) & np.isfinite(intensity))
             | (center <= 0) | (intensity == 0)  # emit_stream writes neither
             | (events["channel"] != events["m"] * n + level)
             | (center != expected)).nonzero()[0]
    if len(wrong):
        raise bad(wrong[0], f"event {events[wrong[0]].tolist()} has a negative time, "
                  f"a bad intensity or contradicts {n} levels with centers {centers}")
    return events.view(np.recarray)


def codes_from_events(events: np.ndarray, width: int,
                      quantized: bool = False) -> list[np.recarray]:
    """Rebuild per-segment CODE_DTYPE arrays, in segment order, from parsed
    events (inverse of emit_stream up to intensity quantization when raw
    values are absent). Within a segment codes keep their file order.
    `quantized`: s is the center of the channel each event fired, with the
    raw intensity's sign, as the file records it.

    A shift of exactly +W/2 shares its event time with the next segment's
    -W/2 and resolves to the latter; the schema carries no segment id.
    """
    events = np.asarray(events)
    # record dtype from the start: a record-array view then converts nothing
    codes = np.empty(len(events), (np.record, CODE_DTYPE))
    codes["segment_index"], tau = np.divmod(events["t"], width)
    codes["m"], codes["tau"] = events["m"], tau - width // 2
    codes["s"] = (np.copysign(events["magnitude_level_center"], events["raw_intensity"])
                  if quantized else events["raw_intensity"])
    return [cs.view(np.recarray) for cs in by_segment(codes)]


def encode_signal(
    samples: np.ndarray,
    dictionary: Dictionary,
    cfg: EncoderConfig,
    stats: SaturationStats | None = None,
) -> list[np.recarray]:
    """Segment and encode a whole signal, the segments in order on the
    calling thread. The first failing segment's error propagates; `stats`
    then keeps what was counted up to the failure, the earlier segments'
    overflow counts included."""
    return [encode_segment(seg, dictionary, None, cfg, stats)
            for seg in segment_stream(samples, cfg.width)]


# ----- synthetic clip and benchmark -----

def make_audio_clip(
    n_samples: int, sample_rate: float = 16000.0, seed: int = 0
) -> np.ndarray:
    """Deterministic music-like test clip: decaying harmonic tone bursts over
    a low noise floor."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate
    x = 0.01 * rng.standard_normal(n_samples)
    for _ in range(6):
        f0 = float(rng.uniform(80.0, 1200.0))
        onset = float(rng.uniform(0.0, 0.8)) * n_samples / sample_rate
        amp = float(rng.uniform(0.1, 0.5))
        env = np.where(t >= onset, np.exp(-(t - onset) * rng.uniform(4.0, 20.0)), 0.0)
        for harmonic in (1, 2, 3):
            x += amp / harmonic * env * np.sin(2 * np.pi * f0 * harmonic * t)
    return 0.9 * x / np.max(np.abs(x))


@dataclass
class BenchReport:
    backend: str
    arithmetic: str
    wall_time_per_segment: float
    codes_per_second: float
    segments_per_second: float
    # spectral run matches the direct run of the same arithmetic mode
    sequences_match_direct: bool = True


def run_bench(cfg: RunConfig, n_segments: int = 10) -> list[BenchReport]:
    """Encode `make_audio_clip` of `n_segments` segments under both backends
    and both arithmetic modes; reports timings and cross-checks code
    sequences as a side effect.

    Timings are wall-clock measurements on this host, reported for context
    only.
    """
    dictionary = build_dictionary(cfg.dictionary)
    samples = make_audio_clip(n_segments * cfg.encoder.width,
                              cfg.dictionary.sample_rate, cfg.seed)

    reports = []
    reference: dict[str, np.ndarray] = {}  # the direct run's (m, tau) columns
    for backend in ("direct", "spectral"):
        for arithmetic in ("float", "fixed"):
            enc = replace(cfg.encoder, backend=backend, arithmetic=arithmetic)
            start = time.perf_counter()
            codesets = encode_signal(samples, dictionary, enc)
            elapsed = time.perf_counter() - start
            codes = np.concatenate(codesets)
            seq = np.stack([codes["m"], codes["tau"]])
            if backend == "direct":
                reference[arithmetic] = seq
            reports.append(
                BenchReport(
                    backend=backend,
                    arithmetic=arithmetic,
                    wall_time_per_segment=elapsed / max(n_segments, 1),
                    codes_per_second=len(codes) / elapsed if elapsed > 0 else 0.0,
                    segments_per_second=n_segments / elapsed if elapsed > 0 else 0.0,
                    sequences_match_direct=np.array_equal(seq, reference[arithmetic]),
                )
            )
    return reports
